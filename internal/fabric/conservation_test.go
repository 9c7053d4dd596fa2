package fabric

import (
	"testing"
	"testing/quick"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Property: every Transfer delivers exactly once, never before the
// analytic lower bound (size/bottleneck), for arbitrary sizes and chunk
// choices.
func TestTransferConservationProperty(t *testing.T) {
	f := func(sizeRaw uint32, chunkRaw uint16) bool {
		size := int64(sizeRaw%(4<<20)) + 1
		chunk := int64(chunkRaw%8192) + 1
		e := sim.New()
		rate := units.MBps(200)
		a := sim.NewPipe("a", rate, 0, 0)
		b := sim.NewPipe("b", units.MBps(400), 0, 0)
		calls := 0
		var end sim.Time
		Transfer(e, &Route{Head: []PathStage{{Stage: a}, {Stage: b}}}, size, chunk, 0, func(at sim.Time) {
			calls++
			end = at
		})
		if err := e.Run(); err != nil {
			return false
		}
		if calls != 1 {
			return false
		}
		// Lower bound: full serialization at the slowest stage. Per-chunk
		// billing truncates to the nanosecond, so allow one tick of slack
		// per chunk (tiny chunks on multi-MB payloads otherwise underflow
		// the analytic bound by a few ticks).
		chunks := (size + chunk - 1) / chunk
		return end >= rate.TimeFor(size)-sim.Time(chunks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: pipelined time never exceeds strict store-and-forward time
// (sum of all stage serializations plus latencies).
func TestTransferNoWorseThanStoreAndForward(t *testing.T) {
	f := func(sizeRaw uint32) bool {
		size := int64(sizeRaw%(1<<20)) + 1
		e := sim.New()
		r1, r2, r3 := units.MBps(100), units.MBps(150), units.MBps(80)
		stages := []PathStage{
			{Stage: sim.NewPipe("a", r1, 0, 0), Latency: units.Microsecond},
			{Stage: sim.NewPipe("b", r2, 0, 0), Latency: units.Microsecond},
			{Stage: sim.NewPipe("c", r3, 0, 0)},
		}
		var end sim.Time
		Transfer(e, &Route{Head: stages}, size, ChunkFor(size), 0, func(at sim.Time) { end = at })
		if err := e.Run(); err != nil {
			return false
		}
		sf := r1.TimeFor(size) + r2.TimeFor(size) + r3.TimeFor(size) + 2*units.Microsecond
		// Chunk rounding bills per chunk; allow one chunk of slack per stage.
		chunk := ChunkFor(size)
		slack := r1.TimeFor(chunk) + r2.TimeFor(chunk) + r3.TimeFor(chunk)
		return end <= sf+slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkForPolicy(t *testing.T) {
	cases := []struct{ size, want int64 }{
		{1, 512}, {512, 512}, {2048, 512}, {4096, 1024},
		{8192, 2048}, {64 * 1024, 2048}, {1 << 20, 4096}, {8 << 20, 32768},
	}
	for _, c := range cases {
		if got := ChunkFor(c.size); got != c.want {
			t.Errorf("ChunkFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	// Event-count bound: no message takes more than ~260 chunks.
	for _, size := range []int64{1, 4096, 1 << 20, 64 << 20} {
		chunks := (size + ChunkFor(size) - 1) / ChunkFor(size)
		if chunks > 260 {
			t.Errorf("size %d: %d chunks, event bound broken", size, chunks)
		}
	}
}
