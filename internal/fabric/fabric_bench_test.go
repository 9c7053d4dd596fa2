package fabric

import (
	"testing"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// benchPath builds the canonical three-stage host→switch→host path the NIC
// models drive: egress link, switch output port, ingress link.
func benchPath() []PathStage {
	return []PathStage{
		{Stage: sim.NewPipe("up", units.MBps(1000), 0, 0), Latency: 100 * units.Nanosecond},
		{Stage: sim.NewPipe("out", units.MBps(1000), 0, 0), Latency: 100 * units.Nanosecond},
		{Stage: sim.NewPipe("down", units.MBps(1000), 0, 0), Latency: 100 * units.Nanosecond},
	}
}

// BenchmarkTransferChunk measures the per-chunk cost of the cut-through
// pipeline in steady state: one op is one chunk traversing all three stages
// (three stage events plus the self-clocking of its successor). The chunk
// progression is a typed-event path and must report zero allocations per
// chunk — the single xfer record per message amortizes away.
func BenchmarkTransferChunk(b *testing.B) {
	e := sim.New()
	path := benchPath()
	const chunk = 2048
	size := int64(b.N) * chunk
	done := false
	b.ReportAllocs()
	b.ResetTimer()
	Transfer(e, &Route{Head: path}, size, chunk, 0, func(sim.Time) { done = true })
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if !done {
		b.Fatal("transfer did not complete")
	}
}

// TestTransferSteadyStateZeroAlloc asserts the benchmark's claim: past the
// one xfer record per message, pushing more chunks through a path must not
// allocate. Measured by subtraction so the fixed setup (engine, pipes, the
// event slice warm-up) cancels.
func TestTransferSteadyStateZeroAlloc(t *testing.T) {
	run := func(nchunks int64) float64 {
		return testing.AllocsPerRun(5, func() {
			e := sim.New()
			path := benchPath()
			Transfer(e, &Route{Head: path}, nchunks*512, 512, 0, func(sim.Time) {})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := run(32), run(2080)
	per := (large - small) / float64(2080-32)
	if per > 0.001 {
		t.Errorf("transfer allocates %.4f per chunk in steady state, want 0", per)
	}
}

// TestTransferRecyclesRecords: a transfer's record returns to the pool at
// its completion sentinel, so a stream of sequential single-chunk messages
// — each issued as the previous one lands — reuses one record instead of
// allocating one per message.
func TestTransferRecyclesRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool discards records at random")
	}
	const msgs = 1000
	e := sim.New()
	path := benchPath()
	left := 0
	var next func(end sim.Time)
	next = func(end sim.Time) {
		if left > 0 {
			left--
			Transfer(e, &Route{Head: path}, 256, 512, end, next)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		left = msgs - 1
		Transfer(e, &Route{Head: path}, 256, 512, e.Now(), next)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if left != 0 {
			t.Fatalf("%d transfers never issued", left)
		}
	})
	if per := allocs / msgs; per >= 0.1 {
		t.Errorf("sequential transfers allocate %.3f per message, want < 0.1", per)
	}
}
