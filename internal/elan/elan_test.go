package elan

import (
	"testing"

	"mpinet/internal/memreg"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestDeviceProperties(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	ep := n.NewEndpoint(0)
	if !ep.NICProgress() {
		t.Error("Elan progresses rendezvous on the NIC")
	}
	if !ep.AcquireOnEager() {
		t.Error("Elan MMU costs apply at every message size")
	}
	// Host overhead dips past the PIO limit (Figure 3's step at 256B).
	if ep.SendOverhead(512) >= ep.SendOverhead(128) {
		t.Errorf("send overhead did not dip past PIO size: %v vs %v",
			ep.SendOverhead(512), ep.SendOverhead(128))
	}
}

func TestMMUSyncCostAndCache(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	ep := n.NewEndpoint(0).(*endpoint)
	buf := memreg.Buf{Addr: 0, Size: 16 * units.KB}
	if ep.AcquireBuf(buf) <= 0 {
		t.Fatal("cold MMU sync free")
	}
	if ep.AcquireBuf(buf) != 0 {
		t.Fatal("warm MMU sync not free")
	}
}

func TestCommandQueueBackpressure(t *testing.T) {
	eng := sim.New()
	n := New(eng, DefaultConfig(2))
	ep := n.NewEndpoint(0).(*endpoint)
	if ep.IssueStall() != 0 {
		t.Fatal("fresh endpoint stalled")
	}
	// Saturate the 16-deep queue with undelivered commands.
	for i := 0; i < cmdQueueDepth; i++ {
		ep.Eager(1, 64, 0, func(error) {})
	}
	if ep.IssueStall() == 0 {
		t.Fatal("full command queue did not stall")
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if ep.IssueStall() != 0 {
		t.Fatal("drained queue still stalls")
	}
}

func TestMatchDelayScalesWithPending(t *testing.T) {
	measure := func(pending int) sim.Time {
		eng := sim.New()
		n := New(eng, DefaultConfig(2))
		ep := n.NewEndpoint(0).(*endpoint)
		var at sim.Time
		ep.MatchDelay(pending, func() { at = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if measure(8) <= measure(1) {
		t.Fatal("match delay not growing with pending entries")
	}
	// The walk is capped.
	if measure(100) != measure(8) {
		t.Fatal("match walk not capped")
	}
}

func TestUniBandwidthIsDMABound(t *testing.T) {
	eng := sim.New()
	n := New(eng, DefaultConfig(2))
	ep := n.NewEndpoint(0)
	size := int64(4 * units.MB)
	var at sim.Time
	ep.Bulk(1, size, 0, func(error) { at = eng.Now() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(size) / at.Seconds() / float64(units.MB)
	if bw < 280 || bw > 330 {
		t.Fatalf("uni-directional bulk bandwidth = %.0f MB/s, want ~308", bw)
	}
}

func TestLoopbackWorseThanWire(t *testing.T) {
	// The NIC-loopback intra-node path carries the paper's Figure 9
	// surprise: worse than inter-node.
	measure := func(dst int) sim.Time {
		eng := sim.New()
		n := New(eng, DefaultConfig(2))
		ep := n.NewEndpoint(0)
		var at sim.Time
		ep.Eager(dst, 64, 0, func(error) { at = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if lb, rm := measure(0), measure(1); lb <= rm {
		t.Fatalf("loopback %v should be slower than remote %v", lb, rm)
	}
}

func TestCopyTimeAndShmemConfig(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	ep := n.NewEndpoint(0)
	if ep.CopyTime(1<<20) <= ep.CopyTime(1<<10) {
		t.Fatal("copy time not increasing")
	}
	if _, ch := n.ShmemPolicy(); ch.CacheBW <= 0 {
		t.Fatal("shmem config empty")
	}
	if ep.MemoryUsage(7) != ep.MemoryUsage(1) {
		t.Fatal("elan memory should be flat")
	}
}
