package verbs

import (
	"testing"

	"mpinet/internal/bus"
	"mpinet/internal/fabric"
	"mpinet/internal/memreg"
	"mpinet/internal/nic"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestTopspinConfigAllows16(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.SwitchPorts = 24
	n := New(sim.New(), cfg)
	if n.Nodes() != 16 {
		t.Fatal("Topspin config failed")
	}
}

func TestEagerDeliveryOrdering(t *testing.T) {
	eng := sim.New()
	n := New(eng, DefaultConfig(2))
	ep := n.NewEndpoint(0)
	var order []int
	ep.Eager(1, 64, 0, func(error) { order = append(order, 1) })
	ep.Eager(1, 64, 0, func(error) { order = append(order, 2) })
	ep.Control(1, 0, func(error) { order = append(order, 3) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("delivery order %v, want FIFO", order)
	}
}

func TestLoopbackPath(t *testing.T) {
	measure := func(dst int, size int64) sim.Time {
		eng := sim.New()
		n := New(eng, DefaultConfig(2))
		ep := n.NewEndpoint(0)
		var at sim.Time
		ep.Bulk(dst, size, 0, func(error) { at = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	// Small messages: loopback skips the link and switch, so it is faster.
	if lb, rm := measure(0, 64), measure(1, 64); lb >= rm {
		t.Fatalf("small loopback %v not faster than remote %v", lb, rm)
	}
	// Bulk: loopback crosses the SAME PCI-X bus twice, so it is slower than
	// the pipelined two-bus remote path — the mechanism that caps MVAPICH's
	// intra-node loopback near 450 MB/s in Figure 10.
	size := int64(256 * units.KB)
	lb, rm := measure(0, size), measure(1, size)
	if lb <= rm {
		t.Fatalf("bulk loopback %v should be slower than remote %v (double bus crossing)", lb, rm)
	}
	bw := float64(size) / lb.Seconds() / float64(units.MB)
	if bw < 400 || bw > 500 {
		t.Fatalf("loopback bulk bandwidth = %.0f MB/s, want ~450", bw)
	}
}

func TestRegistrationCostOnlyOnMiss(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	ep := n.NewEndpoint(0).(*endpoint)
	buf := memreg.Buf{Addr: 0, Size: 64 * units.KB}
	first := ep.AcquireBuf(buf)
	if first <= 0 {
		t.Fatal("first acquire free")
	}
	if again := ep.AcquireBuf(buf); again != 0 {
		t.Fatalf("warm acquire cost %v", again)
	}
	if ep.pin.Misses == 0 {
		t.Fatal("no misses recorded")
	}
}

func TestMemoryGrowsPerPeer(t *testing.T) {
	n := New(sim.New(), DefaultConfig(8))
	ep := n.NewEndpoint(0)
	if ep.MemoryUsage(7) <= ep.MemoryUsage(1) {
		t.Fatal("per-connection memory not growing")
	}
}

func TestPCIVariantSlower(t *testing.T) {
	measure := func(k bus.Kind) sim.Time {
		eng := sim.New()
		cfg := DefaultConfig(2)
		cfg.Bus = k
		n := New(eng, cfg)
		ep := n.NewEndpoint(0)
		var at sim.Time
		ep.Bulk(1, 256*units.KB, 0, func(error) { at = eng.Now() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return at
	}
	if x, p := measure(bus.PCIX64x133), measure(bus.PCI64x66); p <= x {
		t.Fatalf("PCI bulk (%v) not slower than PCI-X (%v)", p, x)
	}
}

func TestDeviceProperties(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	ep := n.NewEndpoint(0)
	if ep.NICProgress() {
		t.Error("VAPI rendezvous is host-driven")
	}
	if ep.AcquireOnEager() {
		t.Error("VAPI eager path copies through pre-registered staging")
	}
	if ep.EagerThreshold() != 2*1024 {
		t.Errorf("eager threshold = %d, want 2KB (the Figure 2 dip)", ep.EagerThreshold())
	}
	if ep.IssueStall() != 0 {
		t.Error("VAPI has no command-queue stall")
	}
	if ep.SendOverhead(4)+ep.RecvOverhead(4) > 2*units.Microsecond {
		t.Error("small-message host overhead above the paper's ~1.7us")
	}
}

func TestMulticastDeliversToAllNodes(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(4)
	cfg.HWMulticast = true
	n := New(eng, cfg)
	ep := n.NewEndpoint(0).(*endpoint)
	if !ep.HWMulticastEnabled() {
		t.Fatal("multicast not enabled")
	}
	got := map[int]bool{}
	ep.Multicast(1024, func(node int) { got[node] = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] {
		t.Fatalf("multicast delivered to %v, want nodes 1-3", got)
	}
}

func TestMulticastDisabledByDefault(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	if n.NewEndpoint(0).(*endpoint).HWMulticastEnabled() {
		t.Fatal("multicast enabled without config")
	}
}

func TestOnDemandConnectTracksPeers(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig(4)
	cfg.OnDemandConnections = true
	n := New(eng, cfg)
	ep := n.NewEndpoint(0).(*endpoint)
	if ep.MemoryUsage(3) != memBase {
		t.Fatalf("unconnected on-demand memory = %d, want base %d", ep.MemoryUsage(3), memBase)
	}
	if ep.connect(1) == 0 {
		t.Fatal("first contact free")
	}
	if ep.connect(1) != 0 {
		t.Fatal("second contact not free")
	}
	if ep.connect(0) != 0 {
		t.Fatal("self-connect should be free")
	}
	if ep.MemoryUsage(3) != memBase+memPerPeer {
		t.Fatalf("one-connection memory = %d", ep.MemoryUsage(3))
	}
}

func TestFatTreeConfigWiring(t *testing.T) {
	eng := sim.New()
	cfg := Config{Config: nic.Config{Nodes: 32, Clos: &fabric.ClosConfig{Levels: 2, Radix: 24, Oversub: 2}}}
	n := New(eng, cfg)
	if err := n.ConfigErr(); err != nil || n.Nodes() != 32 {
		t.Fatalf("fat-tree wiring failed: %v", err)
	}
	// Cross-leaf transfer completes.
	done := false
	n.NewEndpoint(0).Eager(20, 64, 0, func(error) { done = true })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("cross-leaf eager lost")
	}
}

func TestShmemConfigHandshake(t *testing.T) {
	n := New(sim.New(), DefaultConfig(2))
	if _, ch := n.ShmemPolicy(); ch.Handshake <= 0 {
		t.Fatal("no handshake configured")
	}
}
