package fabric

import (
	"testing"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func closCfg(levels, radix, oversub int, routing Routing) ClosConfig {
	return ClosConfig{
		Levels:      levels,
		Radix:       radix,
		Oversub:     oversub,
		Routing:     routing,
		LinkRate:    units.MBps(800),
		Crossing:    200 * units.Nanosecond,
		WireLatency: 100 * units.Nanosecond,
	}
}

func TestClosGeometry(t *testing.T) {
	// The paper-era building block: 24-port elements, 2:1 oversubscribed.
	c := closCfg(2, 24, 2, Deterministic)
	if got := c.HostsPerLeaf(); got != 16 {
		t.Fatalf("hosts/leaf = %d, want 16", got)
	}
	if got := c.Uplinks(); got != 8 {
		t.Fatalf("uplinks = %d, want 8", got)
	}
	if got := c.MaxHosts(); got != 384 {
		t.Fatalf("2-level capacity = %d, want 384", got)
	}
	if got := closCfg(3, 24, 2, Deterministic).MaxHosts(); got != 4608 {
		t.Fatalf("3-level capacity = %d, want 4608", got)
	}
}

func TestClosValidation(t *testing.T) {
	bad := []ClosConfig{
		closCfg(1, 24, 2, Deterministic),  // too few levels
		closCfg(5, 24, 2, Deterministic),  // too many levels
		closCfg(2, 1, 1, Deterministic),   // radix too small
		closCfg(2, 24, 0, Deterministic),  // oversub < 1
		closCfg(2, 25, 2, Deterministic),  // 25 ports don't split 2:1
		closCfg(2, 24, -1, Deterministic), // negative oversub
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted an invalid config", c)
		}
	}
	if err := closCfg(3, 8, 3, Adaptive).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestClosCapacityError(t *testing.T) {
	if _, err := NewClos("c", closCfg(2, 24, 2, Deterministic), 385); err == nil {
		t.Fatal("385 hosts fit a 384-host fabric")
	}
	if _, err := NewClos("c", closCfg(3, 24, 2, Deterministic), 1024); err != nil {
		t.Fatalf("1024 hosts rejected by a 4608-host fabric: %v", err)
	}
}

func TestClosLegacyFatTreeShape(t *testing.T) {
	// FatTree(24, 2) is 16 hosts and 8 up-links per leaf: same-leaf routes
	// cross one element, cross-leaf routes three.
	tr, err := NewClos("c", closCfg(2, 24, 2, Deterministic), 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.HostsPerLeaf() != 16 || tr.leaves != 4 || tr.Nodes() != 64 {
		t.Fatalf("geometry = %d hosts/leaf x %d leaves", tr.HostsPerLeaf(), tr.leaves)
	}
	if tr.Hops(0, 1) != 1 {
		t.Fatalf("same-leaf hops = %d, want 1", tr.Hops(0, 1))
	}
	if tr.Hops(0, 17) != 3 {
		t.Fatalf("cross-leaf hops = %d, want 3", tr.Hops(0, 17))
	}
	if stages := between(tr, 0, 1, 0).Stages; len(stages) != 0 {
		t.Fatal("same-leaf route must not touch up-links")
	}
	if stages := between(tr, 0, 17, 0).Stages; len(stages) != 2 {
		t.Fatal("cross-leaf route must take up-link + down-link")
	}
}

func TestClosDeterministicECMP(t *testing.T) {
	build := func() *Clos {
		tr, err := NewClos("c", closCfg(2, 8, 1, Deterministic), 32)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := build(), build()
	// Same route, any call order, any instance: the same up-link index.
	for _, dst := range []int{8, 9, 10, 20, 30} {
		pa := between(a, 0, dst, 0).Stages
		pb := between(b, 0, dst, 0).Stages
		// Interleave unrelated routing decisions on b only; determinism
		// means they cannot perturb the route choice.
		between(b, dst, 0, 0)
		between(b, 1, dst, 0)
		pb2 := between(b, 0, dst, 0).Stages
		if pa[0].Stage != pb[0].Stage && pa[0].Stage.(*sim.Pipe).Name() != pb[0].Stage.(*sim.Pipe).Name() || pb[0].Stage != pb2[0].Stage {
			t.Fatalf("route 0->%d not deterministic", dst)
		}
	}
	// Destinations on one remote leaf spread across up-links.
	p8 := between(a, 0, 8, 0).Stages
	p9 := between(a, 0, 9, 0).Stages
	if p8[0].Stage == p9[0].Stage {
		t.Fatal("ECMP did not spread destinations")
	}
}

func TestClosAdaptiveReplay(t *testing.T) {
	cfg := closCfg(2, 8, 1, Adaptive)
	cfg.Seed = 42
	route := func(tr *Clos, n int) []string {
		var picks []string
		for i := 0; i < n; i++ {
			src := (i * 3) % tr.Nodes()
			dst := (i*7 + 11) % tr.Nodes()
			if tr.LeafOf(src) == tr.LeafOf(dst) {
				continue
			}
			p := between(tr, src, dst, 0).Stages
			picks = append(picks, p[0].Stage.(*sim.Pipe).Name())
		}
		return picks
	}
	a, err := NewClos("c", cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewClos("c", cfg, 32)
	pa, pb := route(a, 64), route(b, 64)
	if len(pa) == 0 {
		t.Fatal("no cross-leaf routes exercised")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("adaptive replay diverged at call %d: %s vs %s", i, pa[i], pb[i])
		}
	}
	// A different seed disperses differently (8 up-links, 64 draws: a
	// collision of the whole sequence is astronomically unlikely).
	cfg2 := cfg
	cfg2.Seed = 43
	c, _ := NewClos("c", cfg2, 32)
	pc := route(c, 64)
	same := true
	for i := range pa {
		if pa[i] != pc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed does not influence adaptive dispersion")
	}
}

// TestClosConservationAtScale drives hundreds of transfers across a
// 1024-host 3-level Clos and checks flow conservation: every payload is
// delivered exactly once, never before its serialization bound, and leaf
// state stays bounded by the leaf tier (the memory-lean invariant).
func TestClosConservationAtScale(t *testing.T) {
	tr, err := NewClos("c", closCfg(3, 24, 2, Deterministic), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Nodes() < 1024 {
		t.Fatalf("fabric wired only %d hosts", tr.Nodes())
	}
	e := sim.New()
	const size = 64 << 10
	sent, delivered := 0, 0
	var bytes int64
	rng := sim.NewRNG(7)
	for i := 0; i < 400; i++ {
		src := rng.Intn(tr.Nodes())
		dst := rng.Intn(tr.Nodes())
		if src == dst {
			continue
		}
		seg := between(tr, src, dst, 0)
		sent++
		done := func(at sim.Time) {
			delivered++
			bytes += size
		}
		if len(seg.Stages) == 0 {
			// Same-leaf: one element crossing, no shared links.
			e.Schedule(seg.Down, func() { done(e.Now()) })
			continue
		}
		// The segment's stages are shared with the route memo: extend a copy.
		stages := append([]PathStage(nil), seg.Stages...)
		stages[len(stages)-1].Latency += seg.Down
		Transfer(e, &Route{Head: stages}, size, ChunkFor(size), 0, done)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != sent {
		t.Fatalf("delivered %d of %d transfers", delivered, sent)
	}
	if bytes != int64(sent)*size {
		t.Fatalf("byte conservation violated: %d delivered, want %d", bytes, int64(sent)*size)
	}
}

// TestRoutingNames pins the routing policies' report names.
func TestRoutingNames(t *testing.T) {
	if Deterministic.String() != "deterministic" || Adaptive.String() != "adaptive" {
		t.Fatalf("routing names = %q, %q", Deterministic, Adaptive)
	}
}
