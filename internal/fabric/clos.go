package fabric

import (
	"fmt"

	"mpinet/internal/metrics"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Routing selects the path-selection policy of a multi-stage fabric.
type Routing int

const (
	// Deterministic is ECMP by destination: a given (src, dst) pair always
	// takes the same up-link, as a real forwarding table would route it.
	Deterministic Routing = iota
	// Adaptive is dispersive source routing à la Myrinet/Quadrics: each
	// message picks the least-loaded up-link of its source leaf, breaking
	// ties with a seeded counter PRNG so replay is a pure function of the
	// seed.
	Adaptive
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	if r == Adaptive {
		return "adaptive"
	}
	return "deterministic"
}

// ClosConfig describes a folded-Clos (fat-tree) fabric built from uniform
// radix-port crossbar elements. Hosts attach to leaf elements; each leaf
// splits its ports between hosts and up-links according to the
// oversubscription ratio, and Levels switching levels stack above.
//
// Leaf-level links are the only stateful (contended) resources: at the
// scales this fabric targets, upper levels have the aggregate capacity of
// the leaf tier or more, so they are modelled as pure latency. This keeps
// per-fabric state at O(leaves · uplinks) pipes — memory-lean at thousands
// of hosts — while preserving exactly the bottlenecks the oversubscription
// ratio creates (leaf up-link contention outbound, leaf down-link incast
// inbound).
type ClosConfig struct {
	// Levels is the number of switching levels; 2 is the classic
	// leaf-spine fat tree.
	Levels int
	// Radix is the port count of each switching element.
	Radix int
	// Oversub is the leaf oversubscription ratio N in N:1 — hosts per leaf
	// to up-links per leaf. 1 is full bisection. Radix must divide evenly
	// into Oversub+1 shares.
	Oversub int
	// Routing selects Deterministic ECMP or Adaptive dispersive routing.
	Routing Routing
	// Seed drives the adaptive policy's tie-break PRNG.
	Seed uint64
	// LinkRate is the inter-switch link bandwidth per direction.
	LinkRate units.BytesPerSecond
	// Crossing is the per-element cut-through latency.
	Crossing sim.Time
	// WireLatency is the per-hop cable flight time.
	WireLatency sim.Time
}

// HostsPerLeaf is the number of host ports each leaf element offers:
// Radix·Oversub/(Oversub+1).
func (c ClosConfig) HostsPerLeaf() int { return c.Radix * c.Oversub / (c.Oversub + 1) }

// Uplinks is the number of up-links each leaf element offers:
// Radix/(Oversub+1).
func (c ClosConfig) Uplinks() int { return c.Radix / (c.Oversub + 1) }

// MaxHosts is the host capacity of the topology: the leaf count is bounded
// by the upper levels' fan-out (Radix leaves under a 2-level spine tier, a
// further ×Radix/2 per extra level).
func (c ClosConfig) MaxHosts() int {
	maxLeaves := c.Radix
	for l := 2; l < c.Levels; l++ {
		maxLeaves *= c.Radix / 2
	}
	return maxLeaves * c.HostsPerLeaf()
}

// Validate checks the dimension constraints; it reports a descriptive error
// naming the offending combination, for surfacing through the cluster
// layer's ConfigError.
func (c ClosConfig) Validate() error {
	if c.Levels < 2 {
		return fmt.Errorf("Clos needs at least 2 levels, got %d", c.Levels)
	}
	if c.Levels > 4 {
		return fmt.Errorf("Clos with %d levels exceeds the supported 4", c.Levels)
	}
	if c.Radix < 2 {
		return fmt.Errorf("radix %d is too small (need >= 2 ports)", c.Radix)
	}
	if c.Oversub < 1 {
		return fmt.Errorf("oversubscription ratio %d:1 is invalid (need >= 1)", c.Oversub)
	}
	if c.Radix%(c.Oversub+1) != 0 {
		return fmt.Errorf("radix %d does not split into %d:1 oversubscription (must divide by %d)",
			c.Radix, c.Oversub, c.Oversub+1)
	}
	if c.HostsPerLeaf() < 1 || c.Uplinks() < 1 {
		return fmt.Errorf("radix %d with %d:1 oversubscription leaves no usable ports", c.Radix, c.Oversub)
	}
	return nil
}

// Clos is a wired multi-stage fabric. Only leaf-tier links hold state; the
// podSpan geometry maps leaf pairs to the level their routes meet at, which
// sets the pure-latency climb above the leaf tier.
type Clos struct {
	cfg          ClosConfig
	leaves       int
	hostsPerLeaf int
	uplinks      int
	// up[l][u] is leaf l's up-link u; down[l][u] the matching return link.
	up   [][]*sim.Pipe
	down [][]*sim.Pipe
	// adaptive-routing state, all leaf-local: one dispersion counter per
	// leaf, consumed with the config seed by a counter PRNG.
	counter []uint64
	// scratch holds two plane buffers per leaf — route's routable set and
	// the adaptive policy's tie set (leafScratch) — so per-message
	// plane selection allocates nothing. Like the counters, a leaf's
	// buffers are written only under that leaf.
	scratch []int
	// pairs memoizes the cross-leaf stage pair of a route:
	// pairs[sl][dl*uplinks+u] holds the up-link and down-link stages from
	// leaf sl to leaf dl over plane u. The pair is a pure function of those
	// three, so every message's route returns a shared slice instead of
	// building one. It is the fabric's one route memo.
	// Tables fill lazily with the leaf pairs traffic actually joins and are
	// written only under their source leaf.
	pairs []map[int][]PathStage
	// health holds the fault plan's element faults (health.go), none on a
	// healthy fabric: route steers around detected element deaths and
	// resolves each route with its fate.
	health elementHealth
}

// NewClos wires a Clos fabric with capacity for at least nodes hosts. The
// configuration must Validate; capacity overflow returns an error naming
// the limit.
func NewClos(name string, cfg ClosConfig, nodes int) (*Clos, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LinkRate <= 0 {
		return nil, fmt.Errorf("Clos needs a positive link rate")
	}
	hpl := cfg.HostsPerLeaf()
	leaves := (nodes + hpl - 1) / hpl
	if leaves < 2 {
		leaves = 2
	}
	if max := cfg.MaxHosts(); leaves*hpl > max {
		return nil, fmt.Errorf("%d nodes exceed the %d-host capacity of a %d-level radix-%d %d:1 Clos",
			nodes, max, cfg.Levels, cfg.Radix, cfg.Oversub)
	}
	t := &Clos{
		cfg:          cfg,
		leaves:       leaves,
		hostsPerLeaf: hpl,
		uplinks:      cfg.Uplinks(),
		counter:      make([]uint64, leaves),
		scratch:      make([]int, 2*leaves*cfg.Uplinks()),
		pairs:        make([]map[int][]PathStage, leaves),
	}
	t.up = make([][]*sim.Pipe, leaves)
	t.down = make([][]*sim.Pipe, leaves)
	for l := 0; l < leaves; l++ {
		t.up[l] = make([]*sim.Pipe, t.uplinks)
		t.down[l] = make([]*sim.Pipe, t.uplinks)
		for u := 0; u < t.uplinks; u++ {
			t.up[l][u] = sim.NewPipe(fmt.Sprintf("%s/leaf%d-up%d", name, l, u), cfg.LinkRate, 0, 0)
			t.down[l][u] = sim.NewPipe(fmt.Sprintf("%s/leaf%d-down%d", name, l, u), cfg.LinkRate, 0, 0)
		}
	}
	return t, nil
}

// LeafOf returns the leaf element a node attaches to.
func (t *Clos) LeafOf(node int) int { return node / t.hostsPerLeaf }

// climbs reports how many levels a route between two leaves ascends before
// turning down: 1 when one spine tier connects them, more when they sit in
// different pods of a deeper fabric.
func (t *Clos) climbs(sl, dl int) int {
	span := t.cfg.Radix // leaves reachable through the first spine tier
	for lvl := 1; lvl < t.cfg.Levels; lvl++ {
		if sl/span == dl/span {
			return lvl
		}
		span *= t.cfg.Radix / 2
	}
	return t.cfg.Levels - 1
}

// leafScratch returns leaf l's two plane buffers, empty: routable for
// route's surviving planes and best for the adaptive policy's ties.
func (t *Clos) leafScratch(l int) (routable, best []int) {
	s := t.scratch[2*l*t.uplinks : 2*(l+1)*t.uplinks]
	return s[:0:t.uplinks], s[t.uplinks:t.uplinks]
}

// stagePair returns the memoized stages of a cross-leaf route from leaf sl
// to leaf dl over plane u: the source leaf's up-link, then the
// destination leaf's matching down-link, each carrying the pure-latency
// climb over the upper levels. Callers share the slice and must not modify
// it.
func (t *Clos) stagePair(sl, dl, u int) []PathStage {
	key := dl*t.uplinks + u
	if p, ok := t.pairs[sl][key]; ok {
		return p
	}
	if t.pairs[sl] == nil {
		t.pairs[sl] = make(map[int][]PathStage)
	}
	climb := sim.Time(t.climbs(sl, dl)) * (t.cfg.Crossing + t.cfg.WireLatency)
	p := []PathStage{
		{Stage: t.up[sl][u], Latency: climb},
		{Stage: t.down[dl][u], Latency: climb},
	}
	t.pairs[sl][key] = p
	return p
}

// Between implements Topology: same-leaf traffic crosses one element;
// cross-leaf traffic takes its leaf up-link, the pure-latency climb over
// the upper levels, and the destination leaf's matching down-link. The
// last crossing (destination leaf onto the host link) rides the down-link
// latency. Every message is routed afresh by route (health.go), healthy or
// not; its stages come from the stage-pair memo, so no route allocates
// once warm.
func (t *Clos) Between(src, dst int, now sim.Time, seg *Segment) {
	t.route(seg, dst, t.LeafOf(src), t.LeafOf(dst), now)
}

// Instrument registers every leaf-tier link's byte volume, occupancy and
// contention time under fabric/<link-name>/... — per-link counters are what
// make up-link imbalance and incast hot spots visible.
func (t *Clos) Instrument(m *metrics.Registry) {
	if m == nil {
		return
	}
	for l := range t.up {
		for u := range t.up[l] {
			for _, p := range []*sim.Pipe{t.up[l][u], t.down[l][u]} {
				p.Instrument(m, "fabric/"+p.Name())
				p.RecordSpans(m, metrics.FabricNode, "fwd", "fabric")
			}
		}
	}
}
