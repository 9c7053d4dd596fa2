package fabric

import (
	"testing"

	"mpinet/internal/faults"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// probe records the fate of one Between call: which plane the route rode and
// how the health layer classified it.
type probe struct {
	state RouteState
	plane int
	elem  string
}

// armedClos builds a 32-host 2-level Clos (8 leaves x 4 hosts, 4 up-link
// planes) with the plan's element faults armed on a fresh engine.
func armedClos(t *testing.T, routing Routing, plan *faults.Plan) (*Clos, *sim.Engine) {
	t.Helper()
	cfg := closCfg(2, 8, 1, routing)
	cfg.Seed = 7
	tr, err := NewClos("c", cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	if err := tr.SetElementFaults(plan); err != nil {
		t.Fatal(err)
	}
	return tr, eng
}

// routeAt schedules a batch of Between(0, dst) probes at the given instant
// and appends their fates to out.
func routeAt(eng *sim.Engine, tr *Clos, at sim.Time, dsts []int, out *[]probe) {
	eng.At(at, func() {
		for _, dst := range dsts {
			seg := between(tr, 0, dst, eng.Now())
			*out = append(*out, probe{seg.Fate.State, seg.Plane, seg.Fate.Element})
		}
	})
}

// TestClosSpineKillRehash walks one spine-plane kill through its whole life
// cycle: healthy routing before the kill, black-holing during the detection
// window, deterministic ECMP re-hash around the dead plane after detection,
// and the healthy hash again after repair — and checks the whole sequence is
// identical across two independently built instances.
func TestClosSpineKillRehash(t *testing.T) {
	const (
		kill   = 1 * units.Millisecond // plane 1 dies
		repair = 5 * units.Millisecond
	)
	plan := &faults.Plan{Seed: 1, SwitchKills: []faults.SwitchKill{
		{Level: 1, Index: 1, At: kill, RepairAt: repair},
	}}
	dsts := []int{4, 5, 6, 7} // leaf 1: healthy hash covers planes 0..3
	run := func() []probe {
		tr, eng := armedClos(t, Deterministic, plan)
		var got []probe
		for _, at := range []sim.Time{0, 1500 * units.Microsecond, 2500 * units.Microsecond, 6 * units.Millisecond} {
			routeAt(eng, tr, at, dsts, &got)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := run()
	if len(got) != 16 {
		t.Fatalf("got %d probes, want 16", len(got))
	}
	healthy, undetected, detected, repaired := got[0:4], got[4:8], got[8:12], got[12:16]
	// Before the kill: all planes live, healthy dst%4 hash.
	for i, p := range healthy {
		if p.state != RouteOK || p.plane != i {
			t.Fatalf("healthy probe to %d: state %v plane %d, want OK plane %d", dsts[i], p.state, p.plane, i)
		}
	}
	// Dead but undetected: the hash still selects plane 1 and that one route
	// black-holes, naming the plane; the others are untouched.
	for i, p := range undetected {
		if i == 1 {
			if p.state != RouteBlackhole || p.plane != 1 || p.elem != "spine plane 1" {
				t.Fatalf("undetected probe: %+v, want blackhole on spine plane 1", p)
			}
			continue
		}
		if p.state != RouteOK || p.plane != i {
			t.Fatalf("undetected probe to %d perturbed: %+v", dsts[i], p)
		}
	}
	// Detected: plane 1 leaves the hash space; every route is live and none
	// rides the dead plane.
	for i, p := range detected {
		if p.state != RouteOK {
			t.Fatalf("post-detection probe to %d: state %v, want OK", dsts[i], p.state)
		}
		if p.plane == 1 {
			t.Fatalf("post-detection probe to %d re-hashed onto the dead plane", dsts[i])
		}
	}
	// Repaired: the healthy hash is back, plane 1 included.
	for i, p := range repaired {
		if p.state != RouteOK || p.plane != i {
			t.Fatalf("post-repair probe to %d: %+v, want OK plane %d", dsts[i], p, i)
		}
	}
	// Determinism: an independently built, identically armed instance renders
	// the exact same fate sequence.
	again := run()
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("re-hash not deterministic: probe %d was %+v, replay %+v", i, got[i], again[i])
		}
	}
}

// TestClosAllPlanesDeadPartition kills every up-link plane: once detected,
// cross-leaf routes are Partitioned (typed, no retry burn), while same-leaf
// traffic — which never climbs — stays alive.
func TestClosAllPlanesDeadPartition(t *testing.T) {
	plan := &faults.Plan{Seed: 1}
	for i := 0; i < 4; i++ {
		plan.SwitchKills = append(plan.SwitchKills, faults.SwitchKill{Level: 1, Index: i, At: units.Millisecond})
	}
	tr, eng := armedClos(t, Deterministic, plan)
	eng.At(3*units.Millisecond, func() {
		seg := between(tr, 0, 5, eng.Now())
		stages, info := seg.Stages, seg.Fate
		if info.State != RoutePartitioned {
			t.Errorf("all planes dead: state %v, want partitioned", info.State)
		}
		if info.Element != "spine plane 0" {
			t.Errorf("partition blamed %q, want spine plane 0", info.Element)
		}
		if len(stages) != 2 {
			t.Errorf("partitioned route not well-formed: %d stages", len(stages))
		}
		// Same-leaf traffic does not ride the spine and survives.
		if got := between(tr, 0, 1, eng.Now()).Fate; got.State != RouteOK {
			t.Errorf("same-leaf route died with the spines: %+v", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClosLeafKillPartition kills a leaf element: routes to its hosts
// black-hole during the detection window and partition after, naming the
// leaf; routes between other leaves are untouched.
func TestClosLeafKillPartition(t *testing.T) {
	plan := &faults.Plan{Seed: 1, SwitchKills: []faults.SwitchKill{
		{Level: 0, Index: 1, At: units.Millisecond},
	}}
	tr, eng := armedClos(t, Deterministic, plan)
	eng.At(1500*units.Microsecond, func() {
		// host 5 lives under leaf 1
		if got := between(tr, 0, 5, eng.Now()).Fate; got.State != RouteBlackhole || got.Element != "leaf 1" {
			t.Errorf("undetected leaf death: %+v, want blackhole on leaf 1", got)
		}
	})
	eng.At(2500*units.Microsecond, func() {
		if got := between(tr, 0, 5, eng.Now()).Fate; got.State != RoutePartitioned || got.Element != "leaf 1" {
			t.Errorf("detected leaf death: %+v, want partitioned on leaf 1", got)
		}
		// Same-leaf traffic under the dead leaf is gone too.
		if got := between(tr, 4, 5, eng.Now()).Fate; got.State != RoutePartitioned {
			t.Errorf("same-leaf route under dead leaf: %+v, want partitioned", got)
		}
		// Leaves 0 and 2 route around the corpse unperturbed.
		if got := between(tr, 0, 8, eng.Now()).Fate; got.State != RouteOK {
			t.Errorf("bystander route 0->8: %+v, want OK", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClosLinecardDegradeExtraDrop checks degrade attribution: only routes
// riding the degraded element, only inside the window, and leaf + plane
// degrades compose additively.
func TestClosLinecardDegradeExtraDrop(t *testing.T) {
	plan := &faults.Plan{Seed: 1, LinecardDegrades: []faults.LinecardDegrade{
		{Level: 1, Index: 2, From: units.Millisecond, Until: 2 * units.Millisecond, Drop: 0.05},
		{Level: 0, Index: 0, From: units.Millisecond, Until: 2 * units.Millisecond, Drop: 0.01},
	}}
	tr, eng := armedClos(t, Deterministic, plan)
	extra := func(src, dst int) float64 {
		return between(tr, src, dst, eng.Now()).Fate.ExtraDrop
	}
	eng.At(500*units.Microsecond, func() {
		if got := extra(0, 6); got != 0 {
			t.Errorf("extra drop before the window: %v", got)
		}
	})
	eng.At(1500*units.Microsecond, func() {
		// 0->6 rides plane 2 (6%4) and starts at leaf 0: both degrades apply
		// additively (compare with a float tolerance — the sum accumulates).
		if got := extra(0, 6); got < 0.0599 || got > 0.0601 {
			t.Errorf("plane+leaf degrade = %v, want ~0.06", got)
		}
		// 4->9 rides plane 1 and touches neither degraded element... except
		// leaf degrades apply to endpoint leaves only: leaf 1 -> leaf 2 clean.
		if got := extra(4, 9); got != 0 {
			t.Errorf("clean route saw extra drop %v", got)
		}
		// Same-leaf traffic under the degraded leaf pays the leaf rate.
		if got := extra(0, 1); got != 0.01 {
			t.Errorf("same-leaf degrade = %v, want 0.01", got)
		}
	})
	eng.At(2500*units.Microsecond, func() {
		if got := extra(0, 6); got != 0 {
			t.Errorf("extra drop after the window: %v", got)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestClosAdaptiveAvoidsDeadPlanes checks the adaptive policy under faults:
// after detection no route scans the dead plane, and two identically armed
// instances replay the same picks (the restricted candidate set draws from
// the same seeded counters).
func TestClosAdaptiveAvoidsDeadPlanes(t *testing.T) {
	plan := &faults.Plan{Seed: 1, SwitchKills: []faults.SwitchKill{
		{Level: 1, Index: 0, At: units.Millisecond},
	}}
	run := func() []probe {
		tr, eng := armedClos(t, Adaptive, plan)
		var got []probe
		eng.At(3*units.Millisecond, func() {
			for i := 0; i < 64; i++ {
				src := (i * 3) % tr.Nodes()
				dst := (i*7 + 11) % tr.Nodes()
				if tr.LeafOf(src) == tr.LeafOf(dst) {
					continue
				}
				seg := between(tr, src, dst, eng.Now())
				got = append(got, probe{seg.Fate.State, seg.Plane, seg.Fate.Element})
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a := run()
	if len(a) == 0 {
		t.Fatal("no cross-leaf routes exercised")
	}
	for i, p := range a {
		if p.state != RouteOK {
			t.Fatalf("adaptive probe %d not OK: %+v", i, p)
		}
		if p.plane == 0 {
			t.Fatalf("adaptive probe %d scanned the dead plane", i)
		}
	}
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("adaptive fault replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSetElementFaultsValidation rejects kills naming elements the fabric
// does not have.
func TestSetElementFaultsValidation(t *testing.T) {
	tr, err := NewClos("c", closCfg(2, 8, 1, Deterministic), 32)
	if err != nil {
		t.Fatal(err)
	}
	bad := []*faults.Plan{
		{Seed: 1, SwitchKills: []faults.SwitchKill{{Level: 2, Index: 0, At: 1}}},  // no tier 2
		{Seed: 1, SwitchKills: []faults.SwitchKill{{Level: 0, Index: 8, At: 1}}},  // 8 leaves: 0..7
		{Seed: 1, SwitchKills: []faults.SwitchKill{{Level: 0, Index: -1, At: 1}}}, // negative leaf
	}
	for i, p := range bad {
		if err := tr.SetElementFaults(p); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p.SwitchKills[0])
		}
	}
	// A plan without element faults arms nothing and is fine.
	if err := tr.SetElementFaults(&faults.Plan{Seed: 1, Drop: 0.1}); err != nil {
		t.Fatalf("element-free plan rejected: %v", err)
	}
	if got := between(tr, 0, 5, 0).Fate; got != (RouteInfo{}) {
		t.Fatalf("unarmed topology reported fate %+v, want the zero RouteInfo", got)
	}
}

// TestClosDiameter pins the diameter formula the scaled watchdog consumes.
func TestClosDiameter(t *testing.T) {
	for _, tc := range []struct{ levels, want int }{{2, 3}, {3, 5}, {4, 7}} {
		tr, err := NewClos("c", closCfg(tc.levels, 8, 1, Deterministic), 16)
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.Diameter(); got != tc.want {
			t.Errorf("Diameter(levels=%d) = %d, want %d", tc.levels, got, tc.want)
		}
		if got := Topology(tr).Diameter(); got != tc.want {
			t.Errorf("Topology.Diameter(levels=%d) = %d, want %d", tc.levels, got, tc.want)
		}
	}
}
