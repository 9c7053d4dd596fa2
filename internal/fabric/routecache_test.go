package fabric

import (
	"fmt"
	"strings"
	"testing"

	"mpinet/internal/faults"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// The route cache must be semantically invisible: within one health epoch a
// deterministic route is a pure function of (source leaf, dst), and every
// fault transition — death, detection, repair, degrade start/end — bumps the
// epoch and forces re-resolution. These tests render the same chaos timeline
// with the cache on (the default) and off (the SetRouteCache debug knob) and
// demand byte-identical route signatures, fates included.

// routeSig renders one Between call into a comparable signature: every stage's
// pipe name and latency, the final-hop latency, and the full fate annotation.
func routeSig(tr *Clos, src, dst int, now sim.Time) string {
	seg := tr.Between(src, dst, now)
	var b strings.Builder
	fmt.Fprintf(&b, "%d->%d:", src, dst)
	for _, st := range seg.Stages {
		name := "?"
		if n, ok := st.Stage.(interface{ Name() string }); ok {
			name = n.Name()
		}
		fmt.Fprintf(&b, " %s@%v", name, st.Latency)
	}
	info := seg.Fate
	fmt.Fprintf(&b, " down=%v state=%d plane=%d elem=%q code=%d drop=%g",
		seg.Down, info.State, seg.Plane, info.Element, info.ElementCode, info.ExtraDrop)
	return b.String()
}

// chaosTimeline runs a SwitchKills+RepairAt+degrade plan on a 32-host Clos
// and samples every probe pair at instants spanning each fault window: before
// the kill, inside the blackhole detect-delay window, after detection, just
// before and after the repair, and inside the degrade window. Returns one
// signature line per (instant, pair).
func chaosTimeline(t *testing.T, routing Routing, cacheOn bool) []string {
	t.Helper()
	const (
		kill   = 1 * units.Millisecond
		detect = 500 * units.Microsecond
		repair = 4 * units.Millisecond
	)
	plan := &faults.Plan{
		Seed: 1,
		SwitchKills: []faults.SwitchKill{
			{Level: 1, Index: 1, At: kill, RepairAt: repair}, // spine plane 1 dies, heals
			{Level: 0, Index: 2, At: 2 * units.Millisecond},  // leaf 2 dies for good
		},
		LinecardDegrades: []faults.LinecardDegrade{
			{Level: 1, Index: 2, From: kill, Until: 3 * units.Millisecond, Drop: 0.05},
		},
		DetectDelay: detect,
	}
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
	tr.SetRouteCache(cacheOn)

	// Probe pairs: cross-leaf routes over every plane, routes into and out of
	// the doomed leaf 2 (hosts 8..11), and same-leaf traffic.
	pairs := [][2]int{
		{0, 4}, {0, 5}, {0, 6}, {0, 7}, // leaf 0 -> leaf 1, all planes
		{0, 9}, {9, 0}, {8, 11}, // into / out of / under the dying leaf
		{0, 1}, {12, 31}, {31, 12},
	}
	instants := []sim.Time{
		0,
		kill - units.Microsecond,
		kill + 100*units.Microsecond, // dead, undetected: blackhole window
		kill + detect,                // detection edge
		kill + detect + 100*units.Microsecond,
		2*units.Millisecond + 100*units.Microsecond, // leaf 2 blackhole window
		3 * units.Millisecond,                       // leaf detected, degrade just ended
		repair - units.Microsecond,
		repair + units.Microsecond, // plane healed, back in the hash
		6 * units.Millisecond,
	}
	var got []string
	for _, at := range instants {
		at := at
		eng.At(at, func() {
			for _, pr := range pairs {
				got = append(got, fmt.Sprintf("%v %s", at, routeSig(tr, pr[0], pr[1], eng.Now())))
			}
			// Sample each pair twice per instant so cache hits inside one
			// epoch are exercised, not just first-resolution misses.
			for _, pr := range pairs {
				got = append(got, fmt.Sprintf("%v bis %s", at, routeSig(tr, pr[0], pr[1], eng.Now())))
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRouteCacheChaosByteIdentical: the full signature stream — paths, fates,
// blackhole windows, repair re-hash, degrade accounting — is byte-identical
// with the cache on and off, under both routing policies (adaptive with
// multiple live planes bypasses the cache; the comparison pins that too).
func TestRouteCacheChaosByteIdentical(t *testing.T) {
	for _, routing := range []Routing{Deterministic, Adaptive} {
		on := chaosTimeline(t, routing, true)
		off := chaosTimeline(t, routing, false)
		if len(on) == 0 || len(on) != len(off) {
			t.Fatalf("%v: %d probes cached vs %d uncached", routing, len(on), len(off))
		}
		for i := range on {
			if on[i] != off[i] {
				t.Fatalf("%v: probe %d diverges with the cache on:\n  on:  %s\n  off: %s",
					routing, i, on[i], off[i])
			}
		}
	}
}

// TestRouteCacheCoversFateWindows sanity-checks that the chaos timeline the
// byte-identity test compares actually crosses every fate: a cached run must
// see OK, Blackhole and Partitioned states, or the comparison proves nothing
// about the detect-delay window.
func TestRouteCacheCoversFateWindows(t *testing.T) {
	sigs := chaosTimeline(t, Deterministic, true)
	joined := strings.Join(sigs, "\n")
	for state, name := range map[RouteState]string{
		RouteOK:          "ok",
		RouteBlackhole:   "blackhole",
		RoutePartitioned: "partitioned",
	} {
		if !strings.Contains(joined, fmt.Sprintf("state=%d", state)) {
			t.Errorf("timeline never renders a %s route; the byte-identity test is not covering it", name)
		}
	}
	// The healed plane must actually return to the hash space: plane 1 routes
	// exist both before the kill and after the repair.
	if !strings.Contains(joined, "plane=1") {
		t.Error("timeline never rides plane 1")
	}
}

// TestRouteCacheHitsZeroAlloc: steady-state deterministic routing on a
// healthy fabric serves cached stage slices with no per-call allocation —
// the per-message []PathStage construction the cache exists to eliminate.
func TestRouteCacheHitsZeroAlloc(t *testing.T) {
	tr, err := NewClos("c", closCfg(3, 8, 1, Deterministic), 64)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every probed route once (first resolution allocates the row and
	// the stage slice).
	for dst := 0; dst < 64; dst++ {
		tr.Between(0, dst, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for dst := 0; dst < 64; dst++ {
			tr.Between(0, dst, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("warm deterministic Between allocated %.1f times per sweep, want 0", allocs)
	}
}
