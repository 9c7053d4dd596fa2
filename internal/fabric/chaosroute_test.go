package fabric

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"mpinet/internal/faults"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// A Clos route is a pure function of its endpoints, the fault plan and
// the send instant (and, under adaptive routing, of queue depths and the
// leaf's dispersion counter). These tests render one chaos timeline —
// death, detection edge, repair, degrade start and end — and pin every
// route's stages and fate, under both routing policies, to a golden stream.

// routeSig renders one Between call into a comparable signature: every stage's
// pipe name and latency, the final-hop latency, and the full fate annotation.
func routeSig(tr *Clos, src, dst int, now sim.Time) string {
	seg := between(tr, src, dst, now)
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
func chaosTimeline(t *testing.T, routing Routing) []string {
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
			// Sample each pair twice per instant: a second adaptive pick at
			// the same instant draws on from the leaf's counter.
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

// TestChaosRoutesMatchGolden: the full signature stream — paths, fates,
// blackhole windows, repair re-hash, degrade accounting — under both
// routing policies equals testdata/chaos_routes.golden, one line per probe
// prefixed with the policy.
func TestChaosRoutesMatchGolden(t *testing.T) {
	var b strings.Builder
	for _, routing := range []Routing{Deterministic, Adaptive} {
		for _, line := range chaosTimeline(t, routing) {
			fmt.Fprintf(&b, "%v %s\n", routing, line)
		}
	}
	want, err := os.ReadFile("testdata/chaos_routes.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() == string(want) {
		return
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("probe %d diverges from the golden stream:\n  got:  %s\n  want: %s", i, got[i], wantLines[i])
		}
	}
	t.Fatalf("%d probe lines, golden has %d", len(got), len(wantLines))
}

// TestChaosRoutesCoverFateWindows sanity-checks that the chaos timeline the
// golden test pins actually crosses every fate: it must see OK, Blackhole
// and Partitioned states, or the golden stream proves nothing about the
// detect-delay window.
func TestChaosRoutesCoverFateWindows(t *testing.T) {
	sigs := chaosTimeline(t, Deterministic)
	joined := strings.Join(sigs, "\n")
	for state, name := range map[RouteState]string{
		RouteOK:          "ok",
		RouteBlackhole:   "blackhole",
		RoutePartitioned: "partitioned",
	} {
		if !strings.Contains(joined, fmt.Sprintf("state=%d", state)) {
			t.Errorf("timeline never renders a %s route; the golden test is not covering it", name)
		}
	}
	// The healed plane must actually return to the hash space: plane 1 routes
	// exist both before the kill and after the repair.
	if !strings.Contains(joined, "plane=1") {
		t.Error("timeline never rides plane 1")
	}
}

// TestClosWarmRouteZeroAlloc: once every probed route has been resolved,
// routing on a healthy fabric allocates nothing per message under either
// policy — the stages come from the stage-pair memo and plane selection
// runs in the leaf's scratch.
func TestClosWarmRouteZeroAlloc(t *testing.T) {
	for _, routing := range []Routing{Deterministic, Adaptive} {
		tr, err := NewClos("c", closCfg(3, 8, 1, routing), 64)
		if err != nil {
			t.Fatal(err)
		}
		// Warm every probed route once (first resolution allocates the
		// leaf pair's memo row and its stage slice).
		for dst := 0; dst < 64; dst++ {
			between(tr, 0, dst, 0)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for dst := 0; dst < 64; dst++ {
				between(tr, 0, dst, 0)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: warm Between allocated %.1f times per sweep, want 0", routing, allocs)
		}
	}
}
