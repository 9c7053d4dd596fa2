package faults

import (
	"errors"
	"testing"

	"mpinet/internal/units"
)

// TestScaledTimeout pins the watchdog-scaling contract: the paper-scale
// testbed keeps exactly DefaultTimeout (committed outputs must not move),
// and the budget is monotone in both rank count and fabric diameter.
func TestScaledTimeout(t *testing.T) {
	if got := ScaledTimeout(8, 1); got != DefaultTimeout {
		t.Fatalf("ScaledTimeout(8,1) = %v, want DefaultTimeout %v", got, DefaultTimeout)
	}
	if got := ScaledTimeout(2, 1); got != DefaultTimeout {
		t.Fatalf("small worlds must keep the default, got %v", got)
	}
	// Half the default per doubling past 8 ranks.
	if got, want := ScaledTimeout(16, 1), DefaultTimeout+DefaultTimeout/2; got != want {
		t.Fatalf("ScaledTimeout(16,1) = %v, want %v", got, want)
	}
	if got, want := ScaledTimeout(64, 1), DefaultTimeout+3*(DefaultTimeout/2); got != want {
		t.Fatalf("ScaledTimeout(64,1) = %v, want %v", got, want)
	}
	// A quarter per element of diameter past the single crossbar: the
	// 3-level Clos (diameter 5) adds one full default.
	if got, want := ScaledTimeout(8, 5), 2*DefaultTimeout; got != want {
		t.Fatalf("ScaledTimeout(8,5) = %v, want %v", got, want)
	}
	ranks := []int{8, 16, 100, 512, 4096}
	for i := 1; i < len(ranks); i++ {
		if ScaledTimeout(ranks[i], 3) <= ScaledTimeout(ranks[i-1], 3) {
			t.Fatalf("not monotone in ranks at %d", ranks[i])
		}
	}
	for d := 2; d < 8; d++ {
		if ScaledTimeout(512, d) <= ScaledTimeout(512, d-1) {
			t.Fatalf("not monotone in diameter at %d", d)
		}
	}
}

// TestPartitionedErrorChain checks the typed-failure taxonomy: both
// structural failure types unwrap to ErrPartitioned (and not to the
// probabilistic ErrRetryExhausted).
func TestPartitionedErrorChain(t *testing.T) {
	pe := &PartitionError{Src: 0, Dst: 9, Element: "spine plane 1"}
	if !errors.Is(pe, ErrPartitioned) {
		t.Fatal("PartitionError does not unwrap to ErrPartitioned")
	}
	if errors.Is(pe, ErrRetryExhausted) {
		t.Fatal("PartitionError must not claim retry exhaustion")
	}
	nde := &NodeDownError{Node: 5, At: units.Millisecond}
	if !errors.Is(nde, ErrPartitioned) {
		t.Fatal("NodeDownError does not unwrap to ErrPartitioned")
	}
	// The concrete types stay recoverable for layer-specific handling.
	var gotPE *PartitionError
	if !errors.As(error(pe), &gotPE) || gotPE.Element != "spine plane 1" {
		t.Fatal("PartitionError lost through errors.As")
	}
	var gotNDE *NodeDownError
	wrapped := &LinkError{} // unrelated type: As must not match
	if errors.As(error(wrapped), &gotNDE) {
		t.Fatal("errors.As matched a NodeDownError in a LinkError")
	}
}

// TestSwitchKillWindows pins the Dead/Detected life cycle: dead from At,
// visible to routing only after the detection delay, and both end at
// RepairAt (a kill with RepairAt 0 never heals).
func TestSwitchKillWindows(t *testing.T) {
	k := SwitchKill{Level: 1, Index: 2, At: 10 * units.Millisecond, RepairAt: 30 * units.Millisecond}
	d := DefaultDetectDelay
	cases := []struct {
		now            units.Time
		dead, detected bool
	}{
		{0, false, false},
		{10*units.Millisecond - 1, false, false},
		{10 * units.Millisecond, true, false},
		{10*units.Millisecond + d - 1, true, false},
		{10*units.Millisecond + d, true, true},
		{30*units.Millisecond - 1, true, true},
		{30 * units.Millisecond, false, false},
	}
	for _, tc := range cases {
		if got := k.Dead(tc.now); got != tc.dead {
			t.Errorf("Dead(%v) = %v, want %v", tc.now, got, tc.dead)
		}
		if got := k.Detected(tc.now, d); got != tc.detected {
			t.Errorf("Detected(%v) = %v, want %v", tc.now, got, tc.detected)
		}
	}
	forever := SwitchKill{Level: 1, Index: 0, At: units.Millisecond}
	if !forever.Dead(units.Second) || !forever.Detected(units.Second, d) {
		t.Fatal("a kill without RepairAt must stay dead")
	}
}

// TestNodeCrashDarkNIC checks the injector's rendering of a node crash: every
// packet to or from the node is structurally dropped while the NIC is dark,
// traffic resumes at RepairAt, and bystander links never notice.
func TestNodeCrashDarkNIC(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, NodeCrashes: []NodeCrash{
		{Node: 3, At: 10 * units.Millisecond, RepairAt: 20 * units.Millisecond},
	}})
	mid, after := 15*units.Millisecond, 25*units.Millisecond
	for _, link := range [][2]int{{0, 3}, {3, 0}} {
		if v := in.VerdictExtra(link[0], link[1], 0, 0); v != Deliver {
			t.Fatalf("link %v faulted before the crash: %v", link, v)
		}
		if v := in.VerdictExtra(link[0], link[1], mid, 0); v != Drop {
			t.Fatalf("link %v delivered into a dark NIC: %v", link, v)
		}
		if v := in.VerdictExtra(link[0], link[1], after, 0); v != Deliver {
			t.Fatalf("link %v still dark after repair: %v", link, v)
		}
	}
	if v := in.VerdictExtra(0, 1, mid, 0); v != Deliver {
		t.Fatalf("bystander link dropped during the crash: %v", v)
	}
	// NodeDownDetected tracks the detection delay within the dark window;
	// the detection names the node and its crash instant.
	if _, _, ok := in.NodeDownDetected(0, 3, 10*units.Millisecond); ok {
		t.Fatal("crash detected before the detection delay")
	}
	detected := 10*units.Millisecond + DefaultDetectDelay
	for _, pair := range [][2]int{{0, 3}, {3, 0}} {
		node, at, ok := in.NodeDownDetected(pair[0], pair[1], detected)
		if !ok || node != 3 || at != 10*units.Millisecond {
			t.Fatalf("NodeDownDetected%v after the delay = (%d, %v, %v), want node 3 crashed at 10ms", pair, node, at, ok)
		}
	}
	// With both ends dead, the sender's own death is the one reported.
	both := NewInjector(&Plan{NodeCrashes: []NodeCrash{{Node: 1}, {Node: 2, At: units.Millisecond}}})
	if node, at, _ := both.NodeDownDetected(2, 1, units.Second); node != 2 || at != units.Millisecond {
		t.Fatalf("both ends dead: reported node %d crashed at %v, want the sender (node 2, 1ms)", node, at)
	}
	if _, _, ok := in.NodeDownDetected(3, 3, after); ok {
		t.Fatal("crash still detected after the repair")
	}
	if _, _, ok := in.NodeDownDetected(0, 1, mid); ok {
		t.Fatal("wrong node reported dead")
	}
	// Nil-safety: devices without a plan carry a nil injector.
	var nilIn *Injector
	if _, _, ok := nilIn.NodeDownDetected(0, 3, after); ok {
		t.Fatal("nil injector reported a dead node")
	}
}

// TestFlattenElementFaults checks per-rail element-fault scoping: a member
// fabric sees only its own rail's switch kills and linecard degrades,
// re-homed to rail 0, and a solo network (rail 0, rail-0-only entries) gets
// the plan back untouched.
func TestFlattenElementFaults(t *testing.T) {
	p := &Plan{
		Seed: 1,
		SwitchKills: []SwitchKill{
			{Level: 1, Index: 0, Rail: 0, At: units.Millisecond},
			{Level: 1, Index: 1, Rail: 1, At: units.Millisecond},
		},
		LinecardDegrades: []LinecardDegrade{
			{Level: 1, Index: 2, Rail: 1, From: units.Millisecond, Until: 2 * units.Millisecond, Drop: 0.1},
		},
	}
	r0 := p.Flatten(0)
	if len(r0.SwitchKills) != 1 || r0.SwitchKills[0].Index != 0 {
		t.Fatalf("rail 0 kills = %+v, want only index 0", r0.SwitchKills)
	}
	if len(r0.LinecardDegrades) != 0 {
		t.Fatalf("rail 0 saw rail 1's degrades: %+v", r0.LinecardDegrades)
	}
	r1 := p.Flatten(1)
	if len(r1.SwitchKills) != 1 || r1.SwitchKills[0].Index != 1 || r1.SwitchKills[0].Rail != 0 {
		t.Fatalf("rail 1 kills = %+v, want index 1 re-homed to rail 0", r1.SwitchKills)
	}
	if len(r1.LinecardDegrades) != 1 || r1.LinecardDegrades[0].Rail != 0 {
		t.Fatalf("rail 1 degrades = %+v, want index 2 re-homed", r1.LinecardDegrades)
	}
	// A solo plan with only rail-0 entries needs no rewrite at all.
	solo := &Plan{Seed: 1, SwitchKills: []SwitchKill{{Level: 1, Index: 0, At: units.Millisecond}}}
	if got := solo.Flatten(0); got != solo {
		t.Fatal("rail-0-only plan was copied needlessly")
	}
}

// TestHasElementsAndDetectDelay pins the plan-inspection helpers the device
// constructors use to decide whether to arm fabric health.
func TestHasElementsAndDetectDelay(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.HasElements() {
		t.Fatal("nil plan has elements")
	}
	if (&Plan{Seed: 1, Drop: 0.5}).HasElements() {
		t.Fatal("drop-only plan has elements")
	}
	if !(&Plan{SwitchKills: []SwitchKill{{Level: 1}}}).HasElements() {
		t.Fatal("switch kill not recognized")
	}
	if !(&Plan{LinecardDegrades: []LinecardDegrade{{Level: 0}}}).HasElements() {
		t.Fatal("linecard degrade not recognized")
	}
	if got := nilPlan.DetectionDelay(); got != DefaultDetectDelay {
		t.Fatalf("nil plan detect delay = %v", got)
	}
	if got := (&Plan{DetectDelay: 5 * units.Millisecond}).DetectionDelay(); got != 5*units.Millisecond {
		t.Fatalf("explicit detect delay lost: %v", got)
	}
}
