package faults

import (
	"errors"
	"math"
	"testing"

	"mpinet/internal/metrics"
	"mpinet/internal/units"
)

// The counter PRNG must be a pure function of (seed, stream, counter):
// replaying the same packet sequence in any order gives the same verdicts.
func TestVerdictReplayIsOrderIndependent(t *testing.T) {
	plan := &Plan{Seed: 42, Drop: 0.2, Corrupt: 0.1}
	type pkt struct{ src, dst int }
	forward := []pkt{{0, 1}, {0, 1}, {1, 0}, {0, 2}, {0, 1}, {2, 0}, {1, 0}}

	a := NewInjector(plan)
	got := make(map[pkt][]Verdict)
	for _, p := range forward {
		got[p] = append(got[p], a.VerdictExtra(p.src, p.dst, 0, 0))
	}

	// Replay with links interleaved differently: per-link sequences must
	// be identical because each link owns an independent counter stream.
	b := NewInjector(plan)
	regot := make(map[pkt][]Verdict)
	perLink := map[pkt]int{}
	for _, p := range forward {
		perLink[p]++
	}
	for p, n := range map[pkt]int{{0, 1}: perLink[pkt{0, 1}], {1, 0}: perLink[pkt{1, 0}], {0, 2}: perLink[pkt{0, 2}], {2, 0}: perLink[pkt{2, 0}]} {
		for i := 0; i < n; i++ {
			regot[p] = append(regot[p], b.VerdictExtra(p.src, p.dst, 0, 0))
		}
	}
	for p, vs := range got {
		for i, v := range vs {
			if regot[p][i] != v {
				t.Fatalf("link %v packet %d: verdict %v, replayed %v", p, i, v, regot[p][i])
			}
		}
	}
}

func TestDropRateConverges(t *testing.T) {
	const want = 0.05
	in := NewInjector(DropPlan(7, want))
	const n = 200000
	drops := 0
	for i := 0; i < n; i++ {
		if in.VerdictExtra(0, 1, 0, 0) == Drop {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("drop rate %.4f, want %.2f +/- 0.005", got, want)
	}
}

func TestSeedChangesSequence(t *testing.T) {
	a, b := NewInjector(DropPlan(1, 0.5)), NewInjector(DropPlan(2, 0.5))
	same := true
	for i := 0; i < 64; i++ {
		if a.VerdictExtra(0, 1, 0, 0) != b.VerdictExtra(0, 1, 0, 0) {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 64-packet verdict sequences")
	}
}

func TestFlapWindowDropsEverything(t *testing.T) {
	in := NewInjector(&Plan{Seed: 3, Flaps: []Flap{
		{Src: 0, Dst: Wildcard, From: 10 * units.Microsecond, Until: 20 * units.Microsecond},
	}})
	if v := in.VerdictExtra(0, 1, 5*units.Microsecond, 0); v != Deliver {
		t.Fatalf("before flap: %v", v)
	}
	if v := in.VerdictExtra(0, 1, 15*units.Microsecond, 0); v != Drop {
		t.Fatalf("inside flap: %v", v)
	}
	if v := in.VerdictExtra(0, 1, 20*units.Microsecond, 0); v != Deliver {
		t.Fatalf("after flap (Until is exclusive): %v", v)
	}
	if v := in.VerdictExtra(1, 0, 15*units.Microsecond, 0); v != Deliver {
		t.Fatalf("reverse direction must not flap: %v", v)
	}
}

func TestLinkRuleOverridesBaseline(t *testing.T) {
	in := NewInjector(&Plan{Seed: 4, Drop: 1, Links: []LinkRule{{Src: 0, Dst: 1, Drop: 0}}})
	if v := in.VerdictExtra(0, 1, 0, 0); v != Deliver {
		t.Fatalf("overridden link: %v", v)
	}
	if v := in.VerdictExtra(1, 0, 0, 0); v != Drop {
		t.Fatalf("baseline link: %v", v)
	}
}

func TestStallAndBurstWindows(t *testing.T) {
	in := NewInjector(&Plan{Seed: 5,
		Stalls: []Stall{{Node: 2, From: 0, Until: 30 * units.Microsecond}},
		Bursts: []BusBurst{{Node: 1, From: 0, Until: units.Millisecond, Delay: 2 * units.Microsecond}},
	})
	if d := in.NICStall(2, 10*units.Microsecond); d != 20*units.Microsecond {
		t.Fatalf("stall remainder = %v", d)
	}
	if d := in.NICStall(2, 30*units.Microsecond); d != 0 {
		t.Fatalf("stall after window = %v", d)
	}
	if d := in.NICStall(0, 10*units.Microsecond); d != 0 {
		t.Fatalf("stall on other node = %v", d)
	}
	if d := in.BusDelay(1, 0); d != 2*units.Microsecond {
		t.Fatalf("burst delay = %v", d)
	}
	if d := in.BusDelay(1, 2*units.Millisecond); d != 0 {
		t.Fatalf("burst after window = %v", d)
	}
}

func TestInjectorCounters(t *testing.T) {
	m := metrics.New()
	in := NewInjector(DropPlan(9, 1))
	in.Instrument(m)
	for i := 0; i < 10; i++ {
		in.VerdictExtra(0, 1, 0, 0)
	}
	if got := m.Counter("faults/drops").Value(); got != 10 {
		t.Fatalf("faults/drops = %d, want 10", got)
	}
	if got := m.Counter("faults/packets").Value(); got != 10 {
		t.Fatalf("faults/packets = %d, want 10", got)
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Plan() != nil {
		t.Fatal("nil injector reported a plan")
	}
	in.Instrument(metrics.New()) // must not panic
}

func TestLinkErrorWrapsSentinel(t *testing.T) {
	err := error(&LinkError{Src: 0, Dst: 3, Attempts: 8, Bytes: 4096, Proto: "RC retransmit"})
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatal("LinkError does not unwrap to ErrRetryExhausted")
	}
	for _, want := range []string{"node0->node3", "8 attempts", "4096-byte", "RC retransmit"} {
		if !contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{Limit: 7, Interval: 100 * units.Microsecond, Exponential: true}
	if d := p.Delay(1); d != 100*units.Microsecond {
		t.Fatalf("attempt 1: %v", d)
	}
	if d := p.Delay(3); d != 400*units.Microsecond {
		t.Fatalf("attempt 3: %v", d)
	}
	if d := p.Delay(40); d != 6400*units.Microsecond {
		t.Fatalf("attempt 40 (capped): %v", d)
	}
	fixed := RetryPolicy{Limit: 15, Interval: 50 * units.Microsecond}
	if d := fixed.Delay(10); d != 50*units.Microsecond {
		t.Fatalf("fixed attempt 10: %v", d)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
