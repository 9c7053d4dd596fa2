package faults

import (
	"testing"

	"mpinet/internal/units"
)

// Flatten must fold a rail's kills into wildcard flaps (and its brown-outs
// into wildcard degrades) while stripping every rail-level entry, leaving
// other rails' entries out of the result entirely.
func TestFlattenResolvesOwnRailOnly(t *testing.T) {
	p := &Plan{
		Seed: 7,
		Drop: 0.01,
		RailKills: []RailKill{
			{Rail: 0, At: 3 * units.Millisecond},
			{Rail: 1, At: 9 * units.Millisecond},
		},
		RailDegrades: []RailDegrade{
			{Rail: 1, From: units.Millisecond, Until: 2 * units.Millisecond, Drop: 0.5},
		},
	}

	q := p.Flatten(0)
	if q == p {
		t.Fatal("Flatten(0) returned the receiver despite rail entries")
	}
	if len(q.RailKills) != 0 || len(q.RailDegrades) != 0 {
		t.Fatalf("flattened plan still carries rail entries: %+v", q)
	}
	if len(q.Flaps) != 1 {
		t.Fatalf("rail 0 got %d flaps, want 1 (its own kill)", len(q.Flaps))
	}
	f := q.Flaps[0]
	if f.Src != Wildcard || f.Dst != Wildcard || f.From != 3*units.Millisecond || f.Until != Forever {
		t.Errorf("kill folded to %+v, want wildcard flap from 3ms forever", f)
	}
	if len(q.Degrades) != 0 {
		t.Errorf("rail 0 inherited rail 1's degrade: %+v", q.Degrades)
	}
	if q.Seed != p.Seed || q.Drop != p.Drop {
		t.Errorf("Flatten changed seed/baseline: %+v", q)
	}

	r1 := p.Flatten(1)
	if len(r1.Flaps) != 1 || len(r1.Degrades) != 1 {
		t.Fatalf("rail 1 got %d flaps / %d degrades, want 1 / 1", len(r1.Flaps), len(r1.Degrades))
	}
	d := r1.Degrades[0]
	if d.Src != Wildcard || d.Drop != 0.5 || d.From != units.Millisecond || d.Until != 2*units.Millisecond {
		t.Errorf("degrade folded to %+v", d)
	}

	// The receiver is untouched in every case.
	if len(p.RailKills) != 2 || len(p.RailDegrades) != 1 || len(p.Flaps) != 0 {
		t.Errorf("Flatten mutated its receiver: %+v", p)
	}
}

// A plan with no rail-level entries flattens to itself (no copy), and a
// nil plan stays nil — solo builders call Flatten(0) unconditionally.
func TestFlattenPassthrough(t *testing.T) {
	p := &Plan{Seed: 3, Drop: 0.1}
	if q := p.Flatten(0); q != p {
		t.Error("plain plan was copied by Flatten")
	}
	var nilPlan *Plan
	if q := nilPlan.Flatten(0); q != nil {
		t.Error("nil plan flattened to non-nil")
	}
}

// A flattened RailDegrade must raise the injector's drop probability
// inside its window and only there.
func TestDegradeWindowRaisesDropRate(t *testing.T) {
	p := (&Plan{
		Seed:         11,
		RailDegrades: []RailDegrade{{Rail: 0, From: 0, Until: units.Millisecond, Drop: 1.0}},
	}).Flatten(0)
	in := NewInjector(p)
	for i := 0; i < 50; i++ {
		if v := in.VerdictExtra(0, 1, units.Microsecond, 0); v != Drop {
			t.Fatalf("packet %d inside a Drop=1.0 window got verdict %v", i, v)
		}
	}
	dropped := 0
	for i := 0; i < 200; i++ {
		if in.VerdictExtra(0, 1, 2*units.Millisecond, 0) == Drop {
			dropped++
		}
	}
	if dropped != 0 {
		t.Errorf("%d drops outside the degrade window on a plan with no baseline", dropped)
	}
}

// RailSeed keeps rail 0 on the bond seed (solo replay compatibility) and
// gives other rails distinct derived seeds.
func TestRailSeed(t *testing.T) {
	const seed = 0xABCDEF
	if RailSeed(seed, 0) != seed {
		t.Error("rail 0 does not keep the bond seed")
	}
	s1, s2 := RailSeed(seed, 1), RailSeed(seed, 2)
	if s1 == seed || s2 == seed || s1 == s2 {
		t.Errorf("derived seeds are not distinct: %#x %#x %#x", uint64(seed), s1, s2)
	}
	if RailSeed(seed, 1) != s1 {
		t.Error("RailSeed is not deterministic")
	}
}

// Uniform must expose the same counter-PRNG purity as the injector:
// order-independent, seed-sensitive.
func TestUniformIsPure(t *testing.T) {
	a, b := Uniform(1, 2, 3), Uniform(1, 2, 3)
	if a != b {
		t.Fatal("Uniform is not a pure function of its inputs")
	}
	if Uniform(1, 2, 3) == Uniform(2, 2, 3) {
		t.Error("Uniform ignores the seed")
	}
	if a < 0 || a >= 1 {
		t.Errorf("Uniform out of [0,1): %v", a)
	}
}
