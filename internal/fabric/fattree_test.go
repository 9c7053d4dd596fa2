package fabric

import (
	"testing"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// testTree is the two-level fat tree the FatTree(radix, oversub) platform
// option builds, at a small radix: 6-port elements 2:1 oversubscribed give
// 4 hosts and 2 up-links per leaf, 4 leaves for 16 hosts.
func testTree() *Clos {
	tr, err := NewClos("t", closCfg(2, 6, 2, Deterministic), 16)
	if err != nil {
		panic(err)
	}
	return tr
}

func TestFatTreeDimensions(t *testing.T) {
	tr := testTree()
	if tr.Nodes() != 16 {
		t.Fatalf("nodes = %d, want 16", tr.Nodes())
	}
	if tr.LeafOf(0) != 0 || tr.LeafOf(3) != 0 || tr.LeafOf(4) != 1 || tr.LeafOf(15) != 3 {
		t.Fatal("leaf mapping wrong")
	}
}

func TestFatTreeHops(t *testing.T) {
	tr := testTree()
	if tr.Hops(0, 1) != 1 {
		t.Fatalf("same-leaf hops = %d, want 1", tr.Hops(0, 1))
	}
	if tr.Hops(0, 5) != 3 {
		t.Fatalf("cross-leaf hops = %d, want 3", tr.Hops(0, 5))
	}
}

func TestFatTreeBetween(t *testing.T) {
	tr := testTree()
	seg := between(tr, 0, 1, 0)
	if len(seg.Stages) != 0 || seg.Down != 200*units.Nanosecond {
		t.Fatalf("same-leaf: %d stages, latency %v", len(seg.Stages), seg.Down)
	}
	stages := between(tr, 0, 5, 0).Stages
	if len(stages) != 2 {
		t.Fatalf("cross-leaf: %d stages, want 2", len(stages))
	}
}

func TestFatTreeDeterministicECMP(t *testing.T) {
	tr := testTree()
	a := between(tr, 0, 5, 0).Stages
	b := between(tr, 0, 5, 0).Stages
	if a[0].Stage != b[0].Stage || a[1].Stage != b[1].Stage {
		t.Fatal("route to the same destination changed")
	}
	// Different destinations on the same remote leaf spread across spines.
	r5 := between(tr, 0, 5, 0).Stages
	r6 := between(tr, 0, 6, 0).Stages
	if r5[0].Stage == r6[0].Stage {
		t.Fatal("ECMP did not spread destinations across spines")
	}
}

func TestFatTreeUplinkContention(t *testing.T) {
	// Two flows from the same leaf to destinations sharing a spine must
	// serialize on the single up-link; flows to different spines must not.
	tr := testTree()
	eng := sim.New()
	size := int64(4 * units.MB)
	run := func(dsts []int) sim.Time {
		var last sim.Time
		for _, dst := range dsts {
			stages := between(tr, 0, dst, 0).Stages
			Transfer(eng, &Route{Head: stages}, size, DefaultChunk, eng.Now(), func(at sim.Time) {
				if at > last {
					last = at
				}
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	// Destinations 4 and 6 hash to spines 0 and 0 (4%2, 6%2): same uplink.
	shared := run([]int{4, 6})
	eng2 := sim.New()
	tr2 := testTree()
	var last2 sim.Time
	for _, dst := range []int{4, 5} { // spines 0 and 1: disjoint uplinks
		stages := between(tr2, 0, dst, 0).Stages
		Transfer(eng2, &Route{Head: stages}, size, DefaultChunk, eng2.Now(), func(at sim.Time) {
			if at > last2 {
				last2 = at
			}
		})
	}
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if float64(shared) < float64(last2)*1.7 {
		t.Fatalf("shared-spine flows (%v) not ~2x disjoint-spine flows (%v)", shared, last2)
	}
}

func TestFatTreeValidation(t *testing.T) {
	if _, err := NewClos("bad", ClosConfig{}, 16); err == nil {
		t.Fatal("zero dimensions accepted")
	}
}
