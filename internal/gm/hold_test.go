package gm

import (
	"errors"
	"testing"

	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/nic"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// TestHoldBalance: a bulk send's SRAM staging claims on both NICs return
// to zero once the engine drains, on every terminal path of the retry
// ladder — including a node-down abort that runs while the receiver's
// claim is still in flight, which must never drive outRx negative.
func TestHoldBalance(t *testing.T) {
	clos := &fabric.ClosConfig{Levels: 2, Radix: 4, Oversub: 1} // 2 hosts per leaf
	cases := []struct {
		name string
		cfg  nic.Config
		dst  int
		want error // nil: delivered
	}{
		{"deliver", nic.Config{Nodes: 2, Faults: &faults.Plan{
			Flaps: []faults.Flap{{Src: 0, Dst: 1, From: 0, Until: 300 * units.Microsecond}}}}, 1, nil},
		{"exhausted", nic.Config{Nodes: 2, Faults: &faults.Plan{Drop: 1}}, 1, &faults.LinkError{}},
		{"partition", nic.Config{Nodes: 4, Clos: clos, Faults: &faults.Plan{
			SwitchKills: []faults.SwitchKill{{Level: 0, Index: 1, At: 0}},
			DetectDelay: 25 * units.Microsecond}}, 2, &faults.PartitionError{}},
		{"node down", nic.Config{Nodes: 2, Faults: &faults.Plan{
			NodeCrashes: []faults.NodeCrash{{Node: 1, At: 0}},
			DetectDelay: units.Nanosecond}}, 1, &faults.NodeDownError{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.New()
			n := New(eng, Config{c.cfg})
			if err := n.ConfigErr(); err != nil {
				t.Fatal(err)
			}
			unbalanced := func() bool {
				for _, hw := range n.nodes {
					if hw.outTx != 0 || hw.outRx != 0 {
						return true
					}
				}
				return false
			}
			ep := n.NewEndpoint(0).(*endpoint)
			var errs []error
			delivered := 0
			eng.At(units.Microsecond, func() {
				ep.Bulk(c.dst, 64*units.KB, 0, func(err error) {
					if err == nil {
						delivered++
						return
					}
					for i, hw := range n.nodes {
						if hw.outTx < 0 || hw.outRx < 0 {
							t.Errorf("node %d staging negative at abort: tx %d rx %d", i, hw.outTx, hw.outRx)
						}
					}
					errs = append(errs, err)
				})
				if len(errs) == 0 && !unbalanced() {
					t.Error("bulk send claimed no staging")
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if c.want == nil {
				if delivered != 1 || len(errs) != 0 {
					t.Fatalf("delivered %d, errors %v; want one delivery", delivered, errs)
				}
			} else if delivered != 0 || len(errs) != 1 || !sameType(errs[0], c.want) {
				t.Fatalf("delivered %d, errors %v; want one %T", delivered, errs, c.want)
			}
			for i, hw := range n.nodes {
				if hw.outTx != 0 || hw.outRx != 0 {
					t.Errorf("node %d staging after drain: tx %d rx %d", i, hw.outTx, hw.outRx)
				}
			}
		})
	}
}

// sameType reports whether err is a faults error of the same type as want.
func sameType(err, want error) bool {
	switch want.(type) {
	case *faults.LinkError:
		var e *faults.LinkError
		return errors.As(err, &e)
	case *faults.NodeDownError:
		var e *faults.NodeDownError
		return errors.As(err, &e)
	case *faults.PartitionError:
		var e *faults.PartitionError
		return errors.As(err, &e)
	}
	return false
}
