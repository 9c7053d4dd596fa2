package elan

import (
	"errors"
	"testing"

	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/nic"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// TestHoldBalance: every command-queue slot a send claims is back once the
// engine drains, on every terminal path of the retry ladder. A delivered
// message frees its slot one wire flight after delivery; a failed one at
// once.
func TestHoldBalance(t *testing.T) {
	clos := &fabric.ClosConfig{Levels: 2, Radix: 4, Oversub: 1} // 2 hosts per leaf
	cases := []struct {
		name string
		cfg  nic.Config
		dst  int
		want error // nil: delivered
	}{
		{"deliver", nic.Config{Nodes: 2, Faults: &faults.Plan{
			Flaps: []faults.Flap{{Src: 0, Dst: 1, From: 0, Until: 50 * units.Microsecond}}}}, 1, nil},
		{"loopback", nic.Config{Nodes: 2, Faults: &faults.Plan{}}, 0, nil},
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
			ep := n.NewEndpoint(0).(*endpoint)
			var errs []error
			delivered := 0
			// landed counts one completion, reporting whether it delivered.
			landed := func(err error) bool {
				if err != nil {
					errs = append(errs, err)
					return false
				}
				delivered++
				return true
			}
			eng.At(units.Microsecond, func() {
				ep.Eager(c.dst, 64, 0, func(err error) {
					if landed(err) && c.dst != 0 && ep.outstanding < 1 {
						t.Errorf("slot freed before its release crossed back: outstanding %d", ep.outstanding)
					}
				})
				ep.Bulk(c.dst, 64*units.KB, 0, func(err error) { landed(err) })
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if c.want == nil {
				if delivered != 2 || len(errs) != 0 {
					t.Fatalf("delivered %d, errors %v; want two deliveries", delivered, errs)
				}
			} else if delivered != 0 || len(errs) != 2 || !sameType(errs[0], c.want) {
				t.Fatalf("delivered %d, errors %v; want two %T", delivered, errs, c.want)
			}
			if ep.outstanding != 0 {
				t.Errorf("outstanding after drain = %d, want 0", ep.outstanding)
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
