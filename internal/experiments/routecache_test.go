package experiments

import (
	"fmt"
	"strings"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/mpi"
	"mpinet/internal/units"
)

// TestRouteCacheWorldByteIdentical drives a full device+MPI world through a
// kill+repair chaos plan twice — once with the fabric route cache (the
// default) and once with it disabled through the SetRouteCache debug knob —
// and demands byte-identical transcripts: every rank's per-round completion
// status (which encodes the LastRouteOf fate the device saw, blackhole
// detect-delay window included) and the final elapsed time. The cache is a
// performance knob, never a semantics knob.
func TestRouteCacheWorldByteIdentical(t *testing.T) {
	run := func(cacheOn bool) string {
		p := cluster.IBA().With(cluster.Clos(2, 8, 1),
			cluster.WithSwitchKills(faults.SwitchKill{
				Level: 1, Index: 1,
				At: 50 * units.Microsecond, RepairAt: 2 * units.Millisecond,
			}),
			cluster.WithSeed(FaultSeed))
		const procs, rounds = 32, 8
		net := p.New(procs)
		if !cacheOn {
			topo := net.(interface{ Topology() fabric.Topology }).Topology()
			topo.(*fabric.Clos).SetRouteCache(false)
		}
		w := mpi.MustWorld(mpi.Config{Net: net, Procs: procs})
		// One engine (fault plan), so the fixed-slot transcript is
		// race-free; fixed slots also make it interleaving-independent.
		lines := make([]string, procs*rounds)
		err := w.Run(func(rk *mpi.Rank) {
			buf := rk.Malloc(4 * units.KB)
			next := (rk.Rank() + 1) % rk.Size()
			prev := (rk.Rank() - 1 + rk.Size()) % rk.Size()
			for i := 0; i < rounds; i++ {
				st := rk.Sendrecv(buf, next, i, buf, prev, i)
				outcome := "ok"
				if st.Err != nil {
					outcome = st.Err.Error()
				}
				lines[rk.Rank()*rounds+i] = fmt.Sprintf("rank %d round %d: %s", rk.Rank(), i, outcome)
				rk.Compute(100 * units.Microsecond)
			}
		})
		if err != nil {
			t.Fatalf("kill+repair ring (cache=%v) died: %v", cacheOn, err)
		}
		return strings.Join(lines, "\n") + fmt.Sprintf("\nelapsed %v\n", w.Elapsed())
	}
	on, off := run(true), run(false)
	if on != off {
		t.Fatalf("world transcript diverges with the route cache on:\n--- cache on:\n%s\n--- cache off:\n%s", on, off)
	}
	if !strings.Contains(on, "elapsed ") || len(on) < 100 {
		t.Fatalf("transcript suspiciously empty:\n%s", on)
	}
}
