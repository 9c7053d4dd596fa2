package experiments

import (
	"bytes"
	"errors"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/mpi"
	"mpinet/internal/units"
)

// The chaos soak's whole transcript — healthy baseline, storm outcomes,
// notification counts — must replay byte-identically: fault verdicts are
// counter-based and element deaths are scheduled in simulated time.
func TestChaosSoakReplayIdentical(t *testing.T) {
	soak := func() string {
		var buf bytes.Buffer
		if err := ChaosSoak(&buf, "IBA", "deterministic", 0, 0); err != nil {
			t.Fatalf("soak: %v\n%s", err, buf.String())
		}
		return buf.String()
	}
	one, again := soak(), soak()
	if one != again {
		t.Fatalf("soak transcript differs between two runs:\n--- first:\n%s--- second:\n%s", one, again)
	}
	if !bytes.Contains([]byte(one), []byte("typed: rank-failed")) ||
		!bytes.Contains([]byte(one), []byte("typed: partitioned")) {
		t.Fatalf("soak transcript missing expected typed outcomes:\n%s", one)
	}
}

// The CI chaos matrix: every interconnect under both routing policies rides
// out the full storm schedule, each scenario landing in its contracted
// outcome. This is exactly what the nightly job runs.
func TestChaosSoakMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos matrix")
	}
	for _, net := range []string{"IBA", "Myri", "QSN"} {
		for _, routing := range []string{"deterministic", "adaptive"} {
			t.Run(net+"/"+routing, func(t *testing.T) {
				var buf bytes.Buffer
				if err := ChaosSoak(&buf, net, routing, 0, 0); err != nil {
					t.Fatalf("%v\n%s", err, buf.String())
				}
			})
		}
	}
}

// The headline acceptance case: a 512-rank LU on a 3-level Clos survives a
// spine-plane kill on all three interconnects under both routing policies,
// and pays a real (but bounded) completion-time price.
func TestSpineKillAcceptance512(t *testing.T) {
	if testing.Short() {
		t.Skip("512-rank chaos acceptance")
	}
	const procs = 512
	topo := cluster.Clos(3, 16, 1) // 8 hosts/leaf, 8 up-link planes
	plats := []cluster.Platform{
		cluster.IBA(),
		cluster.IBA().With(cluster.WithRouting(cluster.Adaptive)),
		cluster.Myri(),
		cluster.QSN(),
	}
	for _, p := range plats {
		p := p.With(topo)
		t.Run(p.Name, func(t *testing.T) {
			healthy, err := chaosLU(p, procs)
			if err != nil {
				t.Fatalf("healthy baseline: %v", err)
			}
			killed, err := chaosLU(p.With(
				cluster.WithSwitchKills(faults.SwitchKill{Level: 1, Index: 2, At: healthy / 4}),
				cluster.WithSeed(FaultSeed)), procs)
			if err != nil {
				t.Fatalf("spine kill: %v", err)
			}
			if killed < healthy {
				t.Errorf("losing a spine plane sped LU up: %v healthy, %v killed", healthy, killed)
			}
			if killed > 10*healthy {
				t.Errorf("self-healing did not bound the damage: %v healthy, %v killed", healthy, killed)
			}
		})
	}
}

// Killing every spine plane partitions the fabric: the job must die typed —
// partition, rank failure, retry exhaustion or the scaled watchdog — and
// within the watchdog budget, never hang.
func TestAllSpinesKilledTyped(t *testing.T) {
	p := cluster.IBA().With(cluster.Clos(3, 8, 1),
		cluster.WithSwitchKills(spineKills(4, 100*units.Microsecond)...),
		cluster.WithSeed(FaultSeed))
	_, err := chaosLU(p, 64)
	if err == nil {
		t.Fatal("LU survived losing every spine plane")
	}
	if !errors.Is(err, faults.ErrPartitioned) && !errors.Is(err, mpi.ErrTimeout) &&
		!errors.Is(err, faults.ErrRetryExhausted) && !errors.Is(err, mpi.ErrRankFailed) {
		t.Fatalf("partition death is untyped: %v", err)
	}
}

// Conservation through kill + repair: a ring exchange pinned across a spine
// plane's death and repair window delivers every message exactly once —
// completion counts add up and the run replays identically.
func TestKillRepairConservation(t *testing.T) {
	run := func() (int, units.Time) {
		p := cluster.IBA().With(cluster.Clos(2, 8, 1),
			cluster.WithSwitchKills(faults.SwitchKill{
				Level: 1, Index: 1,
				At: 50 * units.Microsecond, RepairAt: 2 * units.Millisecond,
			}),
			cluster.WithSeed(FaultSeed))
		const procs = 32
		w := mpi.MustWorld(mpi.Config{Net: p.New(procs), Procs: procs})
		// One engine (fault plan), so a plain counter is race-free.
		delivered := 0
		err := w.Run(func(rk *mpi.Rank) {
			const rounds = 8
			buf := rk.Malloc(4 * units.KB)
			next := (rk.Rank() + 1) % rk.Size()
			prev := (rk.Rank() - 1 + rk.Size()) % rk.Size()
			for i := 0; i < rounds; i++ {
				st := rk.Sendrecv(buf, next, i, buf, prev, i)
				if st.Err == nil {
					delivered++
				}
				rk.Compute(100 * units.Microsecond)
			}
		})
		if err != nil {
			t.Fatalf("kill+repair ring died: %v", err)
		}
		return delivered, w.Elapsed()
	}
	delivered, elapsed := run()
	if delivered != 32*8 {
		t.Fatalf("delivered %d exchanges, want %d", delivered, 32*8)
	}
	if d2, e2 := run(); d2 != delivered || e2 != elapsed {
		t.Fatalf("kill+repair replay diverged: (%d, %v) vs (%d, %v)", delivered, elapsed, d2, e2)
	}
}
