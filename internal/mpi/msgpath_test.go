package mpi

import (
	"runtime"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/rail"
	"mpinet/internal/units"
)

// msgPathFabric is one fabric the message-path gates run on: a platform
// option set, the node count, and the ring stride (a stride that is not a
// multiple of the hosts per leaf makes every ring hop cross leaves).
type msgPathFabric struct {
	name   string
	opts   []cluster.Option
	nodes  int
	stride int
}

// msgPathFabrics are the crossbar, an adaptive Clos(3, 8, 1) (four hosts
// and four up-link planes per leaf), and that Clos under packet drops plus
// a spine-plane kill that is detected and repaired early in the run.
func msgPathFabrics() []msgPathFabric {
	adaptive := []cluster.Option{cluster.Clos(3, 8, 1), cluster.WithRouting(cluster.Adaptive)}
	plan := faults.DropPlan(11, 0.01)
	plan.DetectDelay = 50 * units.Microsecond
	faulty := append(append([]cluster.Option(nil), adaptive...),
		cluster.WithFaults(plan),
		cluster.WithSwitchKills(faults.SwitchKill{
			Level: 1, Index: 1, At: 20 * units.Microsecond, RepairAt: 400 * units.Microsecond,
		}))
	return []msgPathFabric{
		{name: "crossbar", nodes: 8, stride: 1},
		{name: "adaptive-clos", opts: adaptive, nodes: 16, stride: 5},
		{name: "faulty-clos", opts: faulty, nodes: 16, stride: 5},
	}
}

// ringRounds runs rounds of a ring exchange — an eager and a rendezvous
// Sendrecv per round to the rank stride ahead — and returns the heap
// allocations the whole job made, world construction included.
func ringRounds(t *testing.T, p cluster.Platform, f msgPathFabric, rounds int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w, err := NewWorld(Config{Net: p.New(f.nodes), Procs: f.nodes})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) {
		n := r.Size()
		next, prev := (r.Rank()+f.stride)%n, (r.Rank()-f.stride+n)%n
		small, smallIn := r.Malloc(1*units.KB), r.Malloc(1*units.KB)
		big, bigIn := r.Malloc(64*units.KB), r.Malloc(64*units.KB)
		for i := 0; i < rounds; i++ {
			r.Sendrecv(small, next, 1, smallIn, prev, 1)
			r.Sendrecv(big, next, 2, bigIn, prev, 2)
		}
	})
	if err != nil {
		t.Fatalf("%d rounds: %v", rounds, err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMessagePathZeroAlloc gates the steady-state message path: once a
// ring's routes, records and pin caches are warm, another round of eager
// and rendezvous traffic allocates nothing, on every interconnect and on
// the crossbar, an adaptive Clos and a faulty adaptive Clos, and on an
// IBA+Myri bond under each rail policy. The extra allocations between a
// short and a long ring, per extra message, must stay at or below 0.05 —
// slack for the sync.Pool refills a garbage collection forces.
//
// The rings are 60 and 120 rounds long, the bonds' 120 and 480. A bond's
// health monitors probe a seeded (source, target) node pair each
// heartbeat, and a probe endpoint builds its route to a target the first
// time it probes it: up to nodes×(nodes−1) one-off routes per rail, which
// the probes are still drawing long after 120 rounds. Between 60 and 120
// rounds they alone cost about 0.03 allocations per message, leaving the
// pool refills no room under the bound; the 112 routes of an 8-node
// two-rail bond are at most 0.02 per message over 360 extra rounds.
func TestMessagePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool discards records at random")
	}
	gate := func(t *testing.T, p cluster.Platform, f msgPathFabric, rounds, longRounds int) {
		ringRounds(t, p, f, rounds) // warm the record pools
		short := ringRounds(t, p, f, rounds)
		long := ringRounds(t, p, f, longRounds)
		msgs := float64((longRounds - rounds) * f.nodes * 2)
		per := (float64(long) - float64(short)) / msgs
		t.Logf("%d allocations at %d rounds, %d at %d: %.4f per extra message",
			short, rounds, long, longRounds, per)
		if per > 0.05 {
			t.Errorf("steady-state message path allocates %.3f times per message, want <= 0.05", per)
		}
	}
	fabrics := msgPathFabrics()
	for _, f := range fabrics {
		for _, base := range []cluster.Platform{cluster.IBA(), cluster.Myri(), cluster.QSN()} {
			p := base.With(f.opts...)
			t.Run(base.Name+"/"+f.name, func(t *testing.T) { gate(t, p, f, 60, 120) })
		}
	}
	for _, pol := range []rail.Policy{rail.Failover, rail.Stripe} {
		p := cluster.Bond(cluster.IBA(), cluster.Myri()).With(cluster.WithRailPolicy(pol))
		t.Run(p.Name+"/"+fabrics[0].name, func(t *testing.T) { gate(t, p, fabrics[0], 120, 480) })
	}
}
