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
// 60- and a 120-round ring, per extra message, must stay at or below 0.05.
// Every recycled record belongs to its world, so the gate holds under the
// race detector too.
func TestMessagePathZeroAlloc(t *testing.T) {
	const rounds, longRounds = 60, 120
	gate := func(t *testing.T, p cluster.Platform, f msgPathFabric) {
		ringRounds(t, p, f, rounds) // warm the runtime's process-wide caches
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
			t.Run(base.Name+"/"+f.name, func(t *testing.T) { gate(t, p, f) })
		}
	}
	for _, pol := range []rail.Policy{rail.Failover, rail.Stripe} {
		p := cluster.Bond(cluster.IBA(), cluster.Myri()).With(cluster.WithRailPolicy(pol))
		t.Run(p.Name+"/"+fabrics[0].name, func(t *testing.T) { gate(t, p, fabrics[0]) })
	}
}
