package rail_test

import (
	"errors"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/dev"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
	"mpinet/internal/rail"
	"mpinet/internal/units"
)

// crashRing runs a Sendrecv ring of 8 ranks, one per node, on an IBA+Myri
// bond whose node 5 is dark from the start, and returns how many exchanges
// completed with a rank-death notification.
func crashRing(t *testing.T, m *metrics.Registry, opts ...cluster.Option) (int, error) {
	t.Helper()
	p := cluster.Bond(cluster.IBA(), cluster.Myri()).With(
		cluster.WithNodeCrashes(faults.NodeCrash{Node: 5}))
	cfg := mpi.Config{Net: p.New(8), Procs: 8, Metrics: m}
	cluster.ApplyWorld(&cfg, opts...)
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	notified := 0
	err = w.Run(func(r *mpi.Rank) {
		buf := r.Malloc(4 * units.KB)
		n := r.Size()
		next, prev := (r.Rank()+1)%n, (r.Rank()+n-1)%n
		for i := 0; i < 4; i++ {
			if st := r.Sendrecv(buf, next, 7, buf, prev, 7); st.Err != nil {
				notified++
			}
			r.Compute(50 * units.Microsecond)
		}
	})
	return notified, err
}

// onceNet wraps a network to check every device operation's completion as
// the MPI layer receives it: it runs at most once, and fails only with the
// typed error of the crash, dated at the crash instant. issued and
// completed count the operations.
type onceNet struct {
	dev.Network
	t                 *testing.T
	crash             faults.NodeCrash
	wantErr           string // the crash's NodeDownError text
	issued, completed int
}

func (n *onceNet) NewEndpoint(node int) dev.Endpoint {
	return &onceEp{Endpoint: n.Network.NewEndpoint(node), net: n}
}

type onceEp struct {
	dev.Endpoint
	net *onceNet
}

func (ep *onceEp) once(done func(error)) func(error) {
	ep.net.issued++
	calls := 0
	return func(err error) {
		if calls++; calls > 1 {
			ep.net.t.Errorf("node %d: an operation completed %d times", ep.Node(), calls)
		} else {
			ep.net.completed++
		}
		var nde *faults.NodeDownError
		switch {
		case err == nil:
		case !errors.As(err, &nde):
			ep.net.t.Errorf("node %d: an operation failed with %v, want a NodeDownError", ep.Node(), err)
		case nde.Node != ep.net.crash.Node || nde.At != ep.net.crash.At || nde.Error() != ep.net.wantErr:
			ep.net.t.Errorf("node %d: an operation failed with %q (node %d, at %v), want %q",
				ep.Node(), nde.Error(), nde.Node, nde.At, ep.net.wantErr)
		}
		done(err)
	}
}

func (ep *onceEp) Eager(dst int, size int64, tid msgtrace.ID, done func(error)) {
	ep.Endpoint.Eager(dst, size, tid, ep.once(done))
}

func (ep *onceEp) Control(dst int, tid msgtrace.ID, done func(error)) {
	ep.Endpoint.Control(dst, tid, ep.once(done))
}

func (ep *onceEp) Bulk(dst int, size int64, tid msgtrace.ID, done func(error)) {
	ep.Endpoint.Bulk(dst, size, tid, ep.once(done))
}

// TestBondNodeCrashIsNotARailDeath: a crashed host fails the operations
// that reach for it, not the rails that carry them — no other rail reaches
// a dead host either. A fault-tolerant ring on a bond therefore survives
// the crash as it does on a single interconnect, with every rail still up,
// and the same ring without fault tolerance fails typed on the dead rank.
// Under Stripe, a crash in the middle of striped bulks fails each message
// once, and the bond's recycled records still carry the survivors' later
// traffic.
func TestBondNodeCrashIsNotARailDeath(t *testing.T) {
	t.Run("tolerant", func(t *testing.T) {
		m := metrics.New()
		notified, err := crashRing(t, m, cluster.WithFaultTolerant())
		if err != nil {
			t.Fatalf("tolerant ring failed on a bond: %v", err)
		}
		if notified == 0 {
			t.Error("tolerant ring saw no rank-death notification")
		}
		if d := m.Counter("rail/deaths").Value(); d != 0 {
			t.Errorf("rail/deaths = %d, want 0: a node death killed a rail", d)
		}
	})
	t.Run("intolerant", func(t *testing.T) {
		_, err := crashRing(t, nil)
		if !errors.Is(err, mpi.ErrRankFailed) {
			t.Fatalf("ring without fault tolerance ended with %v, want a rank failure", err)
		}
	})
	t.Run("stripe", func(t *testing.T) {
		// The ring's first 256 KB bulks are striped over both rails from
		// 0.83 ms to 1.39 ms; node 5 crashes in between, under the chunks
		// of its own and its left neighbour's bulks.
		m := metrics.New()
		crash := faults.NodeCrash{Node: 5, At: 1 * units.Millisecond}
		p := cluster.Bond(cluster.IBA(), cluster.Myri()).With(
			cluster.WithRailPolicy(rail.Stripe), cluster.WithNodeCrashes(crash))
		net := &onceNet{Network: p.New(8), t: t, crash: crash,
			wantErr: "node5 crashed at 1.000ms: fabric partitioned"}
		cfg := mpi.Config{Net: net, Procs: 8, Metrics: m}
		cluster.ApplyWorld(&cfg, cluster.WithFaultTolerant())
		w, err := mpi.NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		notified, later := 0, 0
		err = w.Run(func(r *mpi.Rank) {
			const size = 256 * units.KB
			out, in := r.Malloc(size), r.Malloc(size)
			n := r.Size()
			next, prev := (r.Rank()+1)%n, (r.Rank()+n-1)%n
			for i := 0; i < 3; i++ {
				sr, rr := r.Isend(out, next, 7), r.Irecv(in, prev, 7)
				for _, st := range []mpi.Status{r.Wait(sr), r.Wait(rr)} {
					if st.Err != nil {
						notified++
						if !errors.Is(st.Err, mpi.ErrRankFailed) {
							t.Errorf("rank %d: %v, want a rank failure", r.Rank(), st.Err)
						}
					}
				}
			}
			// The survivors' later traffic: the same ring, closed around
			// the dead rank.
			if next == 5 {
				next = 6
			}
			if prev == 5 {
				prev = 4
			}
			for i := 0; i < 3; i++ {
				if st := r.Sendrecv(out, next, 8, in, prev, 8); st.Err != nil {
					t.Errorf("rank %d: exchange among survivors failed: %v", r.Rank(), st.Err)
				}
				later++
			}
		})
		if err != nil {
			t.Fatalf("tolerant striped ring failed on a bond: %v", err)
		}
		t.Logf("%d notifications, %d later exchanges, %d of %d device operations completed, %d stripe chunks",
			notified, later, net.completed, net.issued, m.Counter("rail/stripe_chunks").Value())
		if net.completed != net.issued {
			t.Errorf("%d of %d device operations completed", net.completed, net.issued)
		}
		if notified == 0 {
			t.Error("striped ring saw no rank-death notification")
		}
		if want := 7 * 3; later != want {
			t.Errorf("%d later exchanges among the survivors completed, want %d", later, want)
		}
		if d := m.Counter("rail/deaths").Value(); d != 0 {
			t.Errorf("rail/deaths = %d, want 0: a node death killed a rail", d)
		}
	})
}
