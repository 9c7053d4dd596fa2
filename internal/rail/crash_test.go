package rail_test

import (
	"errors"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
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

// TestBondNodeCrashIsNotARailDeath: a crashed host fails the operations
// that reach for it, not the rails that carry them — no other rail reaches
// a dead host either. A fault-tolerant ring on a bond therefore survives
// the crash as it does on a single interconnect, with every rail still up,
// and the same ring without fault tolerance fails typed on the dead rank.
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
}
