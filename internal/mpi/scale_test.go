package mpi_test

import (
	"errors"
	"strings"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
	"mpinet/internal/trace"
)

// scaleWorkload mixes the protocol paths whose completions cross domains:
// eager and rendezvous ring exchanges, a wildcard receive, the pt2pt-built
// collectives, and a communicator split (the shared-board agreement).
func scaleWorkload(r *mpi.Rank) {
	n := r.Size()
	me := r.Rank()
	next, prev := (me+1)%n, (me-1+n)%n
	small, smallIn := r.Malloc(512), r.Malloc(512)
	big, bigIn := r.Malloc(256<<10), r.Malloc(256<<10)
	for i := 0; i < 3; i++ {
		r.Sendrecv(small, next, 1, smallIn, prev, 1)
		r.Sendrecv(big, next, 2, bigIn, prev, 2)
	}
	if me == 0 {
		buf := r.Malloc(4 << 10)
		for i := 1; i < n; i++ {
			r.Recv(buf, mpi.AnySource, 5)
		}
	} else {
		r.Send(r.Malloc(4<<10), 0, 5)
	}
	r.Barrier()
	r.Bcast(small, 0)
	r.Allreduce(small)
	sub := r.CommWorld().Split(me%2, me)
	sub.Barrier()
}

// TestScaleClosThreeLevel exercises the deep fabric at a world size past
// the 2-level capacity and requires two runs to finish at the identical
// simulated time.
func TestScaleClosThreeLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("512-rank world")
	}
	plat := cluster.Myri().With(cluster.Clos(3, 24, 2))
	run := func() int64 {
		w, err := mpi.NewWorld(mpi.Config{Net: plat.New(512), Procs: 512})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(scaleWorkload); err != nil {
			t.Fatal(err)
		}
		return int64(w.Elapsed())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("3-level Clos replay diverged: %d vs %d", a, b)
	}
}

// TestObservationInvariance: observing a run never changes it. A
// plain run and runs with a timeline, a metrics registry or a span recorder
// all finish at the identical simulated time.
func TestObservationInvariance(t *testing.T) {
	observers := []struct {
		name string
		set  func(*mpi.Config)
	}{
		{"plain", func(*mpi.Config) {}},
		{"metrics", func(c *mpi.Config) { c.Metrics = metrics.New() }},
		{"timeline", func(c *mpi.Config) { c.Timeline = &trace.Timeline{} }},
		{"msgtrace", func(c *mpi.Config) { c.MsgTrace = msgtrace.New(1) }},
	}
	cases := []struct {
		plat  cluster.Platform
		procs int
	}{
		{cluster.IBA().With(cluster.FatTree(24, 2)), 64},
		{cluster.Myri().With(cluster.FatTree(24, 2)), 64},
		{cluster.QSN().With(cluster.FatTree(24, 2)), 64},
		{cluster.IBA(), 8},
		{cluster.Myri(), 8},
		{cluster.QSN(), 8},
	}
	for _, c := range cases {
		p := c.plat
		var base int64
		for i, o := range observers {
			cfg := mpi.Config{Net: p.New(c.procs), Procs: c.procs}
			o.set(&cfg)
			w, err := mpi.NewWorld(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, o.name, err)
			}
			if err := w.Run(scaleWorkload); err != nil {
				t.Fatalf("%s/%s: %v", p.Name, o.name, err)
			}
			if i == 0 {
				base = int64(w.Elapsed())
			} else if got := int64(w.Elapsed()); got != base {
				t.Errorf("%s: elapsed %d with %s, %d plain", p.Name, got, o.name, base)
			}
		}
	}
}

// TestScaleConfigErrorSurfaced: an invalid topology becomes a typed
// construction error from NewWorld, not a panic mid-run.
func TestScaleConfigErrorSurfaced(t *testing.T) {
	p := cluster.IBA().With(cluster.FatTree(25, 2))
	_, err := mpi.NewWorld(mpi.Config{Net: p.New(8), Procs: 8})
	var ce *cluster.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want *cluster.ConfigError", err, err)
	}
	if ce.Option != "FatTree(25, 2)" {
		t.Errorf("Option = %q", ce.Option)
	}
	// Capacity overflow surfaces the same way (via the device constructor).
	_, err = mpi.NewWorld(mpi.Config{Net: cluster.IBA().With(cluster.FatTree(24, 2)).New(1024), Procs: 1024})
	if err == nil {
		t.Fatal("1024 hosts accepted on a 384-host fabric")
	}
}

// TestScaleFaultSurfaces: a truncation in a fat-tree world tears the job
// down with the typed error.
func TestScaleFaultSurfaces(t *testing.T) {
	p := cluster.IBA().With(cluster.FatTree(24, 2))
	w, err := mpi.NewWorld(mpi.Config{Net: p.New(32), Procs: 32})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *mpi.Rank) {
		if r.Rank() == 17 {
			r.Send(r.Malloc(8<<10), 18, 3)
		}
		if r.Rank() == 18 {
			r.Recv(r.Malloc(64), 17, 3) // too small: MPI_ERR_TRUNCATE
		}
		r.Barrier()
	})
	if !errors.Is(err, mpi.ErrTruncate) {
		t.Fatalf("err = %v, want ErrTruncate", err)
	}
}

// TestFlightRecorderOnClos: an unobserved Clos world still owns a recorder,
// so a truncation freezes the flight ring at the job abort on every
// interconnect.
func TestFlightRecorderOnClos(t *testing.T) {
	for _, plat := range []cluster.Platform{cluster.IBA(), cluster.Myri(), cluster.QSN()} {
		p := plat.With(cluster.Clos(3, 8, 1))
		w, err := mpi.NewWorld(mpi.Config{Net: p.New(32), Procs: 32})
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(r *mpi.Rank) {
			if r.Rank() == 17 {
				r.Send(r.Malloc(8<<10), 18, 3)
			}
			if r.Rank() == 18 {
				r.Recv(r.Malloc(1<<10), 17, 3) // too small: MPI_ERR_TRUNCATE
			}
			r.Barrier()
		})
		if !errors.Is(err, mpi.ErrTruncate) {
			t.Fatalf("%s: err = %v, want ErrTruncate", p.Name, err)
		}
		rec := w.MsgTrace()
		if rec == nil {
			t.Fatalf("%s: world has no message-trace recorder", p.Name)
		}
		why, ok := rec.Frozen()
		if !ok || !strings.HasPrefix(why, "job abort: ") || !strings.Contains(why, "truncat") {
			t.Errorf("%s: flight ring frozen = %v, why %q; want the job abort", p.Name, ok, why)
		}
	}
}

// TestScaleMemoryOrdering pins the paper's Figure 13 ordering at a
// thousand-rank world: per-connection VAPI state dwarfs GM's, which
// exceeds Elan's near-flat global mapping. Per-rank memory is a
// deterministic model quantity, so it is also gated against the committed
// figures: growth past 5% means the established-connection accounting or
// the per-peer endpoint state grew. The workload is a neighbour exchange
// (four 8 KB ring Sendrecvs) and an 8-byte Allreduce on the 3-level Clos.
func TestScaleMemoryOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank worlds")
	}
	committed := map[string]int64{"IBA": 73252864, "Myri": 23068672, "QSN": 11534336}
	mem := map[string]int64{}
	for _, plat := range []cluster.Platform{cluster.IBA(), cluster.Myri(), cluster.QSN()} {
		p := plat.With(cluster.Clos(3, 24, 2))
		w, err := mpi.NewWorld(mpi.Config{Net: p.New(1024), Procs: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(r *mpi.Rank) {
			me, sz := r.Rank(), r.Size()
			buf, in := r.Malloc(8<<10), r.Malloc(8<<10)
			for i := 0; i < 4; i++ {
				r.Sendrecv(buf, (me+1)%sz, 1, in, (me-1+sz)%sz, 1)
			}
			r.Allreduce(r.Malloc(8))
		}); err != nil {
			t.Fatal(err)
		}
		got := w.EstablishedMemoryUsage(0)
		mem[plat.Name] = got
		if limit := committed[plat.Name] * 105 / 100; got > limit {
			t.Errorf("%s: %d bytes/rank, more than 5%% over the committed %d", plat.Name, got, committed[plat.Name])
		}
	}
	if !(mem["IBA"] > mem["Myri"] && mem["Myri"] > mem["QSN"]) {
		t.Fatalf("per-rank memory ordering broken: %v", mem)
	}
}
