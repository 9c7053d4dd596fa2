package mpi

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// measureBcast times iters broadcasts of size bytes from rank 0 on an
// 8-node world of the given platform.
func measureBcast(t *testing.T, p cluster.Platform, size int64, iters int) sim.Time {
	t.Helper()
	w := MustWorld(Config{Net: p.New(8), Procs: 8})
	var per sim.Time
	if err := w.Run(func(r *Rank) {
		buf := r.Malloc(size)
		r.Bcast(buf, 0)
		r.Barrier()
		start := r.Wtime()
		for i := 0; i < iters; i++ {
			r.Bcast(buf, 0)
		}
		if r.Rank() == 0 {
			per = (r.Wtime() - start) / sim.Time(iters)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return per
}

func TestHWMulticastBcastFaster(t *testing.T) {
	plain := measureBcast(t, cluster.IBA(), 1024, 8)
	mc := measureBcast(t, cluster.IBA().With(cluster.Multicast()), 1024, 8)
	if mc >= plain {
		t.Fatalf("hardware multicast bcast %v not faster than binomial tree %v", mc, plain)
	}
	// The tree pays ~log2(8)=3 serialized hops; multicast pays ~1.
	if float64(mc) > float64(plain)*0.7 {
		t.Errorf("multicast advantage too small: %v vs %v", mc, plain)
	}
}

func TestHWMulticastCorrectCompletion(t *testing.T) {
	// Every rank must leave the Bcast after the root entered it, for
	// several back-to-back broadcasts from the same root.
	w := MustWorld(Config{Net: cluster.IBA().With(cluster.Multicast()).New(4), Procs: 4})
	var rootEntry sim.Time
	exits := make([]sim.Time, 4)
	if err := w.Run(func(r *Rank) {
		buf := r.Malloc(4096)
		if r.Rank() == 0 {
			rootEntry = r.Wtime()
		} else {
			// Skew the receivers: late ranks must still get every payload.
			r.Compute(units.Time(50*r.Rank()) * units.Microsecond)
		}
		for i := 0; i < 3; i++ {
			r.Bcast(buf, 0)
		}
		exits[r.Rank()] = r.Wtime()
	}); err != nil {
		t.Fatal(err)
	}
	for rank, at := range exits {
		if at <= rootEntry {
			t.Fatalf("rank %d left bcast at %v, before the root entered (%v)", rank, at, rootEntry)
		}
	}
}

func TestHWMulticastFallsBackInSMPMode(t *testing.T) {
	// With two ranks per node the multicast path must not be used (it
	// addresses nodes, not ranks); the tree must still complete.
	w := MustWorld(Config{Net: cluster.IBA().With(cluster.Multicast()).New(4), Procs: 8, ProcsPerNode: 2})
	if err := w.Run(func(r *Rank) {
		r.Bcast(r.Malloc(512), 0)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestOnDemandConnectionsMemory(t *testing.T) {
	// A ring program touches only two peers per rank: on-demand memory must
	// reflect that, while the default platform pays for all seven.
	run := func(p cluster.Platform) int64 {
		w := MustWorld(Config{Net: p.New(8), Procs: 8})
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(256)
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() - 1 + r.Size()) % r.Size()
			for i := 0; i < 3; i++ {
				r.Sendrecv(buf, next, 0, buf, prev, 0)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return w.MemoryUsage(0)
	}
	static := run(cluster.IBA())
	onDemand := run(cluster.IBA().With(cluster.OnDemand()))
	if onDemand >= static {
		t.Fatalf("on-demand memory %d not below static %d", onDemand, static)
	}
	// Two established connections vs seven.
	saved := static - onDemand
	if saved < 20*units.MB {
		t.Errorf("on-demand saving only %d bytes over a ring", saved)
	}
}

func TestOnDemandFirstContactStall(t *testing.T) {
	// The first message to a new peer pays connection setup; later ones do
	// not.
	measure := func(p cluster.Platform) (first, second sim.Time) {
		w := MustWorld(Config{Net: p.New(2), Procs: 2})
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(64)
			if r.Rank() == 0 {
				t0 := r.Wtime()
				r.Send(buf, 1, 0)
				r.Recv(buf, 1, 1)
				first = r.Wtime() - t0
				t1 := r.Wtime()
				r.Send(buf, 1, 0)
				r.Recv(buf, 1, 1)
				second = r.Wtime() - t1
			} else {
				for i := 0; i < 2; i++ {
					r.Recv(buf, 0, 0)
					r.Send(buf, 0, 1)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, s := measure(cluster.IBA().With(cluster.OnDemand()))
	if f < s+200*units.Microsecond {
		t.Fatalf("first contact %v does not show the setup stall (steady state %v)", f, s)
	}
	fStatic, _ := measure(cluster.IBA())
	if fStatic > s*3 {
		t.Fatalf("static platform first message %v unexpectedly slow", fStatic)
	}
}

func TestEagerThresholdAblation(t *testing.T) {
	// Raising the eager threshold past a message size removes the
	// rendezvous handshake for that size.
	lat := func(threshold int64) sim.Time {
		w := MustWorld(Config{Net: cluster.IBA().With(cluster.EagerThreshold(threshold)).New(2), Procs: 2})
		var rtt sim.Time
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(8 * units.KB)
			peer := 1 - r.Rank()
			for i := 0; i < 4; i++ {
				if r.Rank() == 0 {
					if i == 1 {
						rtt = -r.Wtime()
					}
					r.Send(buf, peer, 0)
					r.Recv(buf, peer, 1)
					if i == 3 {
						rtt += r.Wtime()
					}
				} else {
					r.Recv(buf, peer, 0)
					r.Send(buf, peer, 1)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return rtt / 3
	}
	eager := lat(16 * units.KB) // 8KB messages go eager
	rndv := lat(2 * units.KB)   // 8KB messages go rendezvous
	if eager >= rndv {
		t.Fatalf("eager 8KB (%v) not faster than rendezvous 8KB (%v)", eager, rndv)
	}
}
