package mpi

import (
	"fmt"
	"testing"

	"mpinet/internal/dev"
	"mpinet/internal/elan"
	"mpinet/internal/gm"
	"mpinet/internal/sim"
	"mpinet/internal/units"
	"mpinet/internal/verbs"
)

// networks under test, constructed fresh per invocation.
func testNetworks(nodes int) map[string]func() dev.Network {
	return map[string]func() dev.Network{
		"IBA":  func() dev.Network { return verbs.New(sim.New(), verbs.DefaultConfig(nodes)) },
		"Myri": func() dev.Network { return gm.New(sim.New(), gm.DefaultConfig(nodes)) },
		"QSN":  func() dev.Network { return elan.New(sim.New(), elan.DefaultConfig(nodes)) },
	}
}

func forEachNet(t *testing.T, nodes int, f func(t *testing.T, net dev.Network)) {
	t.Helper()
	for _, name := range []string{"IBA", "Myri", "QSN"} {
		mk := testNetworks(nodes)[name]
		t.Run(name, func(t *testing.T) { f(t, mk()) })
	}
}

func TestPingPongCompletes(t *testing.T) {
	forEachNet(t, 2, func(t *testing.T, net dev.Network) {
		for _, size := range []int64{0, 4, 1024, 2048, 64 * 1024, units.MB} {
			w := MustWorld(Config{Net: net, Procs: 2})
			var rtt sim.Time
			err := w.Run(func(r *Rank) {
				buf := r.Malloc(size)
				if r.Rank() == 0 {
					start := r.Wtime()
					r.Send(buf, 1, 7)
					r.Recv(buf, 1, 8)
					rtt = r.Wtime() - start
				} else {
					r.Recv(buf, 0, 7)
					r.Send(buf, 0, 8)
				}
			})
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			if rtt <= 0 {
				t.Fatalf("size %d: non-positive RTT %v", size, rtt)
			}
		}
	})
}

func TestLatencyMonotoneInSize(t *testing.T) {
	forEachNet(t, 2, func(t *testing.T, net dev.Network) {
		var prev sim.Time
		name := net.Name()
		for _, size := range []int64{4, 64, 1024, 16 * 1024, 256 * 1024} {
			w := MustWorld(Config{Net: net, Procs: 2})
			var rtt sim.Time
			if err := w.Run(func(r *Rank) {
				buf := r.Malloc(size)
				if r.Rank() == 0 {
					start := r.Wtime()
					r.Send(buf, 1, 0)
					r.Recv(buf, 1, 1)
					rtt = r.Wtime() - start
				} else {
					r.Recv(buf, 0, 0)
					r.Send(buf, 0, 1)
				}
			}); err != nil {
				t.Fatal(err)
			}
			if rtt < prev {
				t.Fatalf("%s: latency decreased from %v to %v at size %d", name, prev, rtt, size)
			}
			prev = rtt
		}
	})
}

func TestUnexpectedMessageMatched(t *testing.T) {
	forEachNet(t, 2, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 2})
		var got Status
		if err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(r.Malloc(512), 1, 42)
			} else {
				// Compute long enough that the message is unexpected.
				r.Compute(500 * units.Microsecond)
				got = r.Recv(r.Malloc(512), 0, 42)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got.Source != 0 || got.Tag != 42 || got.Size != 512 {
			t.Fatalf("status = %+v", got)
		}
	})
}

func TestUnexpectedRendezvousMatched(t *testing.T) {
	forEachNet(t, 2, func(t *testing.T, net dev.Network) {
		size := int64(256 * 1024) // well past every eager threshold
		w := MustWorld(Config{Net: net, Procs: 2})
		if err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(r.Malloc(size), 1, 1)
			} else {
				r.Compute(300 * units.Microsecond)
				st := r.Recv(r.Malloc(size), 0, 1)
				if st.Size != size {
					t.Errorf("recv size %d, want %d", st.Size, size)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	forEachNet(t, 2, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 2})
		var order []int
		if err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				r.Send(r.Malloc(16), 1, 5)
				r.Send(r.Malloc(16), 1, 6)
			} else {
				// Receive tag 6 first even though tag 5 arrives first.
				r.Compute(200 * units.Microsecond)
				st := r.Recv(r.Malloc(16), 0, 6)
				order = append(order, st.Tag)
				st = r.Recv(r.Malloc(16), 0, 5)
				order = append(order, st.Tag)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if len(order) != 2 || order[0] != 6 || order[1] != 5 {
			t.Fatalf("tag order = %v, want [6 5]", order)
		}
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	forEachNet(t, 3, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 3})
		var sources []int
		if err := w.Run(func(r *Rank) {
			switch r.Rank() {
			case 0:
				for i := 0; i < 2; i++ {
					st := r.Recv(r.Malloc(64), AnySource, AnyTag)
					sources = append(sources, st.Source)
				}
			default:
				r.Send(r.Malloc(64), 0, 10+r.Rank())
			}
		}); err != nil {
			t.Fatal(err)
		}
		if len(sources) != 2 {
			t.Fatalf("received %d messages", len(sources))
		}
		if !((sources[0] == 1 && sources[1] == 2) || (sources[0] == 2 && sources[1] == 1)) {
			t.Fatalf("sources = %v", sources)
		}
	})
}

func TestIsendIrecvOverlapCorrectness(t *testing.T) {
	forEachNet(t, 2, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 2})
		if err := w.Run(func(r *Rank) {
			peer := 1 - r.Rank()
			n := 8
			var reqs []*Request
			for i := 0; i < n; i++ {
				reqs = append(reqs, r.Irecv(r.Malloc(1024), peer, i))
			}
			for i := 0; i < n; i++ {
				reqs = append(reqs, r.Isend(r.Malloc(1024), peer, i))
			}
			r.Waitall(reqs...)
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	forEachNet(t, 2, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 2})
		if err := w.Run(func(r *Rank) {
			peer := 1 - r.Rank()
			st := r.Sendrecv(r.Malloc(4096), peer, 3, r.Malloc(4096), peer, 3)
			if st.Source != peer {
				t.Errorf("rank %d: sendrecv source %d", r.Rank(), st.Source)
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDeadlockDetected(t *testing.T) {
	net := verbs.New(sim.New(), verbs.DefaultConfig(2))
	w := MustWorld(Config{Net: net, Procs: 2})
	err := w.Run(func(r *Rank) {
		// Everyone receives, nobody sends.
		r.Recv(r.Malloc(8), 1-r.Rank(), 0)
	})
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, procs := range []int{2, 3, 4, 5, 7, 8} {
		forEachNet(t, 8, func(t *testing.T, net dev.Network) {
			w := MustWorld(Config{Net: net, Procs: procs})
			after := make([]sim.Time, procs)
			lastBefore := sim.Time(0)
			if err := w.Run(func(r *Rank) {
				// Stagger entries.
				d := units.Time(r.Rank()*50) * units.Microsecond
				r.Compute(d)
				if d > lastBefore {
					lastBefore = d
				}
				r.Barrier()
				after[r.Rank()] = r.Wtime()
			}); err != nil {
				t.Fatal(err)
			}
			for rk, tm := range after {
				if tm < lastBefore {
					t.Fatalf("procs=%d rank %d left barrier at %v before last entry %v", procs, rk, tm, lastBefore)
				}
			}
		})
	}
}

func TestBcastReachesAll(t *testing.T) {
	forEachNet(t, 8, func(t *testing.T, net dev.Network) {
		for _, procs := range []int{2, 5, 8} {
			w := MustWorld(Config{Net: testNetworksFresh(net.Name(), 8), Procs: procs})
			done := make([]bool, procs)
			if err := w.Run(func(r *Rank) {
				buf := r.Malloc(4096)
				r.Bcast(buf, procs-1)
				done[r.Rank()] = true
			}); err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
			for rk, ok := range done {
				if !ok {
					t.Fatalf("procs=%d rank %d never finished bcast", procs, rk)
				}
			}
		}
	})
}

// testNetworksFresh builds a new network of the named kind (helper for
// loops that need several worlds per subtest).
func testNetworksFresh(name string, nodes int) dev.Network {
	return testNetworks(nodes)[name]()
}

func TestAllreduceCompletes(t *testing.T) {
	forEachNet(t, 8, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 8})
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(1024)
			for i := 0; i < 3; i++ {
				r.Allreduce(buf)
			}
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAlltoallCompletes(t *testing.T) {
	forEachNet(t, 8, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 8})
		if err := w.Run(func(r *Rank) {
			send := r.Malloc(8 * 1024)
			recv := r.Malloc(8 * 1024)
			r.Alltoall(send, recv)
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAlltoallvAsymmetric(t *testing.T) {
	forEachNet(t, 4, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 4})
		if err := w.Run(func(r *Rank) {
			p := r.Size()
			me := r.Rank()
			sendCounts := make([]int64, p)
			recvCounts := make([]int64, p)
			var sendTotal, recvTotal int64
			for i := 0; i < p; i++ {
				sendCounts[i] = int64((me + 1) * 1024)
				recvCounts[i] = int64((i + 1) * 1024)
				sendTotal += sendCounts[i]
				recvTotal += recvCounts[i]
			}
			r.Alltoallv(r.Malloc(sendTotal), r.Malloc(recvTotal), sendCounts, recvCounts)
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllgatherCompletes(t *testing.T) {
	forEachNet(t, 8, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 8})
		if err := w.Run(func(r *Rank) {
			block := int64(2048)
			r.Allgather(r.Malloc(block), r.Malloc(block*int64(r.Size())))
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestReduceCompletes(t *testing.T) {
	forEachNet(t, 8, func(t *testing.T, net dev.Network) {
		for _, procs := range []int{2, 3, 8} {
			w := MustWorld(Config{Net: testNetworksFresh(net.Name(), 8), Procs: procs})
			if err := w.Run(func(r *Rank) {
				r.Reduce(r.Malloc(8192), 0)
			}); err != nil {
				t.Fatalf("procs=%d: %v", procs, err)
			}
		}
	})
}

func TestIntraNodeUsesConfiguredChannel(t *testing.T) {
	// Two ranks on one node: Myrinet should be far faster intra-node than
	// Quadrics (shared memory vs NIC loopback).
	measure := func(net dev.Network) sim.Time {
		w := MustWorld(Config{Net: net, Procs: 2, ProcsPerNode: 2})
		var rtt sim.Time
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(64)
			if r.Rank() == 0 {
				start := r.Wtime()
				for i := 0; i < 10; i++ {
					r.Send(buf, 1, 0)
					r.Recv(buf, 1, 1)
				}
				rtt = (r.Wtime() - start) / 10
			} else {
				for i := 0; i < 10; i++ {
					r.Recv(buf, 0, 0)
					r.Send(buf, 0, 1)
				}
			}
		}); err != nil {
			panic(err)
		}
		return rtt
	}
	myri := measure(gm.New(sim.New(), gm.DefaultConfig(1)))
	qsn := measure(elan.New(sim.New(), elan.DefaultConfig(1)))
	if myri*2 >= qsn {
		t.Fatalf("intra-node RTT: Myri %v not clearly faster than QSN %v", myri, qsn)
	}
}

// TestPollingCompletion: Rank.Test drives progress until a receive
// completes, Request.Done then reports it without progress, and each rank
// reports the node its block mapping put it on.
func TestPollingCompletion(t *testing.T) {
	net := verbs.New(sim.New(), verbs.DefaultConfig(2))
	w := MustWorld(Config{Net: net, Procs: 4, ProcsPerNode: 2})
	if err := w.Run(func(r *Rank) {
		if want := r.Rank() / 2; r.Node() != want {
			t.Errorf("rank %d: Node = %d, want %d", r.Rank(), r.Node(), want)
		}
		peer := r.Rank() ^ 2 // the same slot on the other node
		req := r.Irecv(r.Malloc(64), peer, 0)
		if r.Test(req) || req.Done() {
			t.Errorf("rank %d: receive complete before its message was sent", r.Rank())
		}
		r.Send(r.Malloc(64), peer, 0)
		polls := 0
		for !r.Test(req) {
			polls++
			r.Compute(units.Microsecond)
		}
		if !req.Done() || polls == 0 {
			t.Errorf("rank %d: Done = %v after %d polls, want true after at least one", r.Rank(), req.Done(), polls)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockMapping(t *testing.T) {
	net := verbs.New(sim.New(), verbs.DefaultConfig(4))
	w := MustWorld(Config{Net: net, Procs: 8, ProcsPerNode: 2})
	if w.nodeOf(0) != 0 || w.nodeOf(1) != 0 || w.nodeOf(2) != 1 || w.nodeOf(7) != 3 {
		t.Fatalf("block mapping wrong: %d %d %d %d", w.nodeOf(0), w.nodeOf(1), w.nodeOf(2), w.nodeOf(7))
	}
}

func TestProfileRecordsCalls(t *testing.T) {
	net := verbs.New(sim.New(), verbs.DefaultConfig(2))
	w := MustWorld(Config{Net: net, Procs: 2})
	if err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.Malloc(100), 1, 0)
			r.Send(r.Malloc(5000), 1, 0)
			req := r.Isend(r.Malloc(200*1024), 1, 0)
			r.Wait(req)
			r.Allreduce(r.Malloc(64))
		} else {
			r.Recv(r.Malloc(100), 0, 0)
			r.Recv(r.Malloc(5000), 0, 0)
			r.Irecv(r.Malloc(200*1024), 0, 0)
			// Drain via wait-less progress: block on a fresh recv of the
			// allreduce decomposition happens inside the collective.
			r.Allreduce(r.Malloc(64))
		}
	}); err != nil {
		// rank 1's Irecv is never waited; world may finish anyway since
		// completion needs no further program action.
		t.Fatal(err)
	}
	p := w.Profile(0)
	if p.SendCalls != 2 || p.IsendCalls != 1 {
		t.Fatalf("sends=%d isends=%d", p.SendCalls, p.IsendCalls)
	}
	if p.CollCalls != 1 || p.CollByName["Allreduce"] != 1 {
		t.Fatalf("collectives: %+v", p.CollByName)
	}
	if p.SizeHist[0] != 2 || p.SizeHist[1] != 1 || p.SizeHist[2] != 1 {
		t.Fatalf("size histogram: %v", p.SizeHist)
	}
	// Collective decomposition must not leak into pt2pt counts.
	if p.PtPCalls != 3 {
		t.Fatalf("PtPCalls = %d, want 3", p.PtPCalls)
	}
}

func TestMemoryUsageGrowsOnlyForIBA(t *testing.T) {
	memAt := func(mk func() dev.Network, procs int) int64 {
		w := MustWorld(Config{Net: mk(), Procs: procs})
		return w.MemoryUsage(0)
	}
	nets := testNetworks(8)
	ibaGrowth := memAt(nets["IBA"], 8) - memAt(nets["IBA"], 2)
	if ibaGrowth <= 0 {
		t.Fatalf("IBA memory growth = %d, want positive", ibaGrowth)
	}
	for _, name := range []string{"Myri", "QSN"} {
		if g := memAt(nets[name], 8) - memAt(nets[name], 2); g != 0 {
			t.Fatalf("%s memory growth = %d, want flat", name, g)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		net := gm.New(sim.New(), gm.DefaultConfig(4))
		w := MustWorld(Config{Net: net, Procs: 4})
		var log string
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(32 * 1024)
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() - 1 + r.Size()) % r.Size()
			for i := 0; i < 5; i++ {
				r.Sendrecv(buf, next, i, buf, prev, i)
			}
			r.Allreduce(r.Malloc(512))
			if r.Rank() == 0 {
				log = fmt.Sprintf("t=%v busy=%v", r.Wtime(), r.HostBusy())
			}
		}); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("replay %d differs: %q vs %q", i, got, first)
		}
	}
}

func TestHostBusyAccounted(t *testing.T) {
	forEachNet(t, 2, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 2})
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(1024)
			if r.Rank() == 0 {
				r.Send(buf, 1, 0)
			} else {
				r.Recv(buf, 0, 0)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < 2; rank++ {
			if w.HostBusy(rank) <= 0 {
				t.Fatalf("rank %d host busy = %v, want positive", rank, w.HostBusy(rank))
			}
			if w.HostBusy(rank) > 50*units.Microsecond {
				t.Fatalf("rank %d host busy = %v, implausibly large", rank, w.HostBusy(rank))
			}
		}
	})
}

func TestManyProcsOneNodeSMP(t *testing.T) {
	forEachNet(t, 8, func(t *testing.T, net dev.Network) {
		w := MustWorld(Config{Net: net, Procs: 16, ProcsPerNode: 2})
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(4096)
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() - 1 + r.Size()) % r.Size()
			r.Sendrecv(buf, next, 0, buf, prev, 0)
			r.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
	})
}
