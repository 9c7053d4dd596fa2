package mpi

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestCommWorldMirrorsRank(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(4), Procs: 4})
	if err := w.Run(func(r *Rank) {
		c := r.CommWorld()
		if c.Rank() != r.Rank() || c.Size() != r.Size() {
			t.Errorf("world comm mismatch: %d/%d vs %d/%d", c.Rank(), c.Size(), r.Rank(), r.Size())
		}
		if c.WorldRank(c.Rank()) != r.Rank() {
			t.Error("identity translation broken")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommSendRecv(t *testing.T) {
	w := MustWorld(Config{Net: cluster.Myri().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		c := r.CommWorld()
		buf := r.Malloc(1024)
		if c.Rank() == 0 {
			c.Send(buf, 1, 5)
		} else {
			st := c.Recv(buf, 0, 5)
			if st.Source != 0 || st.Size != 1024 {
				t.Errorf("status %+v", st)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(8), Procs: 8})
	if err := w.Run(func(r *Rank) {
		c := r.CommWorld()
		sub := c.Split(r.Rank()%2, r.Rank())
		if sub.Size() != 4 {
			t.Errorf("rank %d: split size %d, want 4", r.Rank(), sub.Size())
		}
		if want := r.Rank() / 2; sub.Rank() != want {
			t.Errorf("rank %d: sub rank %d, want %d", r.Rank(), sub.Rank(), want)
		}
		// Communicate within the subgroup: ring sendrecv.
		buf := r.Malloc(256)
		next := (sub.Rank() + 1) % sub.Size()
		prev := (sub.Rank() - 1 + sub.Size()) % sub.Size()
		rr := sub.Irecv(buf, prev, 9)
		sub.Send(buf, next, 9)
		st := sub.Wait(rr)
		if st.Source != prev {
			t.Errorf("rank %d: sub recv source %d, want %d", r.Rank(), st.Source, prev)
		}
		// Subgroup collectives work and stay inside the group.
		sub.Allreduce(buf)
		sub.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitKeyReordersRanks(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(4), Procs: 4})
	if err := w.Run(func(r *Rank) {
		c := r.CommWorld()
		// All one color; keys reverse the order.
		sub := c.Split(0, -r.Rank())
		want := c.Size() - 1 - r.Rank()
		if sub.Rank() != want {
			t.Errorf("rank %d: sub rank %d, want %d", r.Rank(), sub.Rank(), want)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestContextIsolation(t *testing.T) {
	// A message sent on a duplicate must not match a receive on the world
	// communicator with the same source and tag.
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		c := r.CommWorld()
		dup := c.Dup()
		buf := r.Malloc(64)
		if r.Rank() == 0 {
			dup.Send(buf, 1, 3) // context: dup
			r.Send(buf, 1, 3)   // context: world
		} else {
			// Receive the world message first even though the dup message
			// arrived earlier.
			r.Compute(200 * units.Microsecond)
			st := r.Recv(buf, 0, 3)
			if st.Size != 64 {
				t.Errorf("world recv: %+v", st)
			}
			dst := dup.Recv(buf, 0, 3)
			if dst.Source != 0 {
				t.Errorf("dup recv: %+v", dst)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialSplitsIsolated(t *testing.T) {
	// Two back-to-back splits produce distinct contexts and consistent
	// groups.
	w := MustWorld(Config{Net: cluster.QSN().New(4), Procs: 4})
	if err := w.Run(func(r *Rank) {
		c := r.CommWorld()
		a := c.Split(r.Rank()%2, 0)
		b := c.Split(r.Rank()/2, 0)
		if a.id == b.id {
			t.Errorf("rank %d: splits share context %d", r.Rank(), a.id)
		}
		a.Barrier()
		b.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSingletonGroups(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(4), Procs: 4})
	if err := w.Run(func(r *Rank) {
		sub := r.CommWorld().Split(r.Rank(), 0) // every rank its own group
		if sub.Size() != 1 || sub.Rank() != 0 {
			t.Errorf("rank %d: singleton group %d/%d", r.Rank(), sub.Rank(), sub.Size())
		}
		sub.Barrier() // trivial but must not hang
		sub.Allreduce(r.Malloc(64))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSubCommCollectivesRespectGroup(t *testing.T) {
	// Row communicators of a 2x4 grid: a row barrier must not wait for the
	// other row.
	w := MustWorld(Config{Net: cluster.IBA().New(8), Procs: 8})
	exits := make([]sim.Time, 8)
	if err := w.Run(func(r *Rank) {
		row := r.Rank() / 4
		sub := r.CommWorld().Split(row, r.Rank())
		if row == 1 {
			// Row 1 dawdles; row 0's barrier must not be delayed by it.
			r.Compute(units.FromSeconds(0.01))
		}
		sub.Barrier()
		exits[r.Rank()] = r.Wtime()
	}); err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < 4; rank++ {
		if exits[rank] > units.FromSeconds(0.005) {
			t.Errorf("row 0 rank %d exited at %v — waited for row 1", rank, exits[rank])
		}
	}
}

func TestCommIsendIrecv(t *testing.T) {
	w := MustWorld(Config{Net: cluster.Myri().New(4), Procs: 4})
	if err := w.Run(func(r *Rank) {
		sub := r.CommWorld().Split(r.Rank()%2, 0)
		buf := r.Malloc(32 * units.KB) // rendezvous within the subgroup
		peer := 1 - sub.Rank()
		rr := sub.Irecv(buf, peer, 0)
		sr := sub.Isend(buf, peer, 0)
		sub.Wait(sr)
		st := sub.Wait(rr)
		if st.Source != peer {
			t.Errorf("sub irecv source %d, want %d", st.Source, peer)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommRecvAnySourceTranslatesRank(t *testing.T) {
	// A sub-communicator receive from AnySource must report the source as a
	// communicator rank, not a world rank.
	w := MustWorld(Config{Net: cluster.IBA().New(8), Procs: 8})
	if err := w.Run(func(r *Rank) {
		// Odd ranks form a group: world ranks 1,3,5,7 -> comm ranks 0..3.
		sub := r.CommWorld().Split(r.Rank()%2, 0)
		if r.Rank()%2 == 1 {
			buf := r.Malloc(64)
			if sub.Rank() == 0 { // world rank 1
				st := sub.Recv(buf, AnySource, 5)
				if st.Source != 3 { // world rank 7 is comm rank 3
					t.Errorf("source = %d (comm rank), want 3", st.Source)
				}
			} else if sub.Rank() == 3 { // world rank 7
				sub.Send(buf, 0, 5)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCommWaitTranslatesSource(t *testing.T) {
	w := MustWorld(Config{Net: cluster.QSN().New(4), Procs: 4})
	if err := w.Run(func(r *Rank) {
		sub := r.CommWorld().Split(0, -r.Rank()) // reversed order, all together
		buf := r.Malloc(128)
		me := sub.Rank()
		peer := sub.Size() - 1 - me
		if me == peer {
			return
		}
		rr := sub.Irecv(buf, peer, 1)
		sub.Send(buf, peer, 1)
		st := sub.Wait(rr)
		if st.Source != peer {
			t.Errorf("comm rank %d: source %d, want %d", me, st.Source, peer)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWorldRankBoundsPanic(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range WorldRank did not panic")
		}
	}()
	_ = w.Run(func(r *Rank) {
		r.CommWorld().WorldRank(5)
	})
}

func TestSpawnDuringRun(t *testing.T) {
	// Engine.Spawn from inside a running process (dynamic process creation)
	// must interleave deterministically.
	e := sim.New()
	var order []int
	e.Spawn("parent", func(p *sim.Proc) {
		order = append(order, 1)
		e.Spawn("child", func(c *sim.Proc) {
			order = append(order, 2)
			c.Sleep(10)
			order = append(order, 4)
		})
		p.Sleep(5)
		order = append(order, 3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 4 {
		t.Fatalf("order = %v", order)
	}
}

// TestSubCommBcastReduce runs the rooted collectives on a sub-communicator:
// every member leaves the broadcast no earlier than its root entered it,
// and a reduce into a non-zero group rank completes in both groups.
func TestSubCommBcastReduce(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(8), Procs: 8})
	entered := make([]sim.Time, 2)
	left := make([]sim.Time, 8)
	if err := w.Run(func(r *Rank) {
		sub := r.CommWorld().Split(r.Rank()%2, r.Rank())
		buf := r.Malloc(1024)
		if sub.Rank() == 1 {
			r.Compute(units.Time(10*(r.Rank()+1)) * units.Microsecond)
			entered[r.Rank()%2] = r.Wtime()
		}
		sub.Bcast(buf, 1)
		left[r.Rank()] = r.Wtime()
		sub.Reduce(buf, 2)
	}); err != nil {
		t.Fatal(err)
	}
	for rank, at := range left {
		if at < entered[rank%2] {
			t.Errorf("rank %d left the group broadcast at %v, before its root entered at %v", rank, at, entered[rank%2])
		}
	}
}
