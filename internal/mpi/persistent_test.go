package mpi

import (
	"testing"

	"mpinet/internal/cluster"
)

func TestPersistentPingPong(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		buf := r.Malloc(4096)
		peer := 1 - r.Rank()
		var send, recv *PersistentRequest
		if r.Rank() == 0 {
			send = r.SendInit(buf, peer, 0)
			recv = r.RecvInit(buf, peer, 1)
		} else {
			recv = r.RecvInit(buf, peer, 0)
			send = r.SendInit(buf, peer, 1)
		}
		for i := 0; i < 10; i++ {
			if r.Rank() == 0 {
				send.Start()
				send.Wait()
				recv.Start()
				recv.Wait()
			} else {
				recv.Start()
				st := recv.Wait()
				if st.Size != 4096 {
					t.Errorf("iteration %d: size %d", i, st.Size)
				}
				send.Start()
				send.Wait()
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentWaitFreesRound: Wait frees each started round, so rounds
// reuse one record, and a second Wait on the inactive request returns a
// zero Status at once, as MPI_Wait does.
func TestPersistentWaitFreesRound(t *testing.T) {
	run := func(rounds int) int {
		w := MustWorld(Config{Net: cluster.QSN().New(2), Procs: 2})
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(512)
			if r.Rank() == 0 {
				send := r.SendInit(buf, 1, 0)
				for i := 0; i < rounds; i++ {
					send.Start()
					send.Wait()
				}
				return
			}
			recv := r.RecvInit(buf, 0, 0)
			for i := 0; i < rounds; i++ {
				recv.Start()
				if st := recv.Wait(); st.Size != 512 {
					t.Errorf("round %d: size %d, want 512", i, st.Size)
				}
				if st := recv.Wait(); st != (Status{}) {
					t.Errorf("round %d: second Wait = %+v, want a zero Status", i, st)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return reqAllocTotal(w)
	}
	if small, large := run(2), run(16); large != small {
		t.Errorf("persistent rounds leak from the pool: %d misses at 2 rounds, %d at 16", small, large)
	}
}

func TestPersistentStartall(t *testing.T) {
	w := MustWorld(Config{Net: cluster.Myri().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		peer := 1 - r.Rank()
		sends := make([]*PersistentRequest, 4)
		recvs := make([]*PersistentRequest, 4)
		for i := range sends {
			sends[i] = r.SendInit(r.Malloc(1024), peer, i)
			recvs[i] = r.RecvInit(r.Malloc(1024), peer, i)
		}
		for round := 0; round < 3; round++ {
			r.Startall(recvs...)
			r.Startall(sends...)
			r.Waitallp(sends...)
			r.Waitallp(recvs...)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistentDoubleStartPanics(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	_ = w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			// Rendezvous-size send stays active until matched — second
			// Start must panic.
			p := r.SendInit(r.Malloc(256*1024), 1, 0)
			p.Start()
			p.Start()
		} else {
			r.Compute(1 << 30)
		}
	})
}

func TestPersistentWaitWithoutStartPanics(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Wait without Start did not panic")
		}
	}()
	_ = w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.RecvInit(r.Malloc(8), 1, 0).Wait()
		}
	})
}
