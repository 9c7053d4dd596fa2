package mpi

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"mpinet/internal/cluster"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestTruncationFailsTyped(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.Malloc(1024), 1, 0)
		} else {
			r.Recv(r.Malloc(100), 0, 0) // too small
		}
	})
	if err == nil {
		t.Fatal("truncation did not fail the run")
	}
	if !errors.Is(err, ErrTruncate) {
		t.Fatalf("err %v is not ErrTruncate", err)
	}
	var te *TruncateError
	if !errors.As(err, &te) {
		t.Fatalf("err %v carries no *TruncateError", err)
	}
	if te.Rank != 1 || te.Size != 1024 || te.Buf != 100 {
		t.Fatalf("TruncateError = %+v, want rank 1, 1024 into 100", te)
	}
	if s := err.Error(); !strings.Contains(s, "truncation") {
		t.Fatalf("error %q does not name truncation", s)
	}
}

func TestRecvIntoLargerBufferOK(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(r.Malloc(100), 1, 0)
		} else {
			st := r.Recv(r.Malloc(1024), 0, 0)
			if st.Size != 100 {
				t.Errorf("status size %d, want the message's 100", st.Size)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitany(t *testing.T) {
	w := MustWorld(Config{Net: cluster.Myri().New(3), Procs: 3})
	if err := w.Run(func(r *Rank) {
		switch r.Rank() {
		case 0:
			// Two receives; rank 2's message is delayed, rank 1's prompt.
			a := r.Irecv(r.Malloc(64), 1, 1)
			b := r.Irecv(r.Malloc(64), 2, 2)
			idx, st := r.Waitany([]*Request{a, b})
			if idx != 0 || st.Source != 1 {
				t.Errorf("first completion idx=%d st=%+v, want the prompt sender", idx, st)
			}
			r.Wait(b)
		case 1:
			r.Send(r.Malloc(64), 0, 1)
		case 2:
			r.Compute(500 * units.Microsecond)
			r.Send(r.Malloc(64), 0, 2)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScanChain(t *testing.T) {
	w := MustWorld(Config{Net: cluster.QSN().New(4), Procs: 4})
	exits := make([]sim.Time, 4)
	if err := w.Run(func(r *Rank) {
		r.Scan(r.Malloc(4096))
		exits[r.Rank()] = r.Wtime()
	}); err != nil {
		t.Fatal(err)
	}
	// A linear chain: each rank exits no earlier than its predecessor.
	for i := 1; i < 4; i++ {
		if exits[i] < exits[i-1] {
			t.Fatalf("scan chain order violated: %v", exits)
		}
	}
}

// Property: any random permutation exchange completes without deadlock, on
// every network, for mixed message sizes.
func TestRandomPermutationExchanges(t *testing.T) {
	f := func(seed uint32) bool {
		nets := cluster.OSU()
		net := nets[int(seed)%len(nets)]
		procs := 4 + int(seed>>8)%5 // 4..8
		w := MustWorld(Config{Net: net.New(8), Procs: procs})
		// Derive a permutation deterministically from the seed.
		perm := make([]int, procs)
		for i := range perm {
			perm[i] = i
		}
		s := seed
		for i := procs - 1; i > 0; i-- {
			s = s*1664525 + 1013904223
			j := int(s) % (i + 1)
			if j < 0 {
				j = -j
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		inv := make([]int, procs)
		for i, p := range perm {
			inv[p] = i
		}
		size := int64(1) << (4 + seed%14) // 16B .. 128KB
		err := w.Run(func(r *Rank) {
			buf := r.Malloc(size)
			rr := r.Irecv(r.Malloc(size), inv[r.Rank()], 0)
			r.Send(buf, perm[r.Rank()], 0)
			r.Wait(rr)
		})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: N ordered messages between a pair arrive in order for any mix
// of sizes straddling the eager/rendezvous threshold.
func TestMessageOrderingProperty(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		if len(sizesRaw) == 0 || len(sizesRaw) > 12 {
			return true
		}
		w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
		sizes := make([]int64, len(sizesRaw))
		for i, s := range sizesRaw {
			sizes[i] = int64(s)*16 + 1 // up to ~1MB, crossing thresholds
		}
		ok := true
		err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				for i, s := range sizes {
					r.Send(r.Malloc(s), 1, i)
				}
			} else {
				for i, s := range sizes {
					st := r.Recv(r.Malloc(s), 0, i)
					if st.Size != s || st.Tag != i {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSsendWaitsForReceiver(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	var sendDone, recvPosted sim.Time
	if err := w.Run(func(r *Rank) {
		buf := r.Malloc(64) // small — a plain Send would complete at issue
		if r.Rank() == 0 {
			r.Ssend(buf, 1, 0)
			sendDone = r.Wtime()
		} else {
			r.Compute(400 * units.Microsecond)
			recvPosted = r.Wtime()
			r.Recv(buf, 0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sendDone <= recvPosted {
		t.Fatalf("Ssend completed at %v, before the receive was posted at %v", sendDone, recvPosted)
	}
}

func TestUtilizationsReported(t *testing.T) {
	w := MustWorld(Config{Net: cluster.Myri().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		buf := r.Malloc(64 * 1024)
		if r.Rank() == 0 {
			r.Send(buf, 1, 0)
		} else {
			r.Recv(buf, 0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	us := w.Utilizations()
	if len(us) == 0 {
		t.Fatal("no utilizations reported")
	}
	var busyTotal sim.Time
	names := map[string]bool{}
	for _, u := range us {
		if names[u.Resource] {
			t.Errorf("duplicate resource %q", u.Resource)
		}
		names[u.Resource] = true
		busyTotal += u.Busy
	}
	if busyTotal <= 0 {
		t.Fatal("all resources idle after a 64KB transfer")
	}
	if !names["myri0/lanai"] || !names["myri1/bus"] {
		t.Fatalf("expected resources missing: %v", names)
	}
}

func TestBsendReturnsImmediatelyAndDelivers(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2})
	var sendReturned, recvDone sim.Time
	size := int64(256 * 1024) // rendezvous territory
	if err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			buf := r.Malloc(size)
			r.Bsend(buf, 1, 0)
			sendReturned = r.Wtime()
			// Keep making MPI progress so the buffered rendezvous can
			// complete (a real Bsend relies on later library entry too).
			r.Barrier()
		} else {
			r.Recv(r.Malloc(size), 0, 0)
			recvDone = r.Wtime()
			r.Barrier()
		}
	}); err != nil {
		t.Fatal(err)
	}
	if sendReturned >= recvDone {
		t.Fatalf("Bsend returned at %v, not before delivery at %v", sendReturned, recvDone)
	}
}
