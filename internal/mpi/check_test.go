package mpi

import (
	"fmt"
	"strings"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/memreg"
	"mpinet/internal/sim"
)

// rankPanic runs main on a procs-rank world and returns the value a rank
// panicked with ("" if none did) and Run's error. Ranks left parked by the
// panic are reaped.
func rankPanic(procs int, main func(r *Rank)) (msg string, err error) {
	w := MustWorld(Config{Net: cluster.IBA().New(procs), Procs: procs})
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		pf, ok := v.(*sim.ProcFailure)
		if !ok {
			panic(v)
		}
		w.Engine().Reap()
		msg = fmt.Sprint(pf.Value)
	}()
	return "", w.Run(main)
}

// TestUserEntriesCheckPeerAndTag: every user point-to-point entry, on Rank
// and on a communicator, refuses a peer outside the communicator and a tag
// that is not a user tag, with a panic that names the call. A receive with
// a collective's tag would otherwise match the library's own traffic: a
// Recv with tagBarrier takes the barrier's message and the job deadlocks.
func TestUserEntriesCheckPeerAndTag(t *testing.T) {
	type entry struct {
		name string
		recv bool
		call func(r *Rank, buf memreg.Buf, peer, tag int)
	}
	entries := []entry{
		{"Send", false, func(r *Rank, b memreg.Buf, p, tag int) { r.Send(b, p, tag) }},
		{"Ssend", false, func(r *Rank, b memreg.Buf, p, tag int) { r.Ssend(b, p, tag) }},
		{"Bsend", false, func(r *Rank, b memreg.Buf, p, tag int) { r.Bsend(b, p, tag) }},
		{"Isend", false, func(r *Rank, b memreg.Buf, p, tag int) { r.Isend(b, p, tag) }},
		{"SendInit", false, func(r *Rank, b memreg.Buf, p, tag int) { r.SendInit(b, p, tag) }},
		{"Sendrecv", false, func(r *Rank, b memreg.Buf, p, tag int) { r.Sendrecv(b, p, tag, b, 0, 0) }},
		{"Sendrecv", true, func(r *Rank, b memreg.Buf, p, tag int) { r.Sendrecv(b, 0, 0, b, p, tag) }},
		{"Recv", true, func(r *Rank, b memreg.Buf, p, tag int) { r.Recv(b, p, tag) }},
		{"Irecv", true, func(r *Rank, b memreg.Buf, p, tag int) { r.Irecv(b, p, tag) }},
		{"RecvInit", true, func(r *Rank, b memreg.Buf, p, tag int) { r.RecvInit(b, p, tag) }},
		{"Probe", true, func(r *Rank, b memreg.Buf, p, tag int) { r.Probe(p, tag) }},
		{"Iprobe", true, func(r *Rank, b memreg.Buf, p, tag int) { r.Iprobe(p, tag) }},
		{"Send", false, func(r *Rank, b memreg.Buf, p, tag int) { r.CommWorld().Send(b, p, tag) }},
		{"Isend", false, func(r *Rank, b memreg.Buf, p, tag int) { r.CommWorld().Isend(b, p, tag) }},
		{"Recv", true, func(r *Rank, b memreg.Buf, p, tag int) { r.CommWorld().Recv(b, p, tag) }},
		{"Irecv", true, func(r *Rank, b memreg.Buf, p, tag int) { r.CommWorld().Irecv(b, p, tag) }},
	}
	type bad struct {
		what      string
		peer, tag int
		want      string
	}
	for i, e := range entries {
		cases := []bad{
			{"peer = size", 2, 0, "rank 2 is not in the communicator"},
			{"negative peer", -5, 0, "rank -5 is not in the communicator"},
			{"negative tag", 0, -1, "tag -1 is not a user tag"},
			{"collective tag", 0, tagBarrier, fmt.Sprintf("tag %d is not a user tag", tagBarrier)},
		}
		if e.recv {
			cases[2] = bad{"AnySource with a collective tag", AnySource, tagBcast, fmt.Sprintf("tag %d is not a user tag", tagBcast)}
		} else {
			cases = append(cases,
				bad{"AnySource", AnySource, 0, "rank -1 is not in the communicator"},
				bad{"AnyTag", 0, AnyTag, fmt.Sprintf("tag %d is not a user tag", AnyTag)})
		}
		for _, bc := range cases {
			// Rank 0 sends rank 1 a barrier message, as a barrier's first
			// round does, so a receive that accepts the collective tag
			// consumes it and leaves the barrier stuck.
			msg, err := rankPanic(2, func(r *Rank) {
				if r.Rank() == 0 {
					r.Barrier()
					return
				}
				e.call(r, r.Malloc(64), bc.peer, bc.tag)
				r.Barrier()
			})
			want := "mpi: " + e.name + ": " + bc.want
			if !strings.HasPrefix(msg, want) {
				t.Errorf("entry %d (%s), %s: panic %q, Run error %v; want a panic starting %q",
					i, e.name, bc.what, msg, err, want)
			}
		}
	}
}

// TestSubCommCheckUsesGroup: a communicator's check bounds peers by its
// own group, so a world rank outside it is refused.
func TestSubCommCheckUsesGroup(t *testing.T) {
	msg, err := rankPanic(4, func(r *Rank) {
		sub := r.CommWorld().Split(r.Rank()%2, 0)
		if r.Rank() == 0 {
			sub.Send(r.Malloc(64), 2, 0)
		}
	})
	if want := "mpi: Send: rank 2 is not in the communicator (size 2)"; msg != want {
		t.Fatalf("panic %q, Run error %v; want %q", msg, err, want)
	}
}

// TestCommRecvCountsAsBlocking: a communicator's Recv is a blocking receive
// in the rank's profile, as Rank.Recv is.
func TestCommRecvCountsAsBlocking(t *testing.T) {
	w := MustWorld(Config{Net: cluster.Myri().New(2), Procs: 2})
	if err := w.Run(func(r *Rank) {
		c := r.CommWorld()
		if r.Rank() == 0 {
			c.Send(r.Malloc(64), 1, 0)
		} else {
			c.Recv(r.Malloc(64), 0, 0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if p := w.Profile(1); p.RecvCalls != 1 || p.IrecvCalls != 0 {
		t.Fatalf("RecvCalls=%d IrecvCalls=%d, want 1 and 0", p.RecvCalls, p.IrecvCalls)
	}
}

// TestCommWaitRejectsBadRequest: a communicator's Wait checks its request
// as Rank.Wait does, nil and another rank's alike.
func TestCommWaitRejectsBadRequest(t *testing.T) {
	const want = "mpi: Wait on foreign or nil request"
	msg, err := rankPanic(2, func(r *Rank) { r.CommWorld().Wait(Request{}) })
	if msg != want {
		t.Errorf("Wait(nil): panic %q, Run error %v; want %q", msg, err, want)
	}
	var foreign Request
	msg, err = rankPanic(2, func(r *Rank) {
		if r.Rank() == 0 {
			foreign = r.Isend(r.Malloc(64), 1, 0)
			r.Wait(foreign)
			return
		}
		r.Recv(r.Malloc(64), 0, 0)
		r.CommWorld().Wait(foreign)
	})
	if msg != want {
		t.Errorf("Wait(foreign): panic %q, Run error %v; want %q", msg, err, want)
	}
}

// TestHandleCheckNamesTheCall: every call that takes a request handle
// refuses a null handle, another rank's live handle and a handle whose
// request a Wait already freed, with a panic that names the call. Waitall
// and Waitany skip null handles instead, as MPI does with MPI_REQUEST_NULL,
// and Done has no rank to match a handle against.
func TestHandleCheckNamesTheCall(t *testing.T) {
	const (
		bad   = " on foreign or nil request"
		stale = " on a freed request (a Wait already completed it)"
	)
	calls := []struct {
		name      string
		skipsNull bool
		noRank    bool
		call      func(r *Rank, h Request)
	}{
		{"Wait", false, false, func(r *Rank, h Request) { r.Wait(h) }},
		{"Wait", false, false, func(r *Rank, h Request) { r.CommWorld().Wait(h) }},
		{"Waitall", true, false, func(r *Rank, h Request) { r.Waitall(h) }},
		{"Waitany", true, false, func(r *Rank, h Request) { r.Waitany([]Request{h}) }},
		{"Test", false, false, func(r *Rank, h Request) { r.Test(h) }},
		{"Done", false, true, func(r *Rank, h Request) { h.Done() }},
	}
	for i, c := range calls {
		msg, err := rankPanic(2, func(r *Rank) { c.call(r, Request{}) })
		if want := "mpi: " + c.name + bad; c.skipsNull && (msg != "" || err != nil) || !c.skipsNull && msg != want {
			t.Errorf("call %d (%s), null handle: panic %q, Run error %v", i, c.name, msg, err)
		}

		// Rank 0's eager send is complete, but rank 0 waits on it only after
		// rank 1's reply, so the handle is live when rank 1 reaches for it.
		var foreign Request
		msg, err = rankPanic(2, func(r *Rank) {
			if r.Rank() == 0 {
				foreign = r.Isend(r.Malloc(64), 1, 0)
				r.Send(r.Malloc(64), 1, 1)
				r.Recv(r.Malloc(64), 1, 2)
				r.Wait(foreign)
				return
			}
			r.Recv(r.Malloc(64), 0, 1)
			c.call(r, foreign)
			r.Send(r.Malloc(64), 0, 2)
			r.Recv(r.Malloc(64), 0, 0)
		})
		if want := "mpi: " + c.name + bad; c.noRank && (msg != "" || err != nil) || !c.noRank && msg != want {
			t.Errorf("call %d (%s), another rank's handle: panic %q, Run error %v; want %q", i, c.name, msg, err, want)
		}

		msg, err = rankPanic(2, func(r *Rank) {
			if r.Rank() == 0 {
				h := r.Isend(r.Malloc(64), 1, 0)
				r.Wait(h)
				// The freed record is the next one taken: the stale handle
				// must not reach the new request.
				next := r.Irecv(r.Malloc(64), 1, 1)
				c.call(r, h)
				r.Wait(next)
				return
			}
			r.Recv(r.Malloc(64), 0, 0)
			r.Send(r.Malloc(64), 0, 1)
		})
		if want := "mpi: " + c.name + stale; msg != want {
			t.Errorf("call %d (%s), freed handle: panic %q, Run error %v; want %q", i, c.name, msg, err, want)
		}
	}
}
