package mpi

import (
	"mpinet/internal/memreg"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Size   int64
	// Err is non-nil when the operation completed exceptionally under
	// Config.FaultTolerant: the peer rank died and the wait was resolved
	// with a *RankFailedError (errors.Is(Err, ErrRankFailed)) instead of a
	// message. Size is 0 and Source names the dead rank in that case.
	Err error
}

// Request is a handle on a nonblocking operation (MPI_Request): a small
// value whose zero is the null handle (MPI_REQUEST_NULL). Wait, Waitall
// and Waitany complete the operation and free it, as MPI_Wait does, so a
// handle is spent once waited: using it again panics by name instead of
// reaching the record its rank has since reused.
type Request struct {
	r   *request
	gen uint32
}

// request is the record behind a handle, from post to the Wait that frees
// it. Records belong to their rank, which recycles them through its free
// list; gen counts the record's uses, so a handle from an earlier use no
// longer matches it.
type request struct {
	ps      *procState
	isSend  bool
	done    bool
	gen     uint32
	buf     memreg.Buf
	comm    int // communicator context id
	peer    int // destination (sends) — senders always name their target
	src     int // source pattern (receives); may be AnySource
	tag     int
	size    int64
	seq     int64
	tid     msgtrace.ID // sends: the message's trace ID
	born    sim.Time    // post time, for request-lifetime accounting
	hsStart sim.Time    // rendezvous sends: when the RTS left, for the handshake span

	matched *inMsg // receives: the arrival this request is bound to
	status  Status
}

// handle returns the user's handle on the record's current use.
func (r *request) handle() Request { return Request{r, r.gen} }

// rec returns the record h names for call on the rank ps, panicking with
// the call's name on a null handle, another rank's, or one whose request
// a Wait has already freed. Done passes a nil ps: it has no rank to match.
func (h Request) rec(call string, ps *procState) *request {
	if h.r == nil || ps != nil && h.r.ps != ps {
		panic("mpi: " + call + " on foreign or nil request")
	}
	if h.r.gen != h.gen {
		panic("mpi: " + call + " on a freed request (a Wait already completed it)")
	}
	return h.r
}

// Done reports whether the operation has completed (MPI_Test without the
// progress side effects; use Rank.Test to also drive progress).
func (h Request) Done() bool { return h.rec("Done", nil).done }

// newRequest takes a record from the rank's free list, allocating only on
// a pool miss. Records are owned by their rank, so the per-rank pool needs
// no locking.
func (ps *procState) newRequest() *request {
	if n := len(ps.reqFree); n > 0 {
		r := ps.reqFree[n-1]
		ps.reqFree[n-1] = nil
		ps.reqFree = ps.reqFree[:n-1]
		return r
	}
	ps.reqAllocs++
	return &request{ps: ps}
}

// releaseReq frees a completed request and returns its status: the record
// goes back to the free list zeroed, with its generation bumped so every
// handle on the finished use goes stale.
func (ps *procState) releaseReq(r *request) Status {
	st, gen := r.status, r.gen+1
	*r = request{}
	r.ps, r.gen = ps, gen
	ps.reqFree = append(ps.reqFree, r)
	return st
}

// Wait blocks until the request completes, frees it and returns its status
// (MPI_Wait).
func (r *Rank) Wait(h Request) Status { return r.world.Wait(h) }

// Waitall waits for every request in turn, skipping null handles
// (MPI_Waitall).
func (r *Rank) Waitall(hs ...Request) {
	for _, h := range hs {
		if h.r != nil {
			r.wait(h.rec("Waitall", r.ps))
		}
	}
}

// Test drives progress once and reports whether the request has completed
// (MPI_Test's flag). It only reads: the request stays live until a Wait
// frees it.
func (r *Rank) Test(h Request) bool {
	req := h.rec("Test", r.ps)
	r.ps.poll(r.p)
	return req.done
}

// Waitany blocks until one of the requests completes, frees it, sets its
// slot to the null handle and returns its index and status (MPI_Waitany).
// Null handles are skipped; when every handle is null it returns -1 and a
// zero Status at once (MPI_UNDEFINED).
func (r *Rank) Waitany(hs []Request) (int, Status) {
	idx := -1
	for i, h := range hs {
		if h.r != nil {
			h.rec("Waitany", r.ps)
			idx = i
		}
	}
	if idx < 0 {
		return -1, Status{}
	}
	r.ps.waitFor(r.p, waitReason{text: "waitany"}, func() bool {
		for i, h := range hs {
			req := h.r
			if req == nil {
				continue
			}
			if !req.done {
				if failed, ok := r.ps.world.peerFailed(req); ok {
					r.ps.failPeer(req, failed, "waitany")
				}
			}
			if req.done {
				idx = i
				return true
			}
		}
		return false
	})
	req := hs[idx].r
	hs[idx] = Request{}
	return idx, r.ps.releaseReq(req)
}

// wait blocks until req completes, then frees it: the one way a request
// ends, for the user's waits and the library's own alike.
func (r *Rank) wait(req *request) Status {
	why := waitReason{text: r.ps.waitWhy}
	if r.ps.world.cfg.Timeout > 0 {
		// With the watchdog armed, the wait reason names the stuck operation
		// and peer, so a TimeoutError does too; it is formatted only if read.
		why = waitReason{req: req}
	}
	r.ps.waitFor(r.p, why, func() bool {
		if !req.done {
			// Rank-death notification: a wait on a dead peer resolves —
			// exceptionally completed under FaultTolerant, a typed job abort
			// otherwise — instead of riding the watchdog to a TimeoutError.
			if failed, ok := r.ps.world.peerFailed(req); ok {
				r.ps.failPeer(req, failed, why.String())
			}
		}
		return req.done
	})
	return r.ps.releaseReq(req)
}

// complete marks a receive finished and detaches it from the queues.
func (r *request) complete(src, tag int, size int64) {
	if size > r.buf.Size {
		// MPI_ERR_TRUNCATE: the payload does not fit the posted buffer. As
		// in an MPI run with errors-are-fatal, that is a hard stop naming
		// the culprit — recorded as the job's fault so World.Run returns a
		// typed error (errors.Is(err, ErrTruncate)) once the ranks abort.
		r.ps.world.fail(&TruncateError{
			Rank: r.ps.rank, Src: src, Tag: tag, Size: size, Buf: r.buf.Size,
		})
		return
	}
	r.done = true
	r.status = Status{Source: src, Tag: tag, Size: size}
	r.ps.removePosted(r)
	if r.matched != nil {
		r.ps.world.rec.Finish(r.matched.tid, r.ps.eng.Now())
	}
	r.ps.record(trace.EvRecvDone, src, tag, r.comm, size)
	r.ps.finishReq(r, r.ps.recvSpans)
	r.ps.notify()
}

// completeSend marks a send finished.
func (r *request) completeSend() {
	r.done = true
	r.ps.record(trace.EvSendDone, r.peer, r.tag, r.comm, r.size)
	r.ps.finishReq(r, r.ps.sendSpans)
	r.ps.notify()
}
