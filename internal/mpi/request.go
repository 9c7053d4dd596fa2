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

// Request is a non-blocking operation handle, completed through Wait /
// Waitall.
type Request struct {
	ps      *procState
	isSend  bool
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
	rndv    bool
	done    bool

	matched *inMsg // receives: the arrival this request is bound to
	status  Status
}

// newRequest takes a zeroed Request from the rank's free list, allocating
// only on a pool miss. Requests are owned by their rank, so the per-rank
// pool needs no locking.
func (ps *procState) newRequest() *Request {
	if n := len(ps.reqFree); n > 0 {
		r := ps.reqFree[n-1]
		ps.reqFree[n-1] = nil
		ps.reqFree = ps.reqFree[:n-1]
		return r
	}
	ps.reqAllocs++
	return &Request{}
}

// releaseReq zeroes a completed request and returns it to the free list.
// Only waitFree calls it, for requests the library owns: a request handed
// to the user (Isend, Irecv, a persistent request's round) is never
// recycled.
func (ps *procState) releaseReq(r *Request) {
	*r = Request{}
	ps.reqFree = append(ps.reqFree, r)
}

// Done reports whether the operation has completed (MPI_Test without the
// progress side effects; use Rank.Test to also drive progress).
func (r *Request) Done() bool { return r.done }

// complete marks a receive finished and detaches it from the queues.
func (r *Request) complete(src, tag int, size int64) {
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
func (r *Request) completeSend() {
	r.done = true
	r.ps.record(trace.EvSendDone, r.peer, r.tag, r.comm, r.size)
	r.ps.finishReq(r, r.ps.sendSpans)
	r.ps.notify()
}
