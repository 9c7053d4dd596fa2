package mpi

import (
	"mpinet/internal/memreg"
	"mpinet/internal/sim"
)

// Rank is the MPI handle a rank's program uses — the analogue of
// MPI_COMM_WORLD plus the process-local calls. It is only valid inside the
// function passed to World.Run and must not be shared across ranks.
type Rank struct {
	p  *sim.Proc
	ps *procState
	// world is this rank's MPI_COMM_WORLD, built with the Rank over the
	// world's shared rank list: every world call and collective goes
	// through it, and rebuilding a world-size []int per call was the
	// single largest allocation site in 1k-rank worlds. The list is
	// read-only (Split reads it, Dup copies it), so all ranks share it.
	world Comm
}

// Rank returns this process's rank in the world.
func (r *Rank) Rank() int { return r.ps.rank }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.ps.world.Size() }

// Node returns the node index this rank is mapped to.
func (r *Rank) Node() int { return r.ps.node }

// Wtime returns the current simulated time (MPI_Wtime).
func (r *Rank) Wtime() sim.Time { return r.p.Now() }

// Malloc allocates a fresh buffer in this rank's address space. Buffer
// identity feeds the registration caches and the reuse statistics, so
// benchmarks exercising reuse patterns must allocate rather than fabricate
// buffers.
func (r *Rank) Malloc(size int64) memreg.Buf { return r.ps.as.Alloc(size) }

// Compute advances simulated time by d of application computation. The MPI
// library makes no progress during it — exactly the behaviour the overlap
// micro-benchmark quantifies.
func (r *Rank) Compute(d sim.Time) { r.p.Sleep(d) }

// HostBusy returns the host CPU time this rank has spent inside the MPI
// library so far.
func (r *Rank) HostBusy() sim.Time { return r.ps.hostBusy }

// Send performs a blocking standard-mode send.
func (r *Rank) Send(buf memreg.Buf, dst, tag int) { r.world.Send(buf, dst, tag) }

// Ssend performs a blocking synchronous send (MPI_Ssend): it completes only
// once the receiver has posted the matching receive. Implemented, as MPICH
// does, as the standard send with the rendezvous protocol forced
// regardless of size.
func (r *Rank) Ssend(buf memreg.Buf, dst, tag int) {
	c := r.CommWorld()
	c.check("Ssend", dst, tag, false)
	c.send(buf, dst, tag, true)
}

// Bsend performs a buffered send (MPI_Bsend): the payload is copied into
// attached buffer space and the call returns immediately, whatever the
// size. Modelled as the host copy plus a send from library-owned staging
// whose completion nothing waits on, so its record is left to the garbage
// collector rather than returned to the free list.
func (r *Rank) Bsend(buf memreg.Buf, dst, tag int) {
	r.CommWorld().check("Bsend", dst, tag, false)
	ps := r.ps
	ps.poll(r.p)
	ps.busy(r.p, ps.ep.CopyTime(buf.Size))
	if !ps.quiet {
		ps.prof.Send(buf, ps.world.procs[dst].node == ps.node, false)
	}
	ps.quiet = true
	staging := ps.scratch(buf.Size)
	ps.startSend(r.p, staging, commWorldID, dst, tag, false, false)
	ps.quiet = false
}

// Recv performs a blocking receive. src may be AnySource, tag may be AnyTag.
func (r *Rank) Recv(buf memreg.Buf, src, tag int) Status {
	return r.world.Recv(buf, src, tag)
}

// Isend starts a non-blocking send.
func (r *Rank) Isend(buf memreg.Buf, dst, tag int) Request {
	return r.world.Isend(buf, dst, tag)
}

// Irecv starts a non-blocking receive.
func (r *Rank) Irecv(buf memreg.Buf, src, tag int) Request {
	return r.world.Irecv(buf, src, tag)
}

// Sendrecv performs the blocking exchange (MPI_Sendrecv).
func (r *Rank) Sendrecv(sendBuf memreg.Buf, dst, sendTag int, recvBuf memreg.Buf, src, recvTag int) Status {
	c := r.CommWorld()
	c.check("Sendrecv", dst, sendTag, false)
	c.check("Sendrecv", src, recvTag, true)
	rr := c.irecv(recvBuf, src, recvTag, false)
	r.wait(c.isend(sendBuf, dst, sendTag, false))
	return r.wait(rr)
}
