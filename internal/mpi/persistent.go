package mpi

import "mpinet/internal/memreg"

// PersistentRequest is a persistent communication request (MPI_Send_init /
// MPI_Recv_init): the envelope and buffer are fixed once, then the
// operation is started any number of times. Real codes (including NPB
// variants) use these to shave per-call setup off inner loops.
type PersistentRequest struct {
	c      *Comm
	isSend bool
	buf    memreg.Buf
	peer   int
	tag    int

	active *Request
}

// SendInit creates a persistent send request.
func (r *Rank) SendInit(buf memreg.Buf, dst, tag int) *PersistentRequest {
	c := r.CommWorld()
	c.check("SendInit", dst, tag, false)
	return &PersistentRequest{c: c, isSend: true, buf: buf, peer: dst, tag: tag}
}

// RecvInit creates a persistent receive request.
func (r *Rank) RecvInit(buf memreg.Buf, src, tag int) *PersistentRequest {
	c := r.CommWorld()
	c.check("RecvInit", src, tag, true)
	return &PersistentRequest{c: c, buf: buf, peer: src, tag: tag}
}

// Start begins one round of the persistent operation. The request must not
// already be active. Each round's request stays the caller's and is never
// recycled.
func (p *PersistentRequest) Start() {
	if p.active != nil && !p.active.done {
		panic("mpi: Start on an active persistent request")
	}
	if p.isSend {
		p.active = p.c.isend(p.buf, p.peer, p.tag, true)
		return
	}
	p.active = p.c.irecv(p.buf, p.peer, p.tag, true)
}

// Wait blocks until the started round completes and returns its status
// (zero Status for sends).
func (p *PersistentRequest) Wait() Status {
	if p.active == nil {
		panic("mpi: Wait on a never-started persistent request")
	}
	return p.c.r.waitOne(p.active)
}

// Startall begins a set of persistent requests (MPI_Startall).
func (r *Rank) Startall(reqs ...*PersistentRequest) {
	for _, p := range reqs {
		p.Start()
	}
}

// Waitallp waits for a set of persistent requests.
func (r *Rank) Waitallp(reqs ...*PersistentRequest) {
	for _, p := range reqs {
		p.Wait()
	}
}
