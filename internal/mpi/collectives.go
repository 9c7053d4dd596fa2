package mpi

import (
	"mpinet/internal/dev"
	"mpinet/internal/memreg"
	"mpinet/internal/units"
)

// reduceBW is the host rate of combining two operand streams (MPI_SUM-like
// ops on the paper's 2.4 GHz Xeons).
var reduceBW = units.MBps(800)

// collective opens a collective call: it records the call once and
// silences point-to-point profiling of its decomposition until the caller's
// endCollective, matching what the MPICH logging interface sees at the MPI
// layer:
//
//	defer r.collective("Gather", sendBuf.Size, sendBuf, recvBuf).endCollective()
//
// The algorithm then runs in the caller's own frame, not in a closure
// called from here: two frames fewer on every rank's stack, which a
// thousand-rank world holds a thousand of. The straight-line collectives
// close with a plain call instead of a defer, a defer record lighter still:
// a panic out of a collective ends its rank, so nothing reads the profile
// state it leaves.
func (r *Rank) collective(name string, bytes int64, bufs ...memreg.Buf) *procState {
	r.ps.prof.Collective(name, bytes, bufs...)
	r.ps.quiet = true
	return r.ps
}

// endCollective resumes point-to-point profiling after a collective.
func (ps *procState) endCollective() { ps.quiet = false }

// Barrier blocks until every rank has entered it (dissemination algorithm,
// correct for any world size).
func (r *Rank) Barrier() { r.CommWorld().Barrier() }

// Bcast broadcasts buf from root. By default it runs the MPICH 1.2.x
// binomial tree; on a platform with the hardware-multicast extension
// enabled (and one rank per node) the payload rides a single
// switch-replicated injection instead.
func (r *Rank) Bcast(buf memreg.Buf, root int) {
	if mc, ok := r.ps.ep.(hwMulticaster); ok && mc.HWMulticastEnabled() &&
		r.ps.world.cfg.ProcsPerNode == 1 && r.Size() > 1 {
		r.hwBcast(mc, buf, root)
		return
	}
	// Comm.Bcast's body, one frame shallower on every rank's stack, as in
	// Allreduce.
	ps := r.collective("Bcast", buf.Size, buf)
	r.CommWorld().bcastBody(buf, root)
	ps.endCollective()
}

// Reduce combines contributions into root over a binomial tree, charging
// the combine cost per received operand (commutative operation assumed, as
// for the workloads' MPI_SUM/MPI_MAX).
func (r *Rank) Reduce(buf memreg.Buf, root int) { r.CommWorld().Reduce(buf, root) }

// Allreduce is Reduce to rank 0 followed by Bcast — the MPICH 1.2.x
// composition, whose 2·log2(P) latency chain is why the lowest-latency
// interconnect (Quadrics) wins this operation in the paper. It runs
// Comm.Allreduce's body, one frame shallower on every rank's stack.
func (r *Rank) Allreduce(buf memreg.Buf) {
	ps := r.collective("Allreduce", buf.Size, buf)
	c := r.CommWorld()
	c.reduceBody(buf, 0)
	c.bcastBody(buf, 0)
	ps.endCollective()
}

// hwMulticaster is the optional device capability behind the accelerated
// broadcast (the paper's Section 3.7 extension).
type hwMulticaster interface {
	dev.Multicaster
	HWMulticastEnabled() bool
}

// hwBcast is the multicast fast path: the root injects once; every other
// rank waits for the switch-replicated delivery.
func (r *Rank) hwBcast(mc hwMulticaster, buf memreg.Buf, root int) {
	defer r.collective("Bcast", buf.Size, buf).endCollective()
	ps := r.ps
	if r.Rank() == root {
		ps.busy(r.p, ps.ep.SendOverhead(buf.Size)+ps.ep.CopyTime(buf.Size))
		world := ps.world
		mc.Multicast(buf.Size, func(node int) {
			// One rank per node: the rank index equals the node index.
			dst := world.procs[node]
			dst.mcSeen++
			dst.notify()
		})
		return
	}
	ps.mcTaken++
	want := ps.mcTaken
	ps.waitFor(r.p, waitReason{text: "hw-bcast"}, func() bool { return ps.mcSeen >= want })
	ps.busy(r.p, ps.ep.RecvOverhead(buf.Size)+ps.ep.CopyTime(buf.Size))
}

// Communicator-scoped collectives. Each records the call on this rank's
// profile and runs the same algorithms as the world-level operations, but
// scoped to the communicator's group and matching context.

// Barrier blocks until every communicator member has entered it
// (dissemination algorithm, correct for any group size).
func (c *Comm) Barrier() {
	defer c.r.collective("Barrier", 0).endCollective()
	p := c.Size()
	if p == 1 {
		return
	}
	zero := c.r.ps.scratch(0)
	for k := 1; k < p; k <<= 1 {
		dst := (c.me + k) % p
		src := (c.me - k + p) % p
		sr := c.isend(zero, dst, tagBarrier, true)
		rr := c.irecv(zero, src, tagBarrier, true)
		c.r.wait(sr)
		c.r.wait(rr)
	}
}

// Bcast broadcasts buf from the communicator rank root.
func (c *Comm) Bcast(buf memreg.Buf, root int) {
	ps := c.r.collective("Bcast", buf.Size, buf)
	c.bcastBody(buf, root)
	ps.endCollective()
}

// Reduce combines contributions into the communicator rank root.
func (c *Comm) Reduce(buf memreg.Buf, root int) {
	ps := c.r.collective("Reduce", buf.Size, buf)
	c.reduceBody(buf, root)
	ps.endCollective()
}

// Allreduce combines contributions into every member.
func (c *Comm) Allreduce(buf memreg.Buf) {
	ps := c.r.collective("Allreduce", buf.Size, buf)
	c.reduceBody(buf, 0)
	c.bcastBody(buf, 0)
	ps.endCollective()
}

// bcastBody is the binomial-tree broadcast over this communicator.
func (c *Comm) bcastBody(buf memreg.Buf, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	relative := (c.me - root + p) % p
	mask := 1
	for mask < p {
		if relative&mask != 0 {
			src := c.me - mask
			if src < 0 {
				src += p
			}
			c.recv(buf, src, tagBcast)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < p {
			dst := c.me + mask
			if dst >= p {
				dst -= p
			}
			c.send(buf, dst, tagBcast, false)
		}
		mask >>= 1
	}
}

// reduceBody is the binomial-tree reduction over this communicator.
func (c *Comm) reduceBody(buf memreg.Buf, root int) {
	p := c.Size()
	if p == 1 {
		return
	}
	relative := (c.me - root + p) % p
	tmp := c.r.ps.scratch(buf.Size)
	mask := 1
	for mask < p {
		if relative&mask == 0 {
			srcRel := relative | mask
			if srcRel < p {
				src := (srcRel + root) % p
				c.recv(tmp, src, tagReduce)
				c.r.ps.busy(c.r.p, reduceBW.TimeFor(buf.Size))
			}
		} else {
			dst := (relative - mask + root) % p
			c.send(buf, dst, tagReduce, false)
			break
		}
		mask <<= 1
	}
}

// Alltoall exchanges equal-size blocks between all rank pairs: every rank
// sends sendBuf's i-th block to rank i. Implemented as the MPICH 1.2.x
// basic algorithm — post all receives, post all sends (rotated to avoid
// hot-spotting), wait for everything.
func (r *Rank) Alltoall(sendBuf, recvBuf memreg.Buf) {
	p := int64(r.Size())
	if sendBuf.Size%p != 0 || recvBuf.Size%p != 0 {
		panic("mpi: Alltoall buffers must divide evenly by world size")
	}
	block := sendBuf.Size / p
	counts := r.ps.int64Scratch(&r.ps.cntScratch, int(p))
	for i := range counts {
		counts[i] = block
	}
	defer r.collective("Alltoall", sendBuf.Size, sendBuf, recvBuf).endCollective()
	r.alltoallvBody(sendBuf, recvBuf, counts, counts)
}

// Alltoallv is the variable-block variant; sendCounts[i] bytes go to rank i
// and recvCounts[i] bytes are expected from rank i.
func (r *Rank) Alltoallv(sendBuf, recvBuf memreg.Buf, sendCounts, recvCounts []int64) {
	if len(sendCounts) != r.Size() || len(recvCounts) != r.Size() {
		panic("mpi: Alltoallv counts must have world-size entries")
	}
	var total int64
	for _, c := range sendCounts {
		total += c
	}
	defer r.collective("Alltoallv", total, sendBuf, recvBuf).endCollective()
	r.alltoallvBody(sendBuf, recvBuf, sendCounts, recvCounts)
}

func (r *Rank) alltoallvBody(sendBuf, recvBuf memreg.Buf, sendCounts, recvCounts []int64) {
	c := r.CommWorld()
	p := r.Size()
	me := r.Rank()
	// Offsets and the request list live in per-rank scratch: collectives are
	// not reentrant per rank, and the basic alltoall posts 2(p-1) requests
	// per call — a real allocation stream at a thousand ranks.
	off := r.ps.int64Scratch(&r.ps.offScratch, 2*p)
	sendOff, recvOff := off[:p], off[p:]
	var so, ro int64
	for i := 0; i < p; i++ {
		sendOff[i], recvOff[i] = so, ro
		so += sendCounts[i]
		ro += recvCounts[i]
	}
	reqs := r.ps.reqScratch[:0]
	for i := 1; i < p; i++ {
		src := (me - i + p) % p
		if recvCounts[src] > 0 {
			reqs = append(reqs, c.irecv(recvBuf.Slice(recvOff[src], recvCounts[src]), src, tagAlltoall, true))
		}
	}
	for i := 1; i < p; i++ {
		dst := (me + i) % p
		if sendCounts[dst] > 0 {
			reqs = append(reqs, c.isend(sendBuf.Slice(sendOff[dst], sendCounts[dst]), dst, tagAlltoall, true))
		}
	}
	// Local block "copies" itself; charge the memcpy.
	if sendCounts[me] > 0 {
		r.ps.busy(r.p, r.ps.ep.CopyTime(sendCounts[me]))
	}
	r.ps.reqScratch = reqs[:0]
	for _, req := range reqs {
		r.wait(req)
	}
}

// int64Scratch returns a length-n view of a reusable per-rank slice,
// growing the backing array only when a larger collective comes along.
func (ps *procState) int64Scratch(s *[]int64, n int) []int64 {
	if cap(*s) < n {
		*s = make([]int64, n)
	}
	return (*s)[:n]
}

// Allgather gathers equal-size blocks from all ranks to all ranks over a
// ring: step s passes rank (me-s)'s block along. recvBuf must hold
// world-size blocks; sendBuf is this rank's block.
func (r *Rank) Allgather(sendBuf, recvBuf memreg.Buf) {
	p := int64(r.Size())
	if recvBuf.Size%p != 0 {
		panic("mpi: Allgather recv buffer must divide evenly by world size")
	}
	block := recvBuf.Size / p
	if sendBuf.Size != block {
		panic("mpi: Allgather send buffer must be one block")
	}
	defer r.collective("Allgather", recvBuf.Size, sendBuf, recvBuf).endCollective()
	n := r.Size()
	if n == 1 {
		return
	}
	c, me := r.CommWorld(), r.Rank()
	right := (me + 1) % n
	left := (me - 1 + n) % n
	// Own block "arrives" by local copy.
	r.ps.busy(r.p, r.ps.ep.CopyTime(block))
	for s := 0; s < n-1; s++ {
		outIdx := (me - s + n) % n
		inIdx := (me - s - 1 + n) % n
		sr := c.isend(recvBuf.Slice(int64(outIdx)*block, block), right, tagAllgather, true)
		rr := c.irecv(recvBuf.Slice(int64(inIdx)*block, block), left, tagAllgather, true)
		r.wait(sr)
		r.wait(rr)
	}
}
