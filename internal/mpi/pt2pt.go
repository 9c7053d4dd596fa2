package mpi

import (
	"fmt"

	"mpinet/internal/dev"
	"mpinet/internal/memreg"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// Fixed library costs of the device-independent layer.
const (
	// postCost is the bookkeeping cost of queueing a receive that cannot
	// complete immediately (host-driven devices; NIC-matching devices pay
	// their full receive overhead at post instead).
	postCost = 100 * units.Nanosecond
	// rndvStep is the host cost of one rendezvous protocol step (parsing an
	// RTS/CTS, building the reply descriptor) on host-driven devices.
	rndvStep = 300 * units.Nanosecond
)

// isendImpl starts a send and returns its request. Blocking Send is
// isendImpl + Wait.
func (ps *procState) isendImpl(p *sim.Proc, buf memreg.Buf, dst, tag int, nonblocking bool) *Request {
	if dst < 0 || dst >= ps.world.Size() {
		panic(fmt.Sprintf("mpi: rank %d sending to invalid rank %d", ps.rank, dst))
	}
	if tag < 0 {
		panic("mpi: user tags must be non-negative")
	}
	ps.poll(p)
	return ps.startSend(p, buf, commWorldID, dst, tag, nonblocking)
}

// startSend is isendImpl minus validation/polling, shared with internal
// collective traffic (which uses reserved negative tags).
func (ps *procState) startSend(p *sim.Proc, buf memreg.Buf, comm, dst, tag int, nonblocking bool) *Request {
	dstPS := ps.world.procs[dst]
	sameNode := dstPS.node == ps.node
	if !ps.quiet {
		ps.prof.Send(buf, sameNode, nonblocking)
	}

	req := ps.newRequest()
	*req = Request{
		ps:     ps,
		isSend: true,
		buf:    buf,
		comm:   comm,
		peer:   dst,
		tag:    tag,
		size:   buf.Size,
		born:   ps.eng.Now(),
	}
	ps.sendSeq++
	req.seq = ps.sendSeq
	req.tid = msgtrace.MakeID(ps.rank, req.seq)
	ps.record(trace.EvSendStart, dst, tag, comm, buf.Size)

	rec := ps.world.rec
	if sameNode && buf.Size < ps.world.shmemBelow() {
		rec.Begin(req.tid, int32(ps.rank), int32(dst), int32(tag), req.size, msgtrace.KindShmem, req.born)
		ps.shmSend(p, req, dstPS)
		return req
	}
	if !sameNode {
		ps.markNICPeer(dst)
	}
	switch {
	case buf.Size <= ps.ep.EagerThreshold():
		rec.Begin(req.tid, int32(ps.rank), int32(dst), int32(tag), req.size, msgtrace.KindEager, req.born)
		ps.eagerSend(p, req, dstPS)
	default:
		rec.Begin(req.tid, int32(ps.rank), int32(dst), int32(tag), req.size, msgtrace.KindRndv, req.born)
		ps.rndvSend(p, req, dstPS)
	}
	return req
}

// shmSend crosses the intra-node shared-memory channel: the sender copies
// into the shared segment and the message is visible a half-handshake later.
func (ps *procState) shmSend(p *sim.Proc, req *Request, dstPS *procState) {
	ch := ps.world.shm[ps.node]
	copyCost := ch.CopyTime(req.size)
	start := ps.eng.Now()
	ps.busy(p, ch.HalfHandshake()+copyCost)
	ch.CountCopy(req.size, copyCost)
	if rec := ps.world.rec; rec.Sampled(req.tid) {
		now := ps.eng.Now()
		rec.Span(req.tid, msgtrace.StageSend, ps.rank, -1, 0, -1, start, now-copyCost, req.size)
		rec.Span(req.tid, msgtrace.StageCopy, ps.rank, -1, 0, -1, now-copyCost, now, req.size)
	}
	m := &inMsg{comm: req.comm, src: ps.rank, tag: req.tag, size: req.size, seq: req.seq, tid: req.tid, kind: eagerMsg, ch: chShm}
	ch.Deliver(func() { dstPS.arrive(m) })
	req.done = true
	ps.record(trace.EvSendDone, req.peer, req.tag, req.comm, req.size)
	ps.finishReq(req, ps.sendSpans)
}

// eagerSend copies into pre-registered staging (VAPI/GM) or hands the user
// buffer to the NIC (Elan) and pushes envelope+payload through the wire.
func (ps *procState) eagerSend(p *sim.Proc, req *Request, dstPS *procState) {
	rec := ps.world.rec
	sendCost := ps.ep.IssueStall() + ps.ep.SendOverhead(req.size)
	var regCost, copyCost sim.Time
	if ps.ep.AcquireOnEager() {
		regCost = ps.ep.AcquireBuf(req.buf)
	} else {
		copyCost = ps.ep.CopyTime(req.size)
		ps.eagerCopies.Inc()
	}
	start := ps.eng.Now()
	ps.busy(p, sendCost+regCost+copyCost)
	if rec.Sampled(req.tid) {
		rec.Span(req.tid, msgtrace.StageSend, ps.rank, -1, 0, -1, start, start+sendCost, req.size)
		if ps.ep.AcquireOnEager() {
			// Zero-length span = registration cache hit; a real observation.
			rec.Span(req.tid, msgtrace.StageRegister, ps.rank, -1, 0, -1, start+sendCost, start+sendCost+regCost, req.size)
		} else {
			rec.Span(req.tid, msgtrace.StageCopy, ps.rank, -1, 0, -1, start+sendCost, start+sendCost+copyCost, req.size)
		}
	}
	m := &inMsg{comm: req.comm, src: ps.rank, tag: req.tag, size: req.size, seq: req.seq, tid: req.tid, kind: eagerMsg, ch: chNet}
	rec.SetCur(req.tid)
	ps.ep.Eager(dstPS.node, req.size, func() { dstPS.arrive(m) })
	rec.ClearCur()
	req.done = true
	ps.record(trace.EvSendDone, req.peer, req.tag, req.comm, req.size)
	ps.finishReq(req, ps.sendSpans)
}

// rndvSend opens the rendezvous: register the buffer, send RTS, and wait
// for the CTS/data exchange to complete the request.
func (ps *procState) rndvSend(p *sim.Proc, req *Request, dstPS *procState) {
	req.rndv = true
	rec := ps.world.rec
	sendCost := ps.ep.IssueStall() + ps.ep.SendOverhead(req.size)
	regCost := ps.ep.AcquireBuf(req.buf)
	start := ps.eng.Now()
	ps.busy(p, sendCost+regCost)
	if rec.Sampled(req.tid) {
		rec.Span(req.tid, msgtrace.StageSend, ps.rank, -1, 0, -1, start, start+sendCost, req.size)
		rec.Span(req.tid, msgtrace.StageRegister, ps.rank, -1, 0, -1, start+sendCost, start+sendCost+regCost, req.size)
	}
	req.hsStart = ps.eng.Now()
	m := &inMsg{comm: req.comm, src: ps.rank, tag: req.tag, size: req.size, seq: req.seq, tid: req.tid, kind: rtsMsg, ch: chNet, sender: req}
	rec.SetCur(req.tid)
	ps.ep.Control(dstPS.node, func() { dstPS.arrive(m) })
	rec.ClearCur()
}

// arrive handles a message landing at this rank (event context: no host
// time may be charged here). On NIC-matching devices (Tports) the match
// itself takes NIC time proportional to the pending-entry count.
func (ps *procState) arrive(m *inMsg) {
	if m.ch == chNet && ps.world.procs[m.src].node != ps.node {
		// Receive side of a cross-node connection: account it here, on this
		// rank's own engine, never from the sender's shard.
		ps.markNICPeer(m.src)
	}
	if nm, ok := ps.ep.(dev.NICMatcher); ok && m.ch == chNet {
		pending := len(ps.posted) + len(ps.unexp)
		if rec := ps.world.rec; rec.Sampled(m.tid) {
			start := ps.eng.Now()
			nm.MatchDelay(pending, func() {
				rec.Span(m.tid, msgtrace.StageMatch, ps.rank, -1, 0, -1, start, ps.eng.Now(), m.size)
				ps.arriveMatched(m)
			})
			return
		}
		nm.MatchDelay(pending, func() { ps.arriveMatched(m) })
		return
	}
	ps.arriveMatched(m)
}

func (ps *procState) arriveMatched(m *inMsg) {
	ps.record(trace.EvArrive, m.src, m.tag, m.comm, m.size)
	r := ps.matchPosted(m.comm, m.src, m.tag)
	if r == nil {
		ps.unexp = append(ps.unexp, m)
		ps.unexpHW.Set(int64(len(ps.unexp)))
		ps.notify()
		return
	}
	r.matched = m
	m.matched = true
	// The receive was posted first and waited for this arrival: the gap is
	// the receiver's exposed wait (clipped to the message's own interval by
	// the blame decomposition).
	ps.world.rec.Span(m.tid, msgtrace.StageWait, ps.rank, -1, 0, -1, r.born, ps.eng.Now(), m.size)
	switch m.kind {
	case eagerMsg:
		ps.deliverEager(r, m, false)
	case rtsMsg:
		ps.acceptRndv(r, m, false)
	}
}

// deliverEager completes a matched eager receive. inline reports whether we
// are already running on the receiving rank's process (receive posted
// against an unexpected arrival) — then p is valid and costs are paid
// directly; otherwise a host action is enqueued (or, for NIC-matching
// devices with a pre-posted receive, completion is free and immediate).
func (ps *procState) deliverEager(r *Request, m *inMsg, inline bool, pOpt ...*sim.Proc) {
	finish := func() { r.complete(m.src, m.tag, m.size) }
	// work charges the completion cost on the rank's process and records the
	// receive-side span over exactly the charged interval.
	work := func(p *sim.Proc, cost sim.Time) {
		start := ps.eng.Now()
		ps.busy(p, cost)
		ps.world.rec.Span(m.tid, msgtrace.StageDeliver, ps.rank, -1, 0, -1, start, ps.eng.Now(), m.size)
		finish()
	}
	switch {
	case m.ch == chShm:
		ch := ps.world.shm[ps.node]
		copyCost := ch.CopyTime(m.size)
		ch.CountCopy(m.size, copyCost)
		cost := ch.HalfHandshake() + copyCost
		if inline {
			work(pOpt[0], cost)
		} else {
			ps.enqueue(func(p *sim.Proc) { work(p, cost) })
		}
	case ps.ep.NICProgress() && !inline:
		// Pre-posted receive on a NIC-matching device: payload lands in the
		// user buffer with no host involvement.
		finish()
	case ps.ep.NICProgress() && inline:
		// Unexpected on a NIC-matching device: drain from NIC buffering.
		ps.eagerCopies.Inc()
		work(pOpt[0], ps.ep.CopyTime(m.size))
	default:
		ps.eagerCopies.Inc()
		cost := ps.ep.RecvOverhead(m.size) + ps.ep.CopyTime(m.size)
		if inline {
			work(pOpt[0], cost)
		} else {
			ps.enqueue(func(p *sim.Proc) { work(p, cost) })
		}
	}
}

// acceptRndv reacts to a matched RTS: make the receive buffer NIC-usable
// and send the CTS. On NIC-matching devices the NIC does this without the
// host.
func (ps *procState) acceptRndv(r *Request, m *inMsg, inline bool, pOpt ...*sim.Proc) {
	rec := ps.world.rec
	sendCTS := func() {
		srcPS := ps.world.procs[m.src]
		rec.SetCur(m.tid)
		ps.ep.Control(srcPS.node, func() { srcPS.arriveCTS(m, ps, r) })
		rec.ClearCur()
	}
	// prep registers the receive buffer and parses the RTS on the host,
	// recording the acquire as the receiver's registration span.
	prep := func(p *sim.Proc) {
		start := ps.eng.Now()
		ps.busy(p, rndvStep+ps.ep.AcquireBuf(r.buf))
		rec.Span(m.tid, msgtrace.StageRegister, ps.rank, -1, 0, -1, start, ps.eng.Now(), m.size)
	}
	switch {
	case ps.ep.NICProgress():
		// Buffer acquisition was paid when the receive was posted.
		sendCTS()
	case inline:
		prep(pOpt[0])
		sendCTS()
	default:
		ps.enqueue(func(p *sim.Proc) {
			prep(p)
			sendCTS()
		})
	}
}

// arriveCTS reacts, at the sender, to the receiver's clear-to-send: start
// the zero-copy bulk transfer.
func (ps *procState) arriveCTS(m *inMsg, dstPS *procState, r *Request) {
	rec := ps.world.rec
	// The RTS->CTS round trip the sender just completed is the rendezvous
	// handshake: it started when the RTS left (hsStart) and ends now.
	rec.Span(m.tid, msgtrace.StageHandshake, ps.rank, -1, 0, -1, m.sender.hsStart, ps.eng.Now(), m.size)
	startBulk := func() {
		rec.SetCur(m.tid)
		ps.ep.Bulk(dstPS.node, m.size, func() {
			// Payload is in the receiver's user buffer. The bulk completion
			// runs on the receiver's domain; the sender-side FIN must land on
			// the sender's own engine. The hop is taken whenever the nodes
			// differ — not only when the engines do — so its extra latency is
			// identical at every shard count, and it carries the receiver
			// node's deterministic skew like every other cross-domain event.
			w := ps.world
			if w.scale && dstPS.node != ps.node {
				dstPS.eng.ScheduleOn(ps.eng, w.finLat+w.skew(dstPS.node), func() {
					m.sender.completeSend()
				})
			} else {
				m.sender.completeSend()
			}
			if dstPS.ep.NICProgress() {
				r.complete(m.src, m.tag, m.size)
			} else {
				dstPS.enqueue(func(p *sim.Proc) {
					start := dstPS.eng.Now()
					dstPS.busy(p, dstPS.ep.RecvOverhead(m.size))
					rec.Span(m.tid, msgtrace.StageDeliver, dstPS.rank, -1, 0, -1, start, dstPS.eng.Now(), m.size)
					r.complete(m.src, m.tag, m.size)
				})
			}
		})
		rec.ClearCur()
	}
	if ps.ep.NICProgress() {
		startBulk()
		return
	}
	ps.enqueue(func(p *sim.Proc) {
		start := ps.eng.Now()
		ps.busy(p, rndvStep)
		rec.Span(m.tid, msgtrace.StageSend, ps.rank, -1, 0, -1, start, ps.eng.Now(), m.size)
		startBulk()
	})
}

// irecvImpl posts a receive and returns its request.
func (ps *procState) irecvImpl(p *sim.Proc, buf memreg.Buf, src, tag int, nonblocking bool) *Request {
	if src != AnySource && (src < 0 || src >= ps.world.Size()) {
		panic(fmt.Sprintf("mpi: rank %d receiving from invalid rank %d", ps.rank, src))
	}
	ps.poll(p)
	return ps.startRecv(p, buf, commWorldID, src, tag, nonblocking)
}

// startRecv is irecvImpl minus validation/polling, shared with collectives.
func (ps *procState) startRecv(p *sim.Proc, buf memreg.Buf, comm, src, tag int, nonblocking bool) *Request {
	sameNode := src != AnySource && ps.world.procs[src].node == ps.node
	if !ps.quiet {
		ps.prof.Recv(buf, sameNode, nonblocking)
	}

	r := ps.newRequest()
	*r = Request{
		ps:   ps,
		buf:  buf,
		comm: comm,
		src:  src,
		tag:  tag,
		size: buf.Size,
		born: ps.eng.Now(),
	}
	ps.record(trace.EvRecvPost, src, tag, comm, buf.Size)
	if m := ps.matchUnexpected(comm, src, tag); m != nil {
		m.matched = true
		r.matched = m
		ps.removeUnexpected(m)
		// Keep the request discoverable for completion bookkeeping.
		ps.posted = append(ps.posted, r)
		ps.postedHW.Set(int64(len(ps.posted)))
		switch m.kind {
		case eagerMsg:
			ps.deliverEager(r, m, true, p)
		case rtsMsg:
			if ps.ep.NICProgress() {
				ps.busy(p, ps.ep.RecvOverhead(buf.Size)+ps.ep.AcquireBuf(buf))
			}
			ps.acceptRndv(r, m, true, p)
		}
		return r
	}
	// Nothing has arrived: queue the receive first — an arrival during the
	// posting cost below must find it — then charge the cost.
	ps.posted = append(ps.posted, r)
	ps.postedHW.Set(int64(len(ps.posted)))
	if ps.ep.NICProgress() {
		// Tports posts the descriptor (and MMU entries) to the NIC now.
		ps.busy(p, ps.ep.RecvOverhead(buf.Size)+ps.ep.AcquireBuf(buf))
	} else {
		ps.busy(p, postCost)
	}
	return r
}
