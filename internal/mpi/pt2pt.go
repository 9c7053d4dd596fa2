package mpi

import (
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

// startSend starts a send of buf to world rank dst in context comm, with
// no checks: the communicator's primitives and Bsend call it once the
// caller's arguments have passed them, and collective traffic uses
// reserved negative tags. A nonblocking send is profiled as an Isend; a
// synchronous one (Ssend) takes the rendezvous protocol whatever its size
// or path, so it completes only once the receive is posted.
func (ps *procState) startSend(p *sim.Proc, buf memreg.Buf, comm, dst, tag int, nonblocking, sync bool) *Request {
	dstPS := ps.world.procs[dst]
	sameNode := dstPS.node == ps.node
	if !ps.quiet {
		ps.prof.Send(buf, sameNode, nonblocking)
	}

	// The request comes zeroed; filling it field by field keeps a
	// Request-sized temporary out of this frame, which every send's stack
	// holds.
	req := ps.newRequest()
	req.ps, req.isSend, req.buf = ps, true, buf
	req.comm, req.peer, req.tag = comm, dst, tag
	req.size, req.born = buf.Size, ps.eng.Now()
	ps.sendSeq++
	req.seq = ps.sendSeq
	req.tid = msgtrace.MakeID(ps.rank, req.seq)
	ps.record(trace.EvSendStart, dst, tag, comm, buf.Size)

	rec := ps.world.rec
	if sameNode && buf.Size < ps.world.shmBelow && !sync {
		rec.Begin(req.tid, int32(ps.rank), int32(dst), int32(tag), req.size, msgtrace.KindShmem, req.born)
		ps.shmSend(p, req, dstPS)
		return req
	}
	if !sameNode {
		ps.markNICPeer(dst)
	}
	switch {
	case buf.Size <= ps.ep.EagerThreshold() && !sync:
		rec.Begin(req.tid, int32(ps.rank), int32(dst), int32(tag), req.size, msgtrace.KindEager, req.born)
		ps.eagerSend(p, req, dstPS)
	default:
		rec.Begin(req.tid, int32(ps.rank), int32(dst), int32(tag), req.size, msgtrace.KindRndv, req.born)
		ps.rndvSend(p, req, dstPS)
	}
	return req
}

// newMsg takes a message record from the world's free list for req's
// payload (or its RTS) from this rank to rank to.
func (ps *procState) newMsg(req *Request, to *procState, kind msgKind, ch chKind) *inMsg {
	m := ps.world.newInMsg()
	m.comm, m.src, m.tag, m.size, m.seq, m.tid = req.comm, ps.rank, req.tag, req.size, req.seq, req.tid
	m.kind, m.ch, m.to = kind, ch, to
	if kind == rtsMsg {
		m.sender = req
	}
	return m
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
	ch.Deliver(ps.newMsg(req, dstPS, eagerMsg, chShm).match)
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
	m := ps.newMsg(req, dstPS, eagerMsg, chNet)
	ps.ep.Eager(dstPS.node, req.size, req.tid, m.arrived)
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
	m := ps.newMsg(req, dstPS, rtsMsg, chNet)
	ps.ep.Control(dstPS.node, req.tid, m.arrived)
}

// arrive handles a message landing at this rank (event context: no host
// time may be charged here). On NIC-matching devices (Tports) the match
// itself takes NIC time proportional to the pending-entry count.
func (ps *procState) arrive(m *inMsg) {
	if m.ch == chNet && ps.world.procs[m.src].node != ps.node {
		// Receive side of a cross-node connection: account it here, at
		// arrival on the receiving rank.
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
		nm.MatchDelay(pending, m.match)
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
	bind(r, m)
	// The receive was posted first and waited for this arrival: the gap is
	// the receiver's exposed wait (clipped to the message's own interval by
	// the blame decomposition).
	ps.world.rec.Span(m.tid, msgtrace.StageWait, ps.rank, -1, 0, -1, r.born, ps.eng.Now(), m.size)
	switch m.kind {
	case eagerMsg:
		ps.deliverEager(m, nil)
	case rtsMsg:
		ps.acceptRndv(m, nil)
	}
}

// bind matches receive r with message m.
func bind(r *Request, m *inMsg) {
	r.matched, m.req = m, r
	m.matched = true
}

// deliverEager completes a matched eager receive. A non-nil p means we are
// already running on the receiving rank's process (receive posted against
// an unexpected arrival), so costs are paid directly; otherwise a host
// action is enqueued (or, for NIC-matching devices with a pre-posted
// receive, completion is free and immediate).
func (ps *procState) deliverEager(m *inMsg, p *sim.Proc) {
	switch {
	case m.ch == chShm:
		ch := ps.world.shm[ps.node]
		copyCost := ch.CopyTime(m.size)
		ch.CountCopy(m.size, copyCost)
		ps.deliverOn(p, m, ch.HalfHandshake()+copyCost)
	case ps.ep.NICProgress() && p == nil:
		// Pre-posted receive on a NIC-matching device: payload lands in the
		// user buffer with no host involvement.
		ps.completeRecv(m)
	case ps.ep.NICProgress():
		// Unexpected on a NIC-matching device: drain from NIC buffering.
		ps.eagerCopies.Inc()
		ps.deliver(p, m, ps.ep.CopyTime(m.size))
	default:
		ps.eagerCopies.Inc()
		ps.deliverOn(p, m, ps.ep.RecvOverhead(m.size)+ps.ep.CopyTime(m.size))
	}
}

// deliverOn completes m's receive at host cost: at once on p when the
// rank's process is running, else as a host action at its next poll.
func (ps *procState) deliverOn(p *sim.Proc, m *inMsg, cost sim.Time) {
	if p == nil {
		ps.enqueue(hostAction{kind: actDeliver, m: m, cost: cost})
		return
	}
	ps.deliver(p, m, cost)
}

// deliver charges a completion cost on the rank's process, records the
// receive-side span over exactly the charged interval, and completes m's
// receive.
func (ps *procState) deliver(p *sim.Proc, m *inMsg, cost sim.Time) {
	start := ps.eng.Now()
	ps.busy(p, cost)
	ps.world.rec.Span(m.tid, msgtrace.StageDeliver, ps.rank, -1, 0, -1, start, ps.eng.Now(), m.size)
	ps.completeRecv(m)
}

// completeRecv completes the receive m matched and recycles m, which
// nothing references once its receive is done. A truncated receive does
// not complete (the job is failing), and keeps its message.
func (ps *procState) completeRecv(m *inMsg) {
	r := m.req
	r.complete(m.src, m.tag, m.size)
	if r.done {
		r.matched = nil
		m.release()
	}
}

// acceptRndv reacts to a matched RTS: make the receive buffer NIC-usable
// and send the CTS. On NIC-matching devices the NIC does this without the
// host; otherwise it runs on p when the rank's process is running, else as
// a host action.
func (ps *procState) acceptRndv(m *inMsg, p *sim.Proc) {
	switch {
	case ps.ep.NICProgress():
		// Buffer acquisition was paid when the receive was posted.
		ps.sendCTS(m)
	case p != nil:
		ps.prepRndv(p, m)
		ps.sendCTS(m)
	default:
		ps.enqueue(hostAction{kind: actAcceptRndv, m: m})
	}
}

// prepRndv registers the receive buffer and parses the RTS on the host,
// recording the acquire as the receiver's registration span.
func (ps *procState) prepRndv(p *sim.Proc, m *inMsg) {
	start := ps.eng.Now()
	ps.busy(p, rndvStep+ps.ep.AcquireBuf(m.req.buf))
	ps.world.rec.Span(m.tid, msgtrace.StageRegister, ps.rank, -1, 0, -1, start, ps.eng.Now(), m.size)
}

// sendCTS answers a matched RTS with the clear-to-send.
func (ps *procState) sendCTS(m *inMsg) {
	ps.ep.Control(ps.world.procs[m.src].node, m.tid, m.cts)
}

// arriveCTS reacts, at the sender, to the receiver's clear-to-send: start
// the zero-copy bulk transfer, after parsing the CTS on the host unless
// the NIC drives the rendezvous.
func (ps *procState) arriveCTS(m *inMsg) {
	// The RTS->CTS round trip the sender just completed is the rendezvous
	// handshake: it started when the RTS left (hsStart) and ends now.
	ps.world.rec.Span(m.tid, msgtrace.StageHandshake, ps.rank, -1, 0, -1, m.sender.hsStart, ps.eng.Now(), m.size)
	if ps.ep.NICProgress() {
		ps.startBulk(m)
		return
	}
	ps.enqueue(hostAction{kind: actStartBulk, m: m})
}

// startBulk pushes the rendezvous payload to the receiver.
func (ps *procState) startBulk(m *inMsg) {
	ps.ep.Bulk(m.to.node, m.size, m.tid, m.bulkDone)
}

// bulkLanded runs on the receiver as the payload lands in its user buffer.
// The sender-side FIN must land on the sender's own domain: across nodes it
// is a cross-domain hop of one minimum link latency.
func (ps *procState) bulkLanded(m *inMsg) {
	if src := ps.world.procs[m.src]; src.node != ps.node {
		ps.eng.Call(ps.world.finLat, (*finHop)(m.sender), 0, 0)
	} else {
		m.sender.completeSend()
	}
	if ps.ep.NICProgress() {
		ps.completeRecv(m)
		return
	}
	ps.enqueue(hostAction{kind: actDeliverBulk, m: m})
}

// finHop is a rendezvous send request seen as the handler of its FIN: the
// request itself is the event target, so the hop allocates nothing.
type finHop Request

// HandleEvent implements sim.Handler: the FIN landed at the sender.
func (f *finHop) HandleEvent(int64, int64) { (*Request)(f).completeSend() }

// startRecv posts a receive of buf from world rank src (or AnySource) in
// context comm, with no checks, as startSend does for sends.
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
		bind(r, m)
		ps.removeUnexpected(m)
		// Keep the request discoverable for completion bookkeeping.
		ps.posted = append(ps.posted, r)
		ps.postedHW.Set(int64(len(ps.posted)))
		switch m.kind {
		case eagerMsg:
			ps.deliverEager(m, p)
		case rtsMsg:
			if ps.ep.NICProgress() {
				ps.busy(p, ps.ep.RecvOverhead(buf.Size)+ps.ep.AcquireBuf(buf))
			}
			ps.acceptRndv(m, p)
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
