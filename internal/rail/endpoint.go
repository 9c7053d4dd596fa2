package rail

import (
	"errors"

	"mpinet/internal/dev"
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// bondDispatch is the host cost of the bonding layer's per-operation
// scheduling decision (rail selection, sequence stamp). It sits on top of
// the member device's own SendOverhead, the way a channel-bonding driver
// sits above the NIC library.
const bondDispatch = 120 * units.Nanosecond

// opKind distinguishes the three device verbs so a failed operation can be
// re-issued with the right one.
type opKind int

const (
	opEager opKind = iota
	opControl
	opBulk
)

// op is one bond-level operation in flight: an eager packet, a control
// message, a rendezvous bulk, or one stripe chunk of a bulk (parent set).
type op struct {
	ep   *endpoint
	kind opKind
	dst  int
	size int64
	seq  uint64 // per-(src,dst) order stamp; unused on stripe chunks
	born sim.Time
	fire func(error) // the MPI layer's completion
	done bool        // landed or permanently failed; late deliveries suppressed
	tid  msgtrace.ID // trace context captured at send, carried across re-issues
	// attempt counts bond-level issues of this op (0 on the first), so
	// failover re-issues are distinguishable from the original in the trace
	// — the NIC's own retry counter restarts per rail.
	attempt uint8

	// striping state: chunks carry parent; the parent op itself is never
	// issued on a device, it completes when its last chunk lands.
	parent    *op
	chunks    int
	landedN   int
	firstLand sim.Time
}

// wire returns the operation's packet size on the wire (dev's envelope and
// control sizes), as failover accounts and AllRailsError reports it.
func (o *op) wire() int64 {
	switch o.kind {
	case opEager:
		return o.size + dev.EnvelopeBytes
	case opControl:
		return dev.ControlBytes
	default:
		return o.size
	}
}

// endpoint is one process's attachment to the bond: a member endpoint per
// rail, plus per-rail lists of in-flight operations for stall detection.
type endpoint struct {
	net     *Network
	node    int
	eps     []dev.Endpoint
	pending [][]*op
}

// NewEndpoint implements dev.Network: it attaches the process to every
// member rail and routes the members' retransmit reports into the rail's
// health monitor. Each operation's failure comes back on the completion
// issue binds for it.
func (n *Network) NewEndpoint(node int) dev.Endpoint {
	ep := &endpoint{
		net:     n,
		node:    node,
		pending: make([][]*op, len(n.rails)),
	}
	for r, rn := range n.rails {
		rep := rn.NewEndpoint(node)
		ep.eps = append(ep.eps, rep)
		rep.OnRetry(func() { n.mon[r].retransmit() })
	}
	n.eps = append(n.eps, ep)
	return ep
}

// active is the member endpoint cost queries delegate to: the current
// preferred rail (primary while healthy). With every rail dead the primary
// still answers cost queries — the job is about to die on a typed error
// anyway, and parameters must stay well-defined until it does.
func (ep *endpoint) active() dev.Endpoint {
	r, ok := ep.net.pickRail(-1)
	if !ok {
		r = 0
	}
	return ep.eps[r]
}

// Node implements dev.Endpoint.
func (ep *endpoint) Node() int { return ep.node }

// EagerThreshold implements dev.Endpoint: the active rail's protocol
// switch point.
func (ep *endpoint) EagerThreshold() int64 { return ep.active().EagerThreshold() }

// SendOverhead implements dev.Endpoint: the bond's dispatch decision plus
// the active rail's own initiation cost.
func (ep *endpoint) SendOverhead(size int64) sim.Time {
	return bondDispatch + ep.active().SendOverhead(size)
}

// RecvOverhead implements dev.Endpoint.
func (ep *endpoint) RecvOverhead(size int64) sim.Time { return ep.active().RecvOverhead(size) }

// CopyTime implements dev.Endpoint.
func (ep *endpoint) CopyTime(size int64) sim.Time { return ep.active().CopyTime(size) }

// AcquireBuf implements dev.Endpoint. Under Failover only the active rail
// needs the buffer; under Stripe every rail that may carry a chunk must be
// able to DMA it, so the registration costs sum.
func (ep *endpoint) AcquireBuf(b memreg.Buf) sim.Time {
	if ep.net.tun.Policy == Stripe {
		var total sim.Time
		for _, r := range ep.net.stripeSet() {
			total += ep.eps[r].AcquireBuf(b)
		}
		return total
	}
	return ep.active().AcquireBuf(b)
}

// AcquireOnEager implements dev.Endpoint.
func (ep *endpoint) AcquireOnEager() bool { return ep.active().AcquireOnEager() }

// NICProgress implements dev.Endpoint. The bonding layer is host-driven
// (rail selection, sequencing and reassembly run on the host), so the bond
// never advertises NIC-side rendezvous progress even when a member NIC
// (Elan) could offer it.
func (ep *endpoint) NICProgress() bool { return false }

// IssueStall implements dev.Endpoint.
func (ep *endpoint) IssueStall() sim.Time { return ep.active().IssueStall() }

// MemoryUsage implements dev.Endpoint: a bonded process holds every
// member's connection state.
func (ep *endpoint) MemoryUsage(npeers int) int64 {
	var total int64
	for _, rep := range ep.eps {
		total += rep.MemoryUsage(npeers)
	}
	return total
}

// OnRetry implements dev.Endpoint as a no-op: the bond never retransmits.
// It re-issues a failed operation on another rail instead, and each
// member's own retransmits already feed that rail's health monitor.
func (ep *endpoint) OnRetry(func()) {}

// Eager implements dev.Endpoint. The operation fails on its completion
// only when its node is dead or every rail is (AllRailsError): single-rail
// deaths are absorbed by failover.
func (ep *endpoint) Eager(dst int, size int64, tid msgtrace.ID, done func(error)) {
	ep.net.send(ep, opEager, dst, size, tid, done)
}

// Control implements dev.Endpoint, completing as Eager does.
func (ep *endpoint) Control(dst int, tid msgtrace.ID, done func(error)) {
	ep.net.send(ep, opControl, dst, 0, tid, done)
}

// Bulk implements dev.Endpoint, completing as Eager does.
func (ep *endpoint) Bulk(dst int, size int64, tid msgtrace.ID, done func(error)) {
	ep.net.send(ep, opBulk, dst, size, tid, done)
}

// send stamps the operation into its pair's sequence space, wakes the
// health monitors, and routes it by policy: stripe eligible bulks across
// the healthy set, everything else onto the preferred live rail. With no
// live rail left the send fails typed immediately.
func (n *Network) send(ep *endpoint, kind opKind, dst int, size int64, tid msgtrace.ID, done func(error)) {
	n.issued++
	pr := n.pairOf(ep.node, dst)
	o := &op{
		ep:   ep,
		kind: kind,
		dst:  dst,
		size: size,
		seq:  pr.sendSeq,
		born: n.eng.Now(),
		fire: done,
		tid:  tid,
	}
	pr.sendSeq++
	n.armMonitors()
	if kind == opBulk && n.tun.Policy == Stripe && size >= stripeThreshold {
		if set := n.stripeSet(); len(set) > 1 {
			ep.stripe(o, set)
			return
		}
	}
	r, ok := n.pickRail(-1)
	if !ok {
		ep.allDown(o, nil)
		return
	}
	ep.issue(o, r)
}

// issue hands the operation (or stripe chunk) to one member rail and
// tracks it in that rail's in-flight list until it lands or fails. The
// completion bound here names the op and the rail, so a failure report
// needs no matching. The operation's trace ID rides the member dispatch,
// so a failover re-issue stays attached to its original message.
func (ep *endpoint) issue(o *op, r int) {
	ep.pending[r] = append(ep.pending[r], o)
	ep.net.inflight++
	rec := ep.net.rec
	if rec.Sampled(o.tid) {
		// Zero-length marker on the first issue (the selection decision);
		// on a re-issue the span covers born->now, the time the message
		// spent on rails that failed under it — the failover penalty the
		// blame analyzer charges to the rail layer.
		start := ep.net.eng.Now()
		if o.attempt > 0 {
			start = o.born
		}
		rec.Span(o.tid, msgtrace.StageRail, ep.node, int8(r), o.attempt, -1,
			start, ep.net.eng.Now(), o.size)
	}
	cb := func(err error) {
		if err != nil {
			ep.railFailed(o, r, err)
			return
		}
		ep.landed(o, r)
	}
	switch o.kind {
	case opEager:
		ep.eps[r].Eager(o.dst, o.size, o.tid, cb)
	case opControl:
		ep.eps[r].Control(o.dst, o.tid, cb)
	default:
		ep.eps[r].Bulk(o.dst, o.size, o.tid, cb)
	}
}

// stripe splits a bulk across the given rails: an even split with the
// remainder on the first rail, reassembled by a countdown on the parent.
func (ep *endpoint) stripe(o *op, set []int) {
	k := int64(len(set))
	base := o.size / k
	rem := o.size - base*k
	o.chunks = len(set)
	for i, r := range set {
		sz := base
		if i == 0 {
			sz += rem
		}
		c := &op{ep: ep, kind: opBulk, dst: o.dst, size: sz, born: o.born, parent: o, tid: o.tid}
		ep.net.stripeChunks.Inc()
		ep.issue(c, r)
	}
}

// landed is every member delivery: suppress late duplicates, retire the
// op from its rail's in-flight list, reassemble stripes, and push the
// completed message through the pair's reorder buffer.
func (ep *endpoint) landed(o *op, r int) {
	n := ep.net
	if o.done {
		n.dupSuppressed.Inc()
		return
	}
	o.done = true
	ep.unpend(o, r)
	n.inflight--
	n.mon[r].delivered()
	if p := o.parent; p != nil {
		now := n.eng.Now()
		if p.landedN == 0 {
			p.firstLand = now
		}
		p.landedN++
		if p.landedN == p.chunks {
			n.stripeImbal.Add(now - p.firstLand)
			n.complete(p)
		}
		return
	}
	n.complete(o)
}

// complete pushes a fully landed message into its pair's reorder buffer.
func (n *Network) complete(o *op) {
	n.arrived(o.ep.node, o.dst, o.seq, o.fire)
}

// unpend removes o from rail r's in-flight list.
func (ep *endpoint) unpend(o *op, r int) {
	q := ep.pending[r]
	for i, p := range q {
		if p == o {
			ep.pending[r] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// railFailed is the escalation ladder's middle rung: the member device on
// rail r failed operation o for good. A dead node fails the operation, not
// the rail — no other rail reaches a crashed host either — so its
// NodeDownError goes straight to the message's completion. Any other
// failure means the member exhausted its NIC-level retry budget or found
// its fabric partitioned: the rail is declared dead and o is re-issued on
// the surviving preferred rail under a bumped pair epoch. Only when no
// live rail remains does the failure escalate to the MPI layer, typed
// ErrAllRailsDown.
func (ep *endpoint) railFailed(o *op, r int, err error) {
	n := ep.net
	ep.unpend(o, r)
	n.inflight--
	var nde *faults.NodeDownError
	if errors.As(err, &nde) {
		o.abort(err)
		return
	}
	n.mon[r].hardFail()
	nr, ok := n.pickRail(r)
	if !ok {
		ep.allDown(o, err)
		return
	}
	n.failovers.Inc()
	n.reissuedBytes.Add(o.wire())
	top := o
	if o.parent != nil {
		top = o.parent
	}
	n.pairOf(ep.node, top.dst).epoch++
	if o.attempt < ^uint8(0) {
		o.attempt++
	}
	n.rec.Flight(msgtrace.FlightFailover, n.eng.Now(), ep.node, o.tid,
		msgtrace.StageRail, int64(r), int64(nr))
	ep.issue(o, nr)
}

// allDown retires the operation with the bond's typed terminal error.
func (ep *endpoint) allDown(o *op, last error) {
	// Stamp the doomed operation into the flight ring before escalating:
	// the MPI layer's freeze site sees only an error, and this entry is
	// what lets the recorder name the message that ran out of rails.
	ep.net.rec.Flight(msgtrace.FlightRailDown, ep.net.eng.Now(), ep.node, o.tid,
		msgtrace.StageRail, int64(len(ep.net.rails)), o.wire())
	o.abort(&AllRailsError{
		Src:   ep.node,
		Dst:   o.dst,
		Bytes: o.wire(),
		Rails: len(ep.net.rails),
		Last:  last,
	})
}

// abort retires o and reports err on its message's completion. A striped
// message fails once, on its first failing chunk.
func (o *op) abort(err error) {
	o.done = true
	if p := o.parent; p != nil {
		if p.done {
			return
		}
		p.done = true
		o = p
	}
	o.fire(err)
}
