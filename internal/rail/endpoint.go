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

// op is one bond-level operation: an eager packet, a control message, a
// rendezvous bulk, or one stripe chunk of a bulk (parent set). Op records
// come from the bond's free list and return to it when the message
// completes; nothing may touch an op once the member device may have
// completed it, because by then it may carry another message.
type op struct {
	ep   *endpoint
	kind opKind
	dst  int
	size int64
	seq  uint64 // per-(src,dst) order stamp; unused on stripe chunks
	born sim.Time
	fire func(error) // the MPI layer's completion
	tid  msgtrace.ID // trace context captured at send, carried across re-issues
	// attempt counts bond-level issues of this op (0 on the first), so
	// failover re-issues are distinguishable from the original in the trace
	// — the NIC's own retry counter restarts per rail.
	attempt uint8
	rail    int         // the rail carrying the op while it is in flight
	slot    int         // its index in the bond's in-flight set
	doneFn  func(error) // o.done, bound once when the record is made

	// striping state: chunks carry parent; the parent op itself is never
	// issued on a device. left counts the chunks not yet landed or aborted;
	// failed is set once the parent has reported a chunk's failure.
	parent       *op
	chunks, left int
	failed       bool
	firstLand    sim.Time
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
// rail.
type endpoint struct {
	net  *Network
	node int
	eps  []dev.Endpoint
}

// NewEndpoint implements dev.Network: it attaches the process to every
// member rail and routes the members' retransmit reports into the rail's
// health monitor. Each operation's failure comes back on its own member
// completion.
func (n *Network) NewEndpoint(node int) dev.Endpoint {
	ep := &endpoint{net: n, node: node}
	for r, rn := range n.rails {
		rep := rn.NewEndpoint(node)
		ep.eps = append(ep.eps, rep)
		rep.OnRetry(func() { n.mon[r].retransmit() })
	}
	return ep
}

// active is the member endpoint cost queries delegate to: the current
// preferred rail (primary while healthy). With every rail dead the primary
// still answers cost queries — the job is about to die on a typed error
// anyway, and parameters must stay well-defined until it does.
func (ep *endpoint) active() dev.Endpoint {
	set, _ := ep.net.live(-1)
	return ep.eps[set[0]]
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
	if ep.net.policy == Stripe {
		var total sim.Time
		set, k := ep.net.live(-1)
		for _, r := range set[:k] {
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
// the live set, everything else onto the preferred live rail. With no
// live rail left the send fails typed immediately.
func (n *Network) send(ep *endpoint, kind opKind, dst int, size int64, tid msgtrace.ID, done func(error)) {
	n.issued++
	pr := n.pairOf(ep.node, dst)
	o := n.newOp(op{ep: ep, kind: kind, dst: dst, size: size, seq: pr.sendSeq, born: n.eng.Now(), fire: done, tid: tid})
	pr.sendSeq++
	for _, m := range n.mon {
		m.arm()
	}
	set, k := n.live(-1)
	switch {
	case k == 0:
		ep.allDown(o, nil)
	case k > 1 && kind == opBulk && n.policy == Stripe && size >= stripeThreshold:
		ep.stripe(o, set[:k])
	default:
		ep.issue(o, set[0])
	}
}

// newOp fills a record from the bond's free list (a bond belongs to one
// world, so the list needs no lock) with t, or makes one, binding its
// member completion once.
func (n *Network) newOp(t op) *op {
	var o *op
	if k := len(n.free); k > 0 {
		o, n.free = n.free[k-1], n.free[:k-1]
		t.doneFn = o.doneFn
	} else {
		o = &op{}
		t.doneFn = o.done
	}
	*o = t
	return o
}

// issue hands the operation (or stripe chunk) to one member rail and puts
// it in the bond's in-flight set until its completion runs. The operation's
// trace ID rides the member dispatch, so a failover re-issue stays attached
// to its original message.
func (ep *endpoint) issue(o *op, r int) {
	n := ep.net
	o.rail, o.slot = r, len(n.flight)
	n.flight = append(n.flight, o)
	if n.rec.Sampled(o.tid) {
		// Zero-length marker on the first issue (the selection decision);
		// on a re-issue the span covers born->now, the time the message
		// spent on rails that failed under it — the failover penalty the
		// blame analyzer charges to the rail layer.
		start := n.eng.Now()
		if o.attempt > 0 {
			start = o.born
		}
		n.rec.Span(o.tid, msgtrace.StageRail, ep.node, int8(r), o.attempt, -1,
			start, n.eng.Now(), o.size)
	}
	// The member may complete o inline, and o may then already carry
	// another message: the device call is the last thing that touches it.
	switch o.kind {
	case opEager:
		ep.eps[r].Eager(o.dst, o.size, o.tid, o.doneFn)
	case opControl:
		ep.eps[r].Control(o.dst, o.tid, o.doneFn)
	default:
		ep.eps[r].Bulk(o.dst, o.size, o.tid, o.doneFn)
	}
}

// done is the member completion of o's current issue. It retires o from
// the in-flight set by moving the set's last op into o's slot: the set's
// order carries no meaning, as the stall scan only asks whether any op on
// a rail has stalled.
func (o *op) done(err error) {
	n := o.ep.net
	last := n.flight[len(n.flight)-1]
	n.flight[o.slot], last.slot = last, o.slot
	n.flight = n.flight[:len(n.flight)-1]
	if err != nil {
		o.ep.railFailed(o, err)
		return
	}
	n.mon[o.rail].delivered()
	if p := o.parent; p != nil {
		n.free = append(n.free, o)
		n.chunkRetired(p, nil)
		return
	}
	n.complete(o)
}

// stripe splits a bulk across the given rails: an even split with the
// remainder on the first rail, reassembled by a countdown on the parent.
// The countdown is set before any chunk is issued, so a chunk that
// completes inline cannot retire the parent under the chunks still to come.
func (ep *endpoint) stripe(o *op, set []int) {
	k := int64(len(set))
	base := o.size / k
	rem := o.size - base*k
	o.chunks, o.left = len(set), len(set)
	for i, r := range set {
		sz := base
		if i == 0 {
			sz += rem
		}
		c := ep.net.newOp(op{ep: ep, kind: opBulk, dst: o.dst, size: sz, born: o.born, tid: o.tid, parent: o})
		ep.net.stripeChunks.Inc()
		ep.issue(c, r)
	}
}

// chunkRetired accounts one chunk of striped message p that landed (err
// nil) or failed for good. p reports once: on its first failing chunk, or
// with nil when every chunk has landed. A striped parent is recycled only
// when every chunk has retired, landed or aborted: a chunk still failing
// over to another rail keeps it alive.
func (n *Network) chunkRetired(p *op, err error) {
	if err == nil && p.left == p.chunks {
		p.firstLand = n.eng.Now()
	}
	p.left--
	switch {
	case err != nil && !p.failed:
		p.failed = true
		p.fire(err)
	case p.left == 0 && !p.failed:
		n.stripeImbal.Add(n.eng.Now() - p.firstLand)
		n.complete(p)
		return
	}
	if p.left == 0 {
		n.free = append(n.free, p)
	}
}

// complete recycles a fully landed message's op and pushes its completion
// into the pair's reorder buffer.
func (n *Network) complete(o *op) {
	src, dst, seq, fire := o.ep.node, o.dst, o.seq, o.fire
	n.free = append(n.free, o)
	n.arrived(src, dst, seq, fire)
}

// railFailed is the escalation ladder's middle rung: the member device on
// o's rail failed it for good. A dead node fails the operation, not the
// rail — no other rail reaches a crashed host either — so its
// NodeDownError goes straight to the message's completion. Any other
// failure means the member exhausted its NIC-level retry budget or found
// its fabric partitioned: the rail is declared dead and o is re-issued on
// the surviving preferred rail. Only when no live rail remains does the
// failure escalate to the MPI layer, typed ErrAllRailsDown.
func (ep *endpoint) railFailed(o *op, err error) {
	n := ep.net
	if nodeDown(err) {
		o.abort(err)
		return
	}
	r := o.rail
	n.mon[r].hardFail()
	set, k := n.live(r)
	if k == 0 {
		ep.allDown(o, err)
		return
	}
	n.failovers.Inc()
	n.reissuedBytes.Add(o.wire())
	if o.attempt < ^uint8(0) {
		o.attempt++
	}
	n.rec.Flight(msgtrace.FlightFailover, n.eng.Now(), ep.node, o.tid,
		msgtrace.StageRail, int64(r), int64(set[0]))
	ep.issue(o, set[0])
}

// nodeDown reports whether err is a dead node's failure. The errors.As
// target escapes to the heap, so it is declared here, behind the nil
// check: in a completion it would cost an allocation on every call.
func nodeDown(err error) bool {
	if err == nil {
		return false
	}
	var nde *faults.NodeDownError
	return errors.As(err, &nde)
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

// abort recycles o and reports err on its message's completion; a stripe
// chunk reports through its parent.
func (o *op) abort(err error) {
	n := o.ep.net
	p, fire := o.parent, o.fire
	n.free = append(n.free, o)
	if p != nil {
		n.chunkRetired(p, err)
		return
	}
	fire(err)
}
