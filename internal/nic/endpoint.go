package nic

import (
	"mpinet/internal/dev"
	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
)

// Model is what a NIC model's endpoint supplies to the shared send paths:
// the staged hardware sides of its routes, for each of the model's path
// variants (a model with one path uses variant 0). The shared half builds
// each side once and shares it: the stages must not be modified.
type Model interface {
	// Head is the source side of a route to another node: the endpoint's
	// own stages up to and including its up-link.
	Head(variant int) []fabric.PathStage
	// Tail is the destination side of a route to dst: from dst's
	// down-link, whose latency adds down, the fabric segment's last
	// crossing, to dst's host. It depends on its arguments only, not on
	// the endpoint asked: every endpoint of the network shares it.
	Tail(dst, variant int, down sim.Time) []fabric.PathStage
	// Loopback is the whole path of a message to the endpoint's own node.
	Loopback(variant int) []fabric.PathStage
}

// Holder is implemented by models whose messages hold NIC resources from
// issue until they end. Hold runs when a message is issued; exactly one of
// Delivered and Aborted runs when it ends. A claim or release on the other
// node's NIC is a cross-domain hop of at least one wire flight.
type Holder interface {
	// Hold claims what m keeps across its retry chain.
	Hold(m Msg)
	// Delivered runs as m lands, before its completion: the model's
	// ack path, returning what Hold claimed.
	Delivered(m Msg)
	// Aborted runs when m fails, returning what Hold claimed.
	Aborted(m Msg)
}

// Shaper is implemented by models that set per-message fields the shared
// send path cannot: Shape runs as a message enters Send and fills in the
// model's fields (verbs' on-demand RC setup stall, Elan's PIO or DMA path
// variant).
type Shaper interface {
	Shape(m *Msg)
}

// Resender is implemented by models whose NIC does work for each resend.
type Resender interface {
	// Resend bills the resend as its backoff expires, before the attempt is
	// issued.
	Resend()
}

// Msg is one message handed to the send paths.
type Msg struct {
	Dst     int         // destination node
	Size    int64       // bytes on the wire
	Bulk    bool        // rendezvous payload, as opposed to eager or control
	TID     msgtrace.ID // trace ID (0 = untraced)
	Variant int         // the model's path variant for this message
	Setup   sim.Time    // stall before the first attempt (on-demand RC setup)
}

// tailKey names one shared destination side: a destination node, a model
// path variant, and the fabric's last-crossing latency.
type tailKey struct {
	dst     int32
	variant int32
	down    sim.Time
}

// sides holds an endpoint's source side and loopback path for one variant.
type sides struct {
	head, loopback []fabric.PathStage
}

// Endpoint is the shared half of a model's endpoint: node identity, the
// eager threshold, the device verbs (Eager, Control, Bulk), retry
// reporting, its route sides and the send paths. A model embeds it, built
// by NewEndpoint.
type Endpoint struct {
	net  *Net
	node int

	// The model's hooks, resolved once by NewEndpoint; the optional ones
	// are nil when the model does not implement them.
	model    Model
	shaper   Shaper
	holder   Holder
	resender Resender

	// Per-node protocol counters (nil-safe no-ops when instrumentation is
	// off); endpoints on one node resolve the same names and share them.
	eagerMsgs, eagerBytes, ctrlMsgs *metrics.Counter
	bulkMsgs, bulkBytes             *metrics.Counter
	retries, retryErrors            *metrics.Counter

	// onRetry observes each individual resend (OnRetry).
	onRetry func()

	// sides caches the model's source side and loopback path per variant,
	// each built on first use. The destination sides live in the network,
	// shared by all its endpoints, so an endpoint holds no state per peer.
	sides []sides
}

// NewEndpoint builds the shared half of an endpoint on node, bound to the
// model's hooks.
func NewEndpoint(n *Net, node int, m Model) Endpoint {
	if node < 0 || node >= n.cfg.Nodes {
		panic(n.spec.Pkg + ": bad node index")
	}
	prefix := metrics.NodePrefix(node) + "nic/"
	e := Endpoint{
		net:         n,
		node:        node,
		model:       m,
		eagerMsgs:   n.met.Counter(prefix + "eager_msgs"),
		eagerBytes:  n.met.Counter(prefix + "eager_bytes"),
		ctrlMsgs:    n.met.Counter(prefix + "ctrl_msgs"),
		bulkMsgs:    n.met.Counter(prefix + "rndv_msgs"),
		bulkBytes:   n.met.Counter(prefix + "rndv_bytes"),
		retries:     n.met.Counter(prefix + "retries"),
		retryErrors: n.met.Counter(prefix + "retry_exhausted"),
	}
	e.shaper, _ = m.(Shaper)
	e.holder, _ = m.(Holder)
	e.resender, _ = m.(Resender)
	return e
}

// Node implements dev.Endpoint.
func (e *Endpoint) Node() int { return e.node }

// EagerThreshold implements dev.Endpoint, honouring the config override.
func (e *Endpoint) EagerThreshold() int64 {
	if e.net.cfg.EagerThreshold > 0 {
		return e.net.cfg.EagerThreshold
	}
	return e.net.spec.EagerMax
}

// OnRetry implements dev.Endpoint.
func (e *Endpoint) OnRetry(observe func()) { e.onRetry = observe }

// retried counts one resend and feeds the passive health observer.
func (e *Endpoint) retried() {
	e.retries.Inc()
	if e.onRetry != nil {
		e.onRetry()
	}
}

// route resolves the route of s's message at now into s.seg, its fate
// included, and s.path. The fabric resolves the segment for every message
// — an adaptive or fault-aware fabric picks the plane per message — and
// the path runs it between the model's source and destination sides,
// which are built once and shared. Segment and path live in the send
// record, not in the sending rank's stack frames.
func (s *send) route(now sim.Time) {
	e, dst, variant := s.e, s.m.Dst, s.m.Variant
	sd := e.side(variant)
	if dst == e.node {
		s.seg = fabric.Segment{Plane: -1}
		if sd.loopback == nil {
			sd.loopback = e.model.Loopback(variant)
		}
		s.path.Head, s.path.Mid, s.path.Tail = sd.loopback, nil, nil
		return
	}
	e.net.topo.Between(e.node, dst, now, &s.seg)
	if sd.head == nil {
		sd.head = e.model.Head(variant)
	}
	s.path.Head, s.path.Mid = sd.head, s.seg.Stages
	s.path.Tail = e.net.tail(e.model, dst, variant, s.seg.Down)
}

// side returns the endpoint's cached sides for variant.
func (e *Endpoint) side(variant int) *sides {
	if variant >= len(e.sides) {
		e.sides = append(e.sides, make([]sides, variant+1-len(e.sides))...)
	}
	return &e.sides[variant]
}

// Segment resolves the fabric segment from this endpoint's node to dst,
// for a model's paths that bypass the per-message send path (hardware
// multicast).
func (e *Endpoint) Segment(dst int) fabric.Segment {
	var seg fabric.Segment
	e.net.topo.Between(e.node, dst, e.net.eng.Now(), &seg)
	return seg
}

// Eager implements dev.Endpoint: the envelope and payload through the
// full path (an RDMA write into a pre-registered remote buffer for VAPI,
// gm_send for GM, a Tports queued send for Elan).
func (e *Endpoint) Eager(dst int, size int64, tid msgtrace.ID, done func(error)) {
	e.eagerMsgs.Inc()
	e.eagerBytes.Add(size)
	e.Send(Msg{Dst: dst, Size: size + dev.EnvelopeBytes, TID: tid}, done)
}

// Control implements dev.Endpoint: one RTS, CTS or FIN.
func (e *Endpoint) Control(dst int, tid msgtrace.ID, done func(error)) {
	e.ctrlMsgs.Inc()
	e.Send(Msg{Dst: dst, Size: dev.ControlBytes, TID: tid}, done)
}

// Bulk implements dev.Endpoint: the rendezvous payload zero-copy (an RDMA
// write, a GM directed send, an Elan remote DMA).
func (e *Endpoint) Bulk(dst int, size int64, tid msgtrace.ID, done func(error)) {
	e.bulkMsgs.Inc()
	e.bulkBytes.Add(size)
	e.Send(Msg{Dst: dst, Size: size, Bulk: true, TID: tid}, done)
}

// Send moves m to its destination and calls done(nil) as it lands. A
// healthy network, or a message looping back through its own NIC, takes
// one attempt; under a fault plan the message climbs the retry ladder, and
// a permanent failure calls done with its typed error instead.
func (e *Endpoint) Send(m Msg, done func(error)) {
	n := e.net
	s := n.newSend()
	s.e, s.m, s.done = e, m, done
	// The model's hook runs here rather than in a frame of its own between
	// the verbs and Send: every rank's send stack is that much shallower.
	if e.shaper != nil {
		e.shaper.Shape(&s.m)
	}
	if e.holder != nil {
		e.holder.Hold(s.m)
	}
	now := n.eng.Now()
	if n.inj == nil || s.m.Dst == e.node {
		s.route(now)
		s.wire(now+s.m.Setup, 0)
		return
	}
	s.ladder, s.attempt = true, 1
	s.try(now + s.m.Setup + n.inj.NICStall(e.node, now) + n.inj.BusDelay(e.node, now))
}

// wire runs one transfer attempt over the message's resolved route; a
// sampled message also records the attempt's wire span and per-hop fabric
// detail. The route is resolved by the caller: the retry ladder must pair
// each attempt's route with the fate resolved with it.
func (s *send) wire(at sim.Time, attempt uint8) {
	e, n := s.e, s.e.net
	size, done := s.m.Size, s.ended
	if n.rec.Sampled(s.m.TID) {
		rec, tid := n.rec, s.m.TID
		done = func(end sim.Time) {
			rec.Span(tid, msgtrace.StageWire, e.node, n.rail, attempt, -1, at, end, size)
			s.end(end)
		}
		s.x.Trace(rec, tid, e.node, n.rail, attempt)
	}
	s.x.Start(n.eng, &s.path, size, fabric.ChunkFor(size), at, done)
}

// send is one message in flight, from Send until it is delivered or fails:
// the message, its issuer's completion and, under a fault plan,
// its retry ladder. Every attempt of the ladder re-resolves the route and
// re-runs the full staged path, so a resend after the fabric's detection
// delay re-hashes around a dead element, while a detected dead end — a
// crashed node, a partitioned fabric — fails typed at once instead of
// burning the budget. The verdict lands at delivery time; a lost or
// damaged packet is resent after the model's RetryPolicy delay, and the
// attempt numbered Limit+1 failing exhausts it.
//
// A record belongs to its network, whose free list takes it back when the
// message ends. It embeds the transfer record its attempts run on, one at a
// time, and its callbacks are bound once, when it is first allocated, so a
// recycled record schedules its attempts without allocating.
type send struct {
	e    *Endpoint
	m    Msg
	done func(error)
	// ladder marks a message climbing the retry ladder; attempt numbers
	// its current attempt from 1.
	ladder  bool
	attempt int
	// seg is the current attempt's fabric segment, its route fate
	// included, and path the route around it.
	seg  fabric.Segment
	path fabric.Route
	// x is the transfer record of the attempt in flight.
	x fabric.Transfer
	// ended and refire are s.end and s.fire, bound at allocation.
	ended  func(sim.Time)
	refire func()
}

// newSend takes a record from the network's free list, allocating and
// binding one when it is empty.
func (n *Net) newSend() *send {
	if k := len(n.free); k > 0 {
		s := n.free[k-1]
		n.free = n.free[:k-1]
		return s
	}
	s := new(send)
	s.ended, s.refire = s.end, s.fire
	return s
}

// release returns the record to its network's free list, keeping its bound
// callbacks and its transfer record, idle since the last attempt ended.
func (s *send) release() {
	n := s.e.net
	*s = send{ended: s.ended, refire: s.refire, x: s.x}
	n.free = append(n.free, s)
}

// try issues attempt s.attempt at time at, unless a detected dead end
// fails the message first.
func (s *send) try(at sim.Time) {
	e, inj := s.e, s.e.net.inj
	if node, died, ok := inj.NodeDownDetected(e.node, s.m.Dst, at); ok {
		s.abort(&faults.NodeDownError{Node: node, At: died})
		return
	}
	// The route is resolved at the engine's now, not at the attempt's start
	// at: a resend's stalls have not elapsed when it is routed.
	s.route(e.net.eng.Now())
	if s.seg.Fate.State == fabric.RoutePartitioned {
		s.abort(&faults.PartitionError{Src: e.node, Dst: s.m.Dst, Element: s.seg.Fate.Element})
		return
	}
	s.wire(at, uint8(s.attempt-1))
}

// end takes the verdict on the attempt that cleared the path at time at:
// a single-attempt message has landed; a ladder attempt is delivered, resent
// after its backoff, or failed once the budget is spent.
func (s *send) end(at sim.Time) {
	if !s.ladder {
		s.land()
		return
	}
	e, n := s.e, s.e.net
	v := faults.Drop // black-holed: structural loss, no PRNG draw
	if s.seg.Fate.State != fabric.RouteBlackhole {
		v = n.inj.VerdictExtra(e.node, s.m.Dst, at, s.seg.Fate.ExtraDrop)
	}
	if v == faults.Deliver {
		s.land()
		return
	}
	if s.attempt > n.spec.Retry.Limit {
		s.abort(&faults.LinkError{Src: e.node, Dst: s.m.Dst,
			Attempts: s.attempt, Bytes: s.m.Size, Proto: n.spec.Protocol})
		return
	}
	delay := n.spec.Retry.Delay(s.attempt)
	s.attempt++
	e.retried()
	n.rec.Flight(msgtrace.FlightRetransmit, at, e.node, s.m.TID, msgtrace.StageWire, int64(s.attempt-1), int64(s.m.Dst))
	n.rec.Span(s.m.TID, msgtrace.StageBackoff, e.node, n.rail, uint8(s.attempt-1), -1, at, at+delay, s.m.Size)
	n.eng.At(at+delay, s.refire)
}

// fire runs as the backoff expires: bill the resend, then try again.
func (s *send) fire() {
	if s.e.resender != nil {
		s.e.resender.Resend()
	}
	s.try(s.e.net.eng.Now())
}

// land ends a delivered message: the model's ack path, then the issuer's
// completion.
func (s *send) land() {
	e, m, done := s.e, s.m, s.done
	s.release()
	if e.holder != nil {
		e.holder.Delivered(m)
	}
	done(nil)
}

// abort ends a failed message: return its hold and report err on the
// message's own completion.
func (s *send) abort(err error) {
	e, m, done := s.e, s.m, s.done
	s.release()
	if e.holder != nil {
		e.holder.Aborted(m)
	}
	e.retryErrors.Inc()
	done(err)
}
