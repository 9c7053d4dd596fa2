package nic

import (
	"sync"

	"mpinet/internal/dev"
	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
)

// Model is what a NIC model's endpoint supplies to the shared send paths.
type Model interface {
	// Path assembles the staged hardware path to dst for one of the
	// model's path variants (a model with one path uses variant 0) around
	// seg, the fabric segment the endpoint resolved for the route. A
	// loopback path (dst is the endpoint's own node) gets an empty segment.
	// The model must not modify seg.Stages, which the fabric shares.
	Path(dst, variant int, seg fabric.Segment) []fabric.PathStage
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
// send path cannot: Shape runs as a message enters Send and returns it
// with the model's fields filled in (verbs' on-demand RC setup stall,
// Elan's PIO or DMA path variant).
type Shaper interface {
	Shape(m Msg) Msg
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

// peerKey names one cached path: a destination, a model path variant, and
// the fabric plane the route rides (-1 when it never climbs).
type peerKey struct {
	dst     int32
	variant int16
	plane   int16
}

// Endpoint is the shared half of a model's endpoint: node identity, the
// eager threshold, the device verbs (Eager, Control, Bulk), retry
// reporting, the per-peer path cache and the send paths. A model embeds it,
// built by NewEndpoint.
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

	// peers caches the assembled paths this endpoint has routed over, keyed
	// by destination, variant and fabric plane. It grows with the peers the
	// endpoint actually speaks to, not with the world: a rank in a 4k-node
	// job that talks to a handful of neighbours keeps a handful of entries
	// per plane its routes ride. One map lookup per message, next to the
	// dozen or so events a message costs; a warm lookup does not allocate.
	peers map[peerKey][]fabric.PathStage
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

// route returns the staged path to dst for a variant and the route's fate
// at now. The fabric resolves the route's segment for every message — an
// adaptive or fault-aware fabric picks the plane per message — while the
// model's path around it is assembled once per (destination, variant,
// plane) and cached.
func (e *Endpoint) route(dst, variant int, now sim.Time) ([]fabric.PathStage, fabric.RouteInfo) {
	seg := fabric.Segment{Plane: -1}
	if dst != e.node {
		seg = e.net.topo.Between(e.node, dst, now)
	}
	key := peerKey{dst: int32(dst), variant: int16(variant), plane: int16(seg.Plane)}
	path, ok := e.peers[key]
	if !ok {
		if e.peers == nil {
			e.peers = make(map[peerKey][]fabric.PathStage)
		}
		path = e.model.Path(dst, variant, seg)
		e.peers[key] = path
	}
	return path, seg.Fate
}

// Segment resolves the fabric segment from this endpoint's node to dst,
// for a model's paths that bypass the per-message send path (hardware
// multicast).
func (e *Endpoint) Segment(dst int) fabric.Segment {
	return e.net.topo.Between(e.node, dst, e.net.eng.Now())
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
	// The model's hook runs here rather than in a frame of its own between
	// the verbs and Send: every rank's send stack is that much shallower.
	if e.shaper != nil {
		m = e.shaper.Shape(m)
	}
	if e.holder != nil {
		e.holder.Hold(m)
	}
	n := e.net
	s := newSend()
	s.e, s.m, s.done = e, m, done
	now := n.eng.Now()
	if n.inj == nil || m.Dst == e.node {
		path, _ := e.route(m.Dst, m.Variant, now)
		e.wireAttempt(path, m.TID, 0, m.Size, now+m.Setup, s.ended)
		return
	}
	s.ladder, s.attempt = true, 1
	s.try(now + m.Setup + n.inj.NICStall(e.node, now) + n.inj.BusDelay(e.node, now))
}

// wireAttempt runs one transfer attempt over the staged path; a sampled
// message also records the attempt's wire span and per-hop fabric detail.
// The path is resolved by the caller: the retry ladder must pair each
// attempt's route with the fate resolved with it.
func (e *Endpoint) wireAttempt(path []fabric.PathStage, tid msgtrace.ID, attempt uint8, size int64, at sim.Time, done func(sim.Time)) {
	rec, eng, rail := e.net.rec, e.net.eng, e.net.rail
	if rec.Sampled(tid) {
		inner := done
		done = func(end sim.Time) {
			rec.Span(tid, msgtrace.StageWire, e.node, rail, attempt, -1, at, end, size)
			inner(end)
		}
		fabric.TransferTraced(eng, path, size, fabric.ChunkFor(size), at,
			rec, tid, e.node, rail, attempt, done)
		return
	}
	fabric.Transfer(eng, path, size, fabric.ChunkFor(size), at, done)
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
// Records are recycled through sends when the message ends. The pool is a
// sync.Pool so the independent worlds of a -j run share it safely. The
// callbacks are bound once, when a record is first allocated, so a
// recycled record schedules its attempts without allocating.
type send struct {
	e    *Endpoint
	m    Msg
	done func(error)
	// ladder marks a message climbing the retry ladder; attempt numbers
	// its current attempt from 1.
	ladder  bool
	attempt int
	// fate is the current attempt's route fate.
	fate fabric.RouteInfo
	// ended and refire are s.end and s.fire, bound at allocation.
	ended  func(sim.Time)
	refire func()
}

var sends sync.Pool

// newSend takes a record from the pool, allocating and binding one on a
// miss.
func newSend() *send {
	if s, ok := sends.Get().(*send); ok {
		return s
	}
	s := new(send)
	s.ended, s.refire = s.end, s.fire
	return s
}

// release returns the record to the pool, keeping its bound callbacks.
func (s *send) release() {
	*s = send{ended: s.ended, refire: s.refire}
	sends.Put(s)
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
	var path []fabric.PathStage
	path, s.fate = e.route(s.m.Dst, s.m.Variant, e.net.eng.Now())
	if s.fate.State == fabric.RoutePartitioned {
		s.abort(&faults.PartitionError{Src: e.node, Dst: s.m.Dst, Element: s.fate.Element})
		return
	}
	e.wireAttempt(path, s.m.TID, uint8(s.attempt-1), s.m.Size, at, s.ended)
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
	if s.fate.State != fabric.RouteBlackhole {
		v = n.inj.VerdictExtra(e.node, s.m.Dst, at, s.fate.ExtraDrop)
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
