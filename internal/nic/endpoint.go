package nic

import (
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
	// model's path variants (a model with one path uses variant 0) and
	// reports how many leading stages run on the source node's own
	// hardware.
	Path(dst, variant int) (path []fabric.PathStage, local int)
}

// Holder is implemented by models whose messages hold NIC resources from
// issue until they end. Hold runs on the source's engine when a message is
// issued; exactly one of Delivered and Aborted runs when it ends. A claim or
// release on the other node's NIC is a cross-domain hop (see
// sim.Engine.ScheduleOn) of at least one wire flight plus the sending
// side's dev.Skew.
type Holder interface {
	// Hold claims what m keeps across its retry chain.
	Hold(m Msg)
	// Delivered runs on the destination's engine as m lands, before its
	// deliver callback: the model's ack path, returning what Hold claimed.
	Delivered(m Msg)
	// Aborted runs on the source's engine when m fails, returning what
	// Hold claimed.
	Aborted(m Msg)
}

// Resender is implemented by models whose NIC does work for each resend.
type Resender interface {
	// Resend bills the resend as its backoff expires, before the attempt is
	// issued.
	Resend()
}

// Msg is one message handed to the send paths.
type Msg struct {
	Dst     int      // destination node
	Size    int64    // bytes on the wire
	Bulk    bool     // rendezvous payload, as opposed to eager or control
	Variant int      // the model's path variant for this message
	Setup   sim.Time // stall before the first attempt (on-demand RC setup)
}

// variants bounds Msg.Variant: Elan keeps a PIO and a DMA path per peer.
const variants = 2

// peerRoute is one (destination, variant)'s resolved send state: the staged
// path and the stage count TransferCut runs on the source's engine.
type peerRoute struct {
	path []fabric.PathStage
	cut  int
}

// Endpoint is the shared half of a model's endpoint: node identity, the
// eager threshold, fault and retry reporting, the per-peer path cache and
// the send paths. A model embeds it, built by NewEndpoint.
type Endpoint struct {
	net  *Net
	node int

	// The model's hooks, resolved once by NewEndpoint; the optional ones
	// are nil when the model does not implement them.
	model    Model
	holder   Holder
	resender Resender

	// NIC counts the protocol traffic the model's Eager, Control and Bulk
	// issue (nil-safe no-ops when instrumentation is off).
	NIC         dev.NICCounters
	retries     *metrics.Counter
	retryErrors *metrics.Counter

	// sink receives permanent transfer failures (dev.FaultReporter).
	sink func(error)
	// onRetry observes each individual resend (dev.RetryReporter).
	onRetry func()

	// peers holds the resolved send state of the peers this endpoint has
	// routed to, keyed by dst*variants+variant. It grows with the peers the
	// endpoint actually speaks to, not with the world: a rank in a 4k-node
	// job that talks to a handful of neighbours keeps a handful of entries.
	// One map lookup per message, next to the dozen or so events a message
	// costs; a warm lookup does not allocate. Only the endpoint's own shard
	// routes from it, so the table has a single writer.
	peers map[int]peerRoute
}

// NewEndpoint builds the shared half of an endpoint on node, bound to the
// model's hooks.
func NewEndpoint(n *Net, node int, m Model) Endpoint {
	if node < 0 || node >= n.cfg.Nodes {
		panic(n.spec.Pkg + ": bad node index")
	}
	e := Endpoint{
		net:         n,
		node:        node,
		model:       m,
		NIC:         dev.NewNICCounters(n.met, node),
		retries:     n.met.Counter(metrics.NodePrefix(node) + "nic/retries"),
		retryErrors: n.met.Counter(metrics.NodePrefix(node) + "nic/retry_exhausted"),
	}
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

// OnFault implements dev.FaultReporter.
func (e *Endpoint) OnFault(sink func(error)) { e.sink = sink }

// OnRetry implements dev.RetryReporter.
func (e *Endpoint) OnRetry(observe func()) { e.onRetry = observe }

// retried counts one resend and feeds the passive health observer.
func (e *Endpoint) retried() {
	e.retries.Inc()
	if e.onRetry != nil {
		e.onRetry()
	}
}

// fail reports a permanent transfer failure to the registered sink. With
// no sink (device used bare, without the MPI layer) the error is raised
// directly: losing it would turn a modelled failure into a silent hang.
func (e *Endpoint) fail(err error) {
	e.retryErrors.Inc()
	if e.sink != nil {
		e.sink(err)
		return
	}
	panic(err)
}

// route returns the staged path to dst for a variant and the stage count
// TransferCut runs on the source's engine: the model's local stages
// plus whatever the topology keeps on the source leaf. Both are assembled
// once per (destination, variant) and cached, except under per-message
// routing, where the fabric picks the up-link per message and the path is
// rebuilt.
func (e *Endpoint) route(dst, variant int) ([]fabric.PathStage, int) {
	if e.net.dynamic && dst != e.node {
		return e.resolve(dst, variant)
	}
	key := dst*variants + variant
	r, ok := e.peers[key]
	if !ok {
		if e.peers == nil {
			e.peers = make(map[int]peerRoute)
		}
		r.path, r.cut = e.resolve(dst, variant)
		e.peers[key] = r
	}
	return r.path, r.cut
}

func (e *Endpoint) resolve(dst, variant int) ([]fabric.PathStage, int) {
	path, local := e.model.Path(dst, variant)
	return path, local + fabric.SrcStagesOf(e.net.topo, e.node, dst)
}

// Send moves m to its destination and calls deliver on the destination's
// engine. A healthy network, or a message looping back through its own
// NIC, takes one attempt; under a fault plan the message climbs the retry
// ladder, and a permanent failure goes to the OnFault sink instead of
// deliver.
func (e *Endpoint) Send(m Msg, deliver func()) {
	if e.holder != nil {
		e.holder.Hold(m)
	}
	n := e.net
	// Capture trace context synchronously at issue time: the MPI layer (or
	// the rail bond) scoped it around this call.
	tid, rail := n.rec.Cur(), n.rec.CurRail()
	now := n.EngineFor(e.node).Now()
	if n.inj == nil || m.Dst == e.node {
		path, cut := e.route(m.Dst, m.Variant)
		e.wireAttempt(path, cut, m.Dst, tid, rail, 0, m.Size, now+m.Setup, func(sim.Time) { e.landed(m, deliver) })
		return
	}
	l := &ladder{e: e, m: m, deliver: deliver, tid: tid, rail: rail, attempt: 1}
	l.try(now + m.Setup + n.inj.NICStall(e.node, now) + n.inj.BusDelay(e.node, now))
}

// landed ends a delivered message: the model's ack path, then the MPI
// layer's deliver.
func (e *Endpoint) landed(m Msg, deliver func()) {
	if e.holder != nil {
		e.holder.Delivered(m)
	}
	deliver()
}

// abort ends a failed message: return its hold and report err.
func (e *Endpoint) abort(m Msg, err error) {
	if e.holder != nil {
		e.holder.Aborted(m)
	}
	e.fail(err)
}

// wireAttempt runs one transfer attempt over the staged path. The path is
// split at cut so each node's hardware state stays on its own engine, and
// done fires on dst's engine; on one engine the split degrades to a plain
// transfer. A sampled message records the attempt's wire span and
// per-hop fabric detail instead — tracing keeps its world on one engine.
// The path is resolved by the caller: the retry ladder must pair each
// attempt's route with the fate annotation read at resolve time.
func (e *Endpoint) wireAttempt(path []fabric.PathStage, cut, dst int, tid msgtrace.ID, rail int8, attempt uint8, size int64, at sim.Time, done func(sim.Time)) {
	rec, eng := e.net.rec, e.net.EngineFor(e.node)
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
	fabric.TransferCut(eng, e.net.EngineFor(dst), path, cut, size, fabric.ChunkFor(size), at, done)
}

// ladder is one message's retry chain under a fault plan. Every attempt
// re-resolves the route and re-runs the full staged path, so a resend after
// the fabric's detection delay re-hashes around a dead element, while a
// detected dead end — a crashed node, a partitioned fabric — fails typed at
// once instead of burning the budget. The verdict lands at delivery time; a
// lost or damaged packet is resent after the model's RetryPolicy delay,
// and the attempt numbered Limit+1 failing exhausts it.
type ladder struct {
	e       *Endpoint
	m       Msg
	deliver func()
	tid     msgtrace.ID
	rail    int8
	attempt int
	// fate is the current attempt's route annotation.
	fate fabric.RouteInfo
	// ended and refire are l.end and l.fire, bound once for the chain.
	ended  func(sim.Time)
	refire func()
}

// try issues attempt l.attempt at time at, unless a detected dead end
// fails the message first.
func (l *ladder) try(at sim.Time) {
	e, inj := l.e, l.e.net.inj
	if inj.NodeDeadDetected(l.m.Dst, at) || inj.NodeDeadDetected(e.node, at) {
		node := l.m.Dst
		if inj.NodeDeadDetected(e.node, at) {
			node = e.node
		}
		e.abort(l.m, &faults.NodeDownError{Node: node, At: at})
		return
	}
	path, cut := e.route(l.m.Dst, l.m.Variant)
	l.fate = fabric.LastRouteOf(e.net.topo)
	if l.fate.State == fabric.RoutePartitioned {
		e.abort(l.m, &faults.PartitionError{Src: e.node, Dst: l.m.Dst, Element: l.fate.Element})
		return
	}
	if l.ended == nil {
		l.ended = l.end
	}
	e.wireAttempt(path, cut, l.m.Dst, l.tid, l.rail, uint8(l.attempt-1), l.m.Size, at, l.ended)
}

// end takes the verdict on the attempt that cleared the path at time at.
func (l *ladder) end(at sim.Time) {
	e, n := l.e, l.e.net
	v := faults.Drop // black-holed: structural loss, no PRNG draw
	if l.fate.State != fabric.RouteBlackhole {
		v = n.inj.VerdictExtra(e.node, l.m.Dst, at, l.fate.ExtraDrop)
	}
	if v == faults.Deliver {
		e.landed(l.m, l.deliver)
		return
	}
	if l.attempt > n.spec.Retry.Limit {
		e.abort(l.m, &faults.LinkError{Src: e.node, Dst: l.m.Dst,
			Attempts: l.attempt, Bytes: l.m.Size, Proto: n.spec.Protocol})
		return
	}
	delay := n.spec.Retry.Delay(l.attempt)
	l.attempt++
	e.retried()
	n.rec.Flight(msgtrace.FlightRetransmit, at, e.node, l.tid, msgtrace.StageWire, int64(l.attempt-1), int64(l.m.Dst))
	n.rec.Span(l.tid, msgtrace.StageBackoff, e.node, l.rail, uint8(l.attempt-1), -1, at, at+delay, l.m.Size)
	if l.refire == nil {
		l.refire = l.fire
	}
	n.EngineFor(e.node).At(at+delay, l.refire)
}

// fire runs as the backoff expires: bill the resend, then try again.
func (l *ladder) fire() {
	if l.e.resender != nil {
		l.e.resender.Resend()
	}
	l.try(l.e.net.EngineFor(l.e.node).Now())
}
