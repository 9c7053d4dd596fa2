package mpi

import (
	"fmt"
	"strconv"

	"mpinet/internal/dev"
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
)

// procState is the per-rank library state: queues, progress engine,
// endpoint, accounting. It is manipulated both by the rank's own process
// (inside MPI calls) and by delivery events from the hardware models; the
// cooperative scheduler guarantees mutual exclusion.
type procState struct {
	world *World
	// eng is the world engine, which every timestamp and timer of this
	// rank reads.
	eng  *sim.Engine
	rank int
	node int
	ep   dev.Endpoint
	as   *memreg.AddressSpace
	prof *trace.Profile

	posted []*Request // receive queue, post order
	unexp  []*inMsg   // unexpected messages, arrival order

	// actions are the host-driven protocol steps pending, from actHead on.
	actions  []hostAction
	actHead  int
	progress sim.Cond

	hostBusy sim.Time
	sendSeq  int64

	// watchdog is the rank's reusable wait timer (see waitFor): allocated on
	// first armed wait, then Arm/Stop per wait with zero allocations.
	// waitFor is not reentrant per rank, so one timer suffices.
	watchdog *sim.Timer
	wdFired  bool

	// waitWhy is the rank's default wait reason ("rank<N>:wait"), built
	// once: waitOne runs on every blocking completion, and formatting the
	// same string there dominated the MPI layer's allocation profile.
	waitWhy string
	// why is the reason of the wait in progress, which the rank's parked
	// process points a deadlock report at (waitFor).
	why waitReason

	// quiet suppresses point-to-point profiling while a collective runs so
	// the profile records the collective call, not its decomposition.
	quiet bool
	// Hardware-multicast bookkeeping: payloads delivered to this rank and
	// payloads its Bcast calls have consumed.
	mcSeen  int64
	mcTaken int64
	// splitGen counts Split/Dup invocations per parent communicator so
	// agreement boards never collide across generations. Nil until the first
	// Split/Dup: most ranks never split, and at a thousand ranks the empty
	// maps were a measurable slice of world construction.
	splitGen map[int]int
	// collScratch is a reusable buffer for collective intermediates.
	collScratch memreg.Buf
	// worldComm caches this rank's MPI_COMM_WORLD view. Every world
	// collective resolves it, and rebuilding the world rank list per call
	// was the single largest allocation site in 1k-rank worlds.
	worldComm *Comm
	// reqFree recycles Request records of blocking operations (the request
	// never escapes the caller, so waitOne can return it to the pool);
	// reqAllocs counts pool misses for the zero-alloc gates.
	reqFree   []*Request
	reqAllocs int
	// Reusable collective scratch (offsets, counts, request lists).
	// Collectives are not reentrant per rank, so one set suffices.
	offScratch []int64
	cntScratch []int64
	reqScratch []*Request
	// nicPeers is the set of cross-node ranks this rank has exchanged NIC
	// traffic with (either direction), as a bitset over world ranks;
	// nicPeerCount is its population, the connection count behind
	// World.EstablishedMemoryUsage. Send-side bits are set as the rank
	// sends, receive-side bits at arrival.
	nicPeers     []uint64
	nicPeerCount int

	// Observability handles (all nil-safe no-ops when metrics are off).
	met         *metrics.Registry
	sendSpans   *metrics.SpanTrack // request-lifetime lanes on "rank<N>"
	recvSpans   *metrics.SpanTrack
	failSpans   *metrics.SpanTrack
	unexpHW     *metrics.Gauge
	postedHW    *metrics.Gauge
	reqHist     *metrics.SizeHist
	eagerCopies *metrics.Counter
}

// markNICPeer records peer as a rank this one holds NIC connection state
// toward. Cheap enough for every send/arrival: one bitset probe.
func (ps *procState) markNICPeer(peer int) {
	if ps.nicPeers == nil {
		ps.nicPeers = make([]uint64, (ps.world.cfg.Procs+63)/64)
	}
	bit := uint64(1) << (uint(peer) & 63)
	if ps.nicPeers[peer>>6]&bit == 0 {
		ps.nicPeers[peer>>6] |= bit
		ps.nicPeerCount++
	}
}

// bindMetrics resolves this rank's instrument handles and registers the
// rank as a metrics source. With m == nil it leaves every handle nil, so
// every update is a no-op, and builds nothing.
func (ps *procState) bindMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	ps.met = m
	track := "rank" + strconv.Itoa(ps.rank)
	ps.sendSpans = m.Track(ps.node, track, "send", "mpi")
	ps.recvSpans = m.Track(ps.node, track, "recv", "mpi")
	ps.failSpans = m.Track(ps.node, track, "rank-failed", "mpi")
	pfx := track + "/mpi/"
	ps.unexpHW = m.Gauge(pfx + "unexp_depth")
	ps.postedHW = m.Gauge(pfx + "posted_depth")
	ps.reqHist = m.SizeHist(pfx + "req")
	ps.eagerCopies = m.Counter(metrics.NodePrefix(ps.node) + "nic/eager_copies")
	m.AddSource(pfx, ps)
}

// Report implements metrics.Source: the rank's host CPU busy time.
func (ps *procState) Report(e *metrics.Emitter) {
	e.Time("host_busy", ps.hostBusy)
}

// finishReq records a completed request's lifetime in the per-rank size-class
// histogram and emits an "mpi" span covering post-to-completion on lane, one
// of the rank's send/recv/fail tracks. Called from every completion site; a
// no-op when metrics are off.
func (ps *procState) finishReq(r *Request, lane *metrics.SpanTrack) {
	if ps.met == nil {
		return
	}
	now := ps.eng.Now()
	ps.reqHist.Observe(r.size, now-r.born)
	lane.Emit(r.born, now, r.size)
}

// scratch returns a persistent buffer of at least size bytes for collective
// intermediates. Persistence matters: it keeps the registration caches warm,
// as real implementations' internal buffers do.
func (ps *procState) scratch(size int64) memreg.Buf {
	if ps.collScratch.Size < size {
		ps.collScratch = ps.as.Alloc(size)
	}
	return ps.collScratch.Slice(0, size)
}

// msgKind distinguishes protocol messages at the receiver.
type msgKind int

const (
	eagerMsg msgKind = iota
	rtsMsg
)

// chKind records which channel carried a message.
type chKind int

const (
	chNet chKind = iota
	chShm
)

// inMsg is one point-to-point message from the send that issues it until
// the receive it matches completes: an arrived-but-not-completed message
// at the receiver, and the state a rendezvous's RTS, CTS and payload share.
//
// A record belongs to its world, whose free list takes it back once the
// receive completes. The device callbacks are bound once, when a record is
// first allocated, so a recycled message crosses the device without
// allocating.
type inMsg struct {
	comm     int // communicator context id
	src, tag int // src is a world rank
	size     int64
	seq      int64
	tid      msgtrace.ID // trace context, carried sender -> receiver
	kind     msgKind
	ch       chKind
	sender   *Request // rendezvous: the sender's request, for CTS routing
	matched  bool
	// to is the receiving rank; req is the receive the message matched.
	to  *procState
	req *Request

	// The completions: arrived lands the message (or its RTS) at the
	// receiver, cts lands the clear-to-send at the sender, and bulkDone
	// lands the rendezvous payload at the receiver. A device failure on one
	// of them goes to the rank that issued the operation: the sender for
	// the eager packet, the RTS and the payload, the receiver for the CTS.
	// match runs the receive-side match once the message is there: after a
	// NIC-side match on Tports, or as the shared-memory channel delivers.
	arrived, cts, bulkDone func(error)
	match                  func()
}

// newInMsg takes a record from the world's free list, allocating and
// binding one when it is empty.
func (w *World) newInMsg() *inMsg {
	if k := len(w.msgFree); k > 0 {
		m := w.msgFree[k-1]
		w.msgFree = w.msgFree[:k-1]
		return m
	}
	m := new(inMsg)
	m.arrived = func(err error) {
		if err != nil {
			m.to.world.procs[m.src].deviceFailed(err)
			return
		}
		m.to.arrive(m)
	}
	m.cts = func(err error) {
		if err != nil {
			m.to.deviceFailed(err)
			return
		}
		m.to.world.procs[m.src].arriveCTS(m)
	}
	m.bulkDone = func(err error) {
		if err != nil {
			m.to.world.procs[m.src].deviceFailed(err)
			return
		}
		m.to.bulkLanded(m)
	}
	m.match = func() { m.to.arriveMatched(m) }
	return m
}

// release returns the record to its world's free list, keeping its bound
// callbacks.
func (m *inMsg) release() {
	w := m.to.world
	*m = inMsg{arrived: m.arrived, cts: m.cts, bulkDone: m.bulkDone, match: m.match}
	w.msgFree = append(w.msgFree, m)
}

// hostAction is one host-driven protocol step a rank runs at its next
// progress poll. Steps are typed entries rather than closures, so queueing
// one allocates nothing.
type hostAction struct {
	kind actionKind
	m    *inMsg
	cost sim.Time // actDeliver: the host cost to charge
}

type actionKind uint8

const (
	// actDeliver charges cost and completes m's receive (deliver).
	actDeliver actionKind = iota
	// actDeliverBulk completes a rendezvous receive whose payload has
	// landed, charging the receive overhead.
	actDeliverBulk
	// actAcceptRndv registers the receive buffer, parses the RTS and sends
	// the CTS.
	actAcceptRndv
	// actStartBulk parses the CTS at the sender and starts the payload.
	actStartBulk
)

// run executes one host action on the rank's process.
func (ps *procState) run(p *sim.Proc, a hostAction) {
	switch a.kind {
	case actDeliver:
		ps.deliver(p, a.m, a.cost)
	case actDeliverBulk:
		ps.deliver(p, a.m, ps.ep.RecvOverhead(a.m.size))
	case actAcceptRndv:
		ps.prepRndv(p, a.m)
		ps.sendCTS(a.m)
	case actStartBulk:
		start := ps.eng.Now()
		ps.busy(p, rndvStep)
		ps.world.rec.Span(a.m.tid, msgtrace.StageSend, ps.rank, -1, 0, -1, start, ps.eng.Now(), a.m.size)
		ps.startBulk(a.m)
	}
}

// waitReason names what a blocked rank waits for: a fixed text, or the
// request a blocking point-to-point call waits on. It is formatted only
// where something reads it — a TimeoutError, a RankFailedError, the flight
// recorder's freeze, a deadlock report — because formatting it on every
// wait was a large share of a faulty run's allocations.
type waitReason struct {
	req  *Request // nil: the reason is text
	text string
}

// String implements fmt.Stringer.
func (w *waitReason) String() string {
	r := w.req
	switch {
	case r == nil:
		return w.text
	case r.isSend:
		return fmt.Sprintf("send to rank %d (tag %d, %d B)", r.peer, r.tag, r.size)
	case r.src == AnySource:
		return fmt.Sprintf("recv from any source (tag %d)", r.tag)
	default:
		return fmt.Sprintf("recv from rank %d (tag %d)", r.src, r.tag)
	}
}

// record appends a timeline event if the world collects one.
func (ps *procState) record(kind trace.EventKind, peer, tag, comm int, size int64) {
	tl := ps.world.cfg.Timeline
	if tl == nil {
		return
	}
	tl.Add(trace.Event{
		At: ps.eng.Now(), Rank: ps.rank, Kind: kind,
		Peer: peer, Tag: tag, Comm: comm, Size: size,
	})
}

// busy charges host CPU time to this rank. It must be called from the
// rank's own process.
func (ps *procState) busy(p *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	ps.hostBusy += d
	p.Sleep(d)
}

// enqueue adds a host-driven protocol step and pokes the progress engine so
// a rank parked inside an MPI call picks it up immediately. Steps enqueued
// while the rank computes outside MPI wait for its next MPI call — exactly
// the host-driven rendezvous limitation the overlap benchmark measures.
func (ps *procState) enqueue(a hostAction) {
	ps.actions = append(ps.actions, a)
	ps.progress.Broadcast()
}

// poll runs all pending protocol steps, charging their host cost. Called on
// entry to every MPI operation and inside progress waits — which makes it
// the first library touch after this rank's node crashes, so the crashed
// rank's process unwinds here.
func (ps *procState) poll(p *sim.Proc) {
	if ps.world.rankDead(ps.rank) {
		panic(&rankKilled{rank: ps.rank})
	}
	// Steps run in arrival order, including those enqueued while an earlier
	// one charges host time; the drained queue keeps its backing array.
	for ps.actHead < len(ps.actions) {
		a := ps.actions[ps.actHead]
		ps.actions[ps.actHead] = hostAction{}
		ps.actHead++
		ps.run(p, a)
	}
	ps.actions, ps.actHead = ps.actions[:0], 0
}

// waitFor blocks the rank inside the MPI library until pred holds,
// executing protocol steps as they arrive. It is also where job failure
// becomes visible to ranks: a recorded world fault aborts the rank here,
// and with Config.Timeout armed a cancellable watchdog bounds the wait —
// on a faulty network a rank can starve forever (peer dead, message
// unrecoverable), and the watchdog converts that hang into a typed,
// attributed error.
func (ps *procState) waitFor(p *sim.Proc, why waitReason, pred func() bool) {
	w := ps.world
	if w.cfg.Timeout > 0 {
		// The watchdog is a reusable per-rank timer: one allocation the first
		// time this rank waits on a watched world, then Arm/Stop per wait —
		// the allocation-free pattern the engine's generation-stamped timers
		// exist for.
		if ps.watchdog == nil {
			ps.watchdog = ps.eng.NewTimer(func() {
				ps.wdFired = true
				ps.progress.Broadcast()
			})
		}
		ps.wdFired = false
		ps.watchdog.Arm(w.cfg.Timeout)
		defer ps.watchdog.Stop()
	}
	for {
		ps.poll(p)
		if w.faulted() {
			panic(&jobAbort{err: w.fault})
		}
		if pred() {
			return
		}
		if ps.wdFired {
			now := ps.eng.Now()
			op := why.String()
			w.rec.Flight(msgtrace.FlightTimeout, now, ps.rank, 0, msgtrace.StageWait, int64(w.cfg.Timeout), 0)
			w.rec.Freeze("watchdog timeout: "+op, now, ps.rank, msgtrace.StageWait, 0)
			w.fail(&TimeoutError{Rank: ps.rank, Op: op, After: w.cfg.Timeout})
			panic(&jobAbort{err: w.fault})
		}
		ps.why = why
		ps.progress.WaitFor(p, &ps.why)
	}
}

// notify wakes the rank if it is parked in a progress wait (used by
// completion events that involve no host work).
func (ps *procState) notify() {
	ps.progress.Broadcast()
}

// match scans the posted queue for a request matching an arrival. Matching
// is scoped by communicator context, then by (source, tag) with wildcards.
func (ps *procState) matchPosted(comm, src, tag int) *Request {
	for _, r := range ps.posted {
		if r.done || r.matched != nil || r.comm != comm {
			continue
		}
		if (r.src == AnySource || r.src == src) && (r.tag == AnyTag || r.tag == tag) {
			return r
		}
	}
	return nil
}

// matchUnexpected scans arrivals for one matching a freshly posted receive.
func (ps *procState) matchUnexpected(comm, src, tag int) *inMsg {
	for _, m := range ps.unexp {
		if m.matched || m.comm != comm {
			continue
		}
		if (src == AnySource || src == m.src) && (tag == AnyTag || tag == m.tag) {
			return m
		}
	}
	return nil
}

// removePosted drops a completed request from the posted queue.
func (ps *procState) removePosted(r *Request) {
	for i, x := range ps.posted {
		if x == r {
			ps.posted = append(ps.posted[:i], ps.posted[i+1:]...)
			ps.postedHW.Set(int64(len(ps.posted)))
			return
		}
	}
}

// removeUnexpected drops a consumed arrival.
func (ps *procState) removeUnexpected(m *inMsg) {
	for i, x := range ps.unexp {
		if x == m {
			ps.unexp = append(ps.unexp[:i], ps.unexp[i+1:]...)
			ps.unexpHW.Set(int64(len(ps.unexp)))
			return
		}
	}
}
