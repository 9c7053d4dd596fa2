package mpi

import (
	"strconv"

	"mpinet/internal/dev"
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// procState is the per-rank library state: queues, progress engine,
// endpoint, accounting. It is manipulated both by the rank's own process
// (inside MPI calls) and by delivery events from the hardware models; the
// cooperative scheduler guarantees mutual exclusion.
type procState struct {
	world *World
	// eng is the engine this rank's state lives on: the node's domain
	// engine in scale mode, the world engine otherwise. Every timestamp
	// and timer of this rank reads it, never world.eng, so rank state is
	// only ever touched from its owning shard.
	eng  *sim.Engine
	rank int
	node int
	ep   dev.Endpoint
	as   *memreg.AddressSpace
	prof *trace.Profile

	posted []*Request // receive queue, post order
	unexp  []*inMsg   // unexpected messages, arrival order

	actions  []func(p *sim.Proc) // host-driven protocol steps pending
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
	// nicPeerCount is its population. Tracked only in scale mode, where
	// MemoryUsage accounts established connections rather than the static
	// full-world formula (see World.MemoryUsage). Send-side bits are set on
	// the sender's engine, receive-side bits on this rank's own engine at
	// arrival, so the set is never touched cross-shard.
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
// toward (scale mode only — classic worlds keep the paper's static
// accounting). Cheap enough for every send/arrival: one bitset probe.
func (ps *procState) markNICPeer(peer int) {
	if !ps.world.scale {
		return
	}
	if ps.nicPeers == nil {
		ps.nicPeers = make([]uint64, (ps.world.cfg.Procs+63)/64)
	}
	bit := uint64(1) << (uint(peer) & 63)
	if ps.nicPeers[peer>>6]&bit == 0 {
		ps.nicPeers[peer>>6] |= bit
		ps.nicPeerCount++
	}
}

// bindMetrics resolves this rank's instrument handles. Safe with m == nil:
// every handle comes back nil and every update is a no-op.
func (ps *procState) bindMetrics(m *metrics.Registry) {
	ps.met = m
	track := "rank" + strconv.Itoa(ps.rank)
	ps.sendSpans = m.Track(ps.node, track, "send", "mpi")
	ps.recvSpans = m.Track(ps.node, track, "recv", "mpi")
	ps.failSpans = m.Track(ps.node, track, "rank-failed", "mpi")
	pfx := metrics.RankPrefix(ps.rank) + "mpi"
	ps.unexpHW = m.Gauge(pfx + "/unexp_depth")
	ps.postedHW = m.Gauge(pfx + "/posted_depth")
	ps.reqHist = m.SizeHist(pfx + "/req")
	ps.eagerCopies = m.Counter(metrics.NodePrefix(ps.node) + "nic/eager_copies")
	if m != nil {
		m.ProbeTime(pfx+"/host_busy", func() units.Time { return ps.hostBusy })
	}
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

// inMsg is an arrived-but-not-completed message at the receiver.
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
func (ps *procState) enqueue(step func(p *sim.Proc)) {
	ps.actions = append(ps.actions, step)
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
	for len(ps.actions) > 0 {
		step := ps.actions[0]
		ps.actions = ps.actions[1:]
		step(p)
	}
}

// waitFor blocks the rank inside the MPI library until pred holds,
// executing protocol steps as they arrive. It is also where job failure
// becomes visible to ranks: a recorded world fault aborts the rank here,
// and with Config.Timeout armed a cancellable watchdog bounds the wait —
// on a faulty network a rank can starve forever (peer dead, message
// unrecoverable), and the watchdog converts that hang into a typed,
// attributed error.
func (ps *procState) waitFor(p *sim.Proc, why string, pred func() bool) {
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
			w.rec.Flight(msgtrace.FlightTimeout, now, ps.rank, 0, msgtrace.StageWait, int64(w.cfg.Timeout), 0)
			w.rec.Freeze("watchdog timeout: "+why, now, ps.rank, msgtrace.StageWait, 0)
			w.fail(&TimeoutError{Rank: ps.rank, Op: why, After: w.cfg.Timeout})
			panic(&jobAbort{err: w.fault})
		}
		ps.progress.Wait(p, why)
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
