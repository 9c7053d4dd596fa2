// Package mpi implements an MPICH-style MPI library on top of the simulated
// interconnects: the eager and rendezvous point-to-point protocols with
// posted/unexpected queues and tag matching, non-blocking operations with an
// explicit progress engine, the collectives the paper's workloads use
// (implemented over point-to-point, as MPICH 1.2.x does), an intra-node
// shared-memory channel, per-rank profiling, and memory-usage accounting.
//
// The division of labour mirrors MPICH's ADI2: this package is the
// device-independent layer; everything interconnect-specific enters through
// dev.Endpoint (see internal/dev).
package mpi

import (
	"errors"
	"fmt"
	"io"
	"math"

	"mpinet/internal/dev"
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/shmem"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
)

// Config describes an MPI job on a wired network.
type Config struct {
	// Net is the interconnect the job runs on.
	Net dev.Network
	// Procs is the number of MPI ranks.
	Procs int
	// ProcsPerNode is how many ranks share a node (default 1). Ranks are
	// placed in blocks: each node fills before the next one starts, as in
	// the paper's SMP runs.
	ProcsPerNode int
	// Timeline, when non-nil, collects message-level events from the run
	// (see trace.Timeline).
	Timeline *trace.Timeline
	// Metrics, when non-nil, wires every layer — engine, bus, NIC, fabric,
	// shared memory and this library — into the registry. Off (nil) by
	// default; enabling it does not perturb simulated time.
	Metrics *metrics.Registry
	// Timeout is the per-wait watchdog: a blocking MPI operation that makes
	// no progress for this long fails the job with a TimeoutError instead
	// of hanging. 0 means the default policy — armed when the network
	// carries a fault plan (dev.Network.FaultPlan) at
	// faults.ScaledTimeout(Procs, diameter), which grows with the rank
	// count and the fabric's hop diameter (dev.Network.Diameter) so a
	// thousand-rank Clos job is not held to a crossbar's deadline; off
	// otherwise; negative disables the watchdog unconditionally.
	Timeout sim.Time
	// FaultTolerant selects ULFM-style rank-death handling: when a node
	// crash (faults.Plan.NodeCrashes) kills a peer, pending user-level
	// point-to-point operations on the dead rank complete with Status.Err
	// set to a *RankFailedError instead of aborting the job — the program
	// decides whether to route around the death. Collectives involving a
	// dead rank remain fatal (a typed RankFailedError job error), as does
	// every rank death when this is false.
	FaultTolerant bool
	// MsgTrace, when non-nil, enables per-message span tracing: every send
	// is assigned a trace ID and sampled messages record typed stage spans
	// across the MPI library, the rail bond, the NIC models and the fabric
	// (see internal/msgtrace). When nil the world still owns a disabled
	// recorder whose always-on flight ring captures recent incidents for
	// the failure postmortem.
	MsgTrace *msgtrace.Recorder
}

// ConfigError is a Config validation failure attributed to the option
// (the Config field) that caused it, so MustWorld panics — and programmatic
// callers report — with the offending knob named instead of just a symptom.
type ConfigError struct {
	// Option is the Config field name ("Net", "Procs", "ProcsPerNode").
	Option string
	// Reason describes what is wrong with the option's value.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("mpi: invalid Config.%s: %s", e.Option, e.Reason)
}

// Validate reports the first problem that would make this configuration
// unrunnable — always a *ConfigError naming the offending option — or nil.
// NewWorld calls it (MustWorld through NewWorld); it is exported so
// callers can pre-flight configurations they assemble programmatically.
func (cfg Config) Validate() error {
	if cfg.Net == nil {
		return &ConfigError{Option: "Net", Reason: "nil — build a network first, e.g. mpinet.InfiniBand().New(8)"}
	}
	if cfg.Procs < 1 {
		return &ConfigError{Option: "Procs", Reason: fmt.Sprintf("%d; an MPI job needs at least one rank", cfg.Procs)}
	}
	if cfg.ProcsPerNode < 0 {
		return &ConfigError{Option: "ProcsPerNode", Reason: fmt.Sprintf("%d; must be >= 0 (0 means the default of 1)", cfg.ProcsPerNode)}
	}
	ppn := cfg.ProcsPerNode
	if ppn < 1 {
		ppn = 1
	}
	nodes := cfg.Net.Nodes()
	if cfg.Procs > nodes*ppn {
		return &ConfigError{Option: "Procs", Reason: fmt.Sprintf("%d procs do not fit on %d nodes x %d procs/node — raise ProcsPerNode or use a larger platform",
			cfg.Procs, nodes, ppn)}
	}
	return nil
}

// World is one MPI job: a set of ranks wired to a network, ready to Run a
// program.
type World struct {
	eng   *sim.Engine
	cfg   Config
	procs []*procState
	// shm holds one intra-node channel per node hosting a rank, indexed by
	// node (nil entries for unused nodes). A dense slice: the intra-node
	// send path resolves it per message.
	shm []*shmem.Channel
	// shmBelow is the network's intra-node policy: co-located messages
	// strictly smaller than this ride shm, larger ones the NIC.
	shmBelow int64
	// worldRanks is the shared identity rank list behind every Rank's
	// MPI_COMM_WORLD (Rank.world); read-only after construction.
	worldRanks []int
	met        *metrics.Registry
	rec        *msgtrace.Recorder
	start      sim.Time
	end        sim.Time
	// fault is the first fatal job error (device retry exhaustion, watchdog
	// timeout, truncation); once set, every rank aborts at its next
	// progress point and Run returns it. Every rank runs on the world
	// engine, so it needs no locking.
	fault error

	// finLat is the cross-domain completion-hop latency: the network's
	// minimum link latency.
	finLat sim.Time

	// Communicator-context bookkeeping (see comm.go).
	commIDs     map[string]int
	nextComm    int
	splitBoards map[[2]int]map[int][2]int

	// ULFM-lite rank-death state (see ulfm.go). Every rank runs on the
	// world engine, so none of this needs locking. crashed
	// marks ranks whose node died — each unwinds at its next library call;
	// failed marks deaths the job has detected (crash + detection delay),
	// visible to peers' pending operations. anyFailed is the fast path for
	// the per-wait peer check.
	tolerant  bool
	crashed   []bool
	failed    []bool
	anyFailed bool

	// msgFree holds the world's idle message records (newInMsg).
	msgFree []*inMsg
}

// NewWorld validates the configuration and builds per-rank state. A
// descriptive error (see Config.Validate) is returned instead of the
// panic-later behaviour an invalid Net/Procs combination used to produce.
func NewWorld(cfg Config) (*World, error) {
	// A network built from an invalid platform configuration carries its
	// constructor's error (the builder chain cannot return one); surface it
	// here, before Validate trips over the stub's zero node count.
	if cfg.Net != nil {
		if err := cfg.Net.ConfigErr(); err != nil {
			return nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProcsPerNode < 1 {
		cfg.ProcsPerNode = 1
	}
	plan := cfg.Net.FaultPlan()
	if cfg.Timeout == 0 && plan != nil {
		cfg.Timeout = faults.ScaledTimeout(cfg.Procs, cfg.Net.Diameter())
	}
	w := &World{
		eng:         cfg.Net.Engine(),
		cfg:         cfg,
		shm:         make([]*shmem.Channel, cfg.Net.Nodes()),
		met:         cfg.Metrics,
		finLat:      cfg.Net.MinLinkLatency(),
		commIDs:     make(map[string]int),
		splitBoards: make(map[[2]int]map[int][2]int),
	}
	w.worldRanks = make([]int, cfg.Procs)
	for i := range w.worldRanks {
		w.worldRanks[i] = i
	}
	// Wire the hardware layers before any endpoint exists, so endpoints
	// created below find the registry and bind their counters.
	if w.met != nil {
		cfg.Net.InstrumentMetrics(w.met)
		w.eng.Instrument(w.met)
	}
	// Every world owns a recorder: the configured one (span tracing on) or
	// a disabled one whose always-on flight ring still captures incidents
	// for the failure postmortem.
	w.rec = cfg.MsgTrace
	if w.rec == nil {
		w.rec = msgtrace.Disabled()
	}
	cfg.Net.AttachTracer(w.rec, -1)
	var shmCfg shmem.Config
	w.shmBelow, shmCfg = cfg.Net.ShmemPolicy()
	w.procs = make([]*procState, 0, cfg.Procs)
	for r := 0; r < cfg.Procs; r++ {
		node := w.nodeOf(r)
		if w.shm[node] == nil {
			ch := shmem.New(w.eng, shmCfg)
			ch.Instrument(w.met, node)
			w.shm[node] = ch
		}
		ps := &procState{
			world:   w,
			eng:     w.eng,
			rank:    r,
			node:    node,
			ep:      cfg.Net.NewEndpoint(node),
			as:      memreg.NewAddressSpace(),
			prof:    trace.New(),
			waitWhy: fmt.Sprintf("rank%d:wait", r),
		}
		ps.bindMetrics(w.met)
		w.procs = append(w.procs, ps)
	}
	w.tolerant = cfg.FaultTolerant
	if plan != nil && len(plan.NodeCrashes) > 0 {
		w.armCrashes(plan)
	}
	return w, nil
}

// MustWorld is NewWorld for configurations known to be valid; it panics on
// NewWorld's error, whose message names the offending option: an invalid
// platform's own (cluster: invalid Clos(3, 7, 2): ...) or the Config field
// ("mpi.MustWorld: mpi: invalid Config.Procs: ..."). The internal
// experiment suites use it.
func MustWorld(cfg Config) *World {
	w, err := NewWorld(cfg)
	if err != nil {
		panic(fmt.Sprintf("mpi.MustWorld: %v", err))
	}
	return w
}

// fail records the job's first fatal error, freezes the flight ring and
// wakes every rank so each aborts at its next progress point. Called from
// device completion events or from rank processes.
func (w *World) fail(err error) {
	if w.fault == nil {
		w.fault = err
		// Fallback freeze for failure paths that did not freeze with more
		// specific blame (truncation, direct aborts); the first freeze wins,
		// so this is a no-op after a watchdog or device-fault freeze.
		now := w.eng.Now()
		w.rec.Flight(msgtrace.FlightAbort, now, -1, 0, 0, 0, 0)
		w.rec.Freeze("job abort: "+err.Error(), now, -1, msgtrace.NumStages, 0)
	}
	for _, ps := range w.procs {
		ps.progress.Broadcast()
	}
}

// deviceFailed takes the permanent failure of a device operation this rank
// issued (retry exhaustion, a dead node or a partition under a fault plan),
// as the operation's completion reports it, into the world.
func (ps *procState) deviceFailed(err error) {
	w := ps.world
	var nde *faults.NodeDownError
	if w.tolerant && errors.As(err, &nde) {
		// A transfer ran into a crashed node while the job runs
		// fault-tolerant: the death surfaces on the pending operation as a
		// RankFailedError (see peerFailed), not as a job abort.
		return
	}
	// Freeze the flight ring at the original sin: the recorder fills in the
	// failing message from its last incident entry.
	w.rec.Freeze("device fault: "+err.Error(), w.eng.Now(), ps.rank, msgtrace.StageWire, 0)
	w.fail(fmt.Errorf("mpi: rank %d (node %d): %w", ps.rank, ps.node, err))
}

// faulted reports whether a job fault has been recorded.
func (w *World) faulted() bool { return w.fault != nil }

// nodeOf maps a rank to its node: ranks fill each node in turn.
func (w *World) nodeOf(rank int) int { return rank / w.cfg.ProcsPerNode }

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// ScaleMode reports true: every world runs the one node-domain timing
// model on its one engine.
//
// Deprecated: kept only so the benchmark module builds; it goes with
// ROADMAP item 2's benchmark change.
func (w *World) ScaleMode() bool { return true }

// Size returns the number of ranks.
func (w *World) Size() int { return w.cfg.Procs }

// Run executes main on every rank concurrently (in simulated time) and
// drives the simulation to completion. It returns the error from the event
// loop — notably sim.DeadlockError if the program hangs, the simulation
// analogue of a stuck MPI job — or, on a faulty network, a typed job error:
// one wrapping faults.ErrRetryExhausted when a device gave up retransmitting
// (with the failing rank and link attributed), ErrTimeout when the watchdog
// expired, ErrTruncate on a receive-buffer overflow. Errors are fatal to
// the whole job, as in the paper's MPI implementations.
//
// Ranks still parked when the job ends (the survivors of an abort, the
// members of a deadlock) are reaped before Run returns, so their goroutines
// exit and stop keeping the world reachable.
func (w *World) Run(main func(r *Rank)) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// A rank that noticed w.fault tears the job down with a jobAbort
		// panic; the engine wraps it in a ProcFailure. Recover exactly
		// that pair into an error return; anything else is a real bug and
		// keeps panicking.
		if pf, ok := r.(*sim.ProcFailure); ok {
			if ja, ok := pf.Value.(*jobAbort); ok {
				w.end = w.eng.Now()
				err = ja.err
				w.eng.Reap()
				return
			}
		}
		panic(r)
	}()
	w.start = w.eng.Now()
	for _, ps := range w.procs {
		ps := ps
		rank := &Rank{ps: ps}
		rank.world = Comm{r: rank, id: commWorldID, ranks: w.worldRanks, me: ps.rank}
		proc := ps.eng.Spawn(fmt.Sprintf("rank%d", ps.rank), func(p *sim.Proc) {
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, ok := r.(*rankKilled); ok {
					// The rank's node crashed: this process dies quietly. The
					// job's fate is decided by how the surviving ranks handle
					// the death, not by the victim's unwinding.
					return
				}
				// Everything else, the engine's reap signal included,
				// continues unchanged to the process wrapper.
				panic(r)
			}()
			rank.p = p
			main(rank)
		})
		if w.met != nil {
			w.met.AddSource(metrics.RankPrefix(ps.rank)+"mpi/", proc)
		}
	}
	runErr := w.eng.Run()
	w.eng.Reap()
	w.end = w.eng.Now()
	if w.faulted() {
		// A fault was recorded but every rank happened to finish (or the
		// queue drained first): the job still failed. The fault surfaces
		// even when the run ended in a deadlock report — the fault is the
		// cause, the quiescence only the symptom.
		return w.fault
	}
	return runErr
}

// Metrics returns the registry the world was configured with (nil when
// instrumentation is off).
func (w *World) Metrics() *metrics.Registry { return w.met }

// WriteChromeTrace emits the run as Chrome trace_event JSON (load in
// chrome://tracing or Perfetto): device spans from the metrics registry fused
// with the message timeline's instants, one trace process per node plus one
// for the switching fabric. Works with either source missing. When message
// tracing is on, every sampled message additionally becomes a flow arrow
// from its sender's rank lane at post time to its receiver's at delivery.
func (w *World) WriteChromeTrace(out io.Writer) error {
	var events []trace.Event
	if w.cfg.Timeline != nil {
		events = w.cfg.Timeline.Events()
	}
	var flows []metrics.Flow
	for _, m := range w.rec.Msgs() {
		if m.End <= m.Start {
			continue // never delivered (aborted run); no arrowhead to draw
		}
		flows = append(flows, metrics.Flow{
			ID:       uint64(m.ID),
			Name:     fmt.Sprintf("msg %s %dB", m.Kind, m.Bytes),
			SrcNode:  w.nodeOf(int(m.Src)),
			SrcTrack: fmt.Sprintf("rank%d", m.Src),
			DstNode:  w.nodeOf(int(m.Dst)),
			DstTrack: fmt.Sprintf("rank%d", m.Dst),
			Start:    m.Start,
			End:      m.End,
			Args: map[string]any{
				"src": m.Src, "dst": m.Dst, "tag": m.Tag, "bytes": m.Bytes,
			},
		})
	}
	return metrics.WriteChromeTrace(out, w.met, events, w.nodeOf, flows)
}

// MsgTrace returns the world's message-trace recorder: the one configured
// via Config.MsgTrace, or the default disabled recorder whose always-on
// flight ring still captured recent incidents.
func (w *World) MsgTrace() *msgtrace.Recorder { return w.rec }

// Elapsed returns the simulated wall-clock time of the last Run.
func (w *World) Elapsed() sim.Time { return w.end - w.start }

// Profile returns the communication profile of a rank.
func (w *World) Profile(rank int) *trace.Profile { return w.procs[rank].prof }

// AggregateProfile merges all ranks' profiles.
func (w *World) AggregateProfile() *trace.Profile {
	agg := trace.New()
	for _, ps := range w.procs {
		agg.Merge(ps.prof)
	}
	return agg
}

// HostBusy returns the accumulated host CPU time a rank spent inside the
// MPI library (the quantity behind the paper's host-overhead figure).
func (w *World) HostBusy(rank int) sim.Time { return w.procs[rank].hostBusy }

// MemoryUsage returns the library + device memory footprint of one rank
// connected to every other rank: the device's per-connection resources plus
// shared-memory segments toward co-located ranks. This is Figure 13's
// quantity, where every rank pair holds static RC state.
func (w *World) MemoryUsage(rank int) int64 {
	return w.memoryUsage(rank, w.cfg.Procs-1)
}

// EstablishedMemoryUsage is MemoryUsage over established connections only:
// the ranks this one actually exchanged NIC traffic with during the run.
// That is what a thousand-rank job's memory looks like in practice (the
// paper's Section 3.8 argument) — a 1024-rank neighbor exchange holds a few
// peers' state, not 1023.
func (w *World) EstablishedMemoryUsage(rank int) int64 {
	return w.memoryUsage(rank, w.procs[rank].nicPeerCount)
}

func (w *World) memoryUsage(rank, peers int) int64 {
	ps := w.procs[rank]
	mem := ps.ep.MemoryUsage(peers)
	if ch := w.shm[ps.node]; ch != nil {
		co := 0
		for r := 0; r < w.cfg.Procs; r++ {
			if r != rank && w.nodeOf(r) == ps.node {
				co++
			}
		}
		mem += int64(co) * ch.SegmentSize()
	}
	return mem
}

// Utilizations returns the network's per-resource busy-time accounting.
func (w *World) Utilizations() []dev.Utilization {
	return w.cfg.Net.Utilizations()
}

// internal tag space for collectives; user tags must be non-negative.
const (
	tagBarrier   = -10
	tagBcast     = -11
	tagReduce    = -12
	tagAllreduce = -13
	tagAlltoall  = -14
	tagAllgather = -15
	tagGather    = -16
)

// AnySource matches any sending rank in Recv/Irecv.
const AnySource = -1

// AnyTag matches any tag in Recv/Irecv.
const AnyTag = math.MinInt32

// SetFaultTolerant sets Config.FaultTolerant. It implements
// cluster.WorldSetter, so the WithFaultTolerant option (internal/cluster,
// and the root package's re-export) adjusts a Config without that package
// importing mpi.
func (c *Config) SetFaultTolerant(on bool) { c.FaultTolerant = on }
