// Package mpinet is a deterministic cluster-interconnect simulator and MPI
// performance-study toolkit reproducing "Performance Comparison of MPI
// Implementations over InfiniBand, Myrinet and Quadrics" (Liu et al.,
// SC'03).
//
// It models the paper's 8-node dual-Xeon testbed wired with three
// interconnects — Mellanox InfiniHost/VAPI over PCI-X, Myrinet-2000/GM, and
// Quadrics Elan3/Tports over PCI — and runs an MPICH-style MPI library over
// each. On top sit the paper's extended micro-benchmark suite, the NAS
// Parallel Benchmark and sweep3D communication skeletons, and a harness
// regenerating every figure and table of the evaluation.
//
// # Quick start
//
// Build a testbed, run an MPI program on it, read the clock:
//
//	p := mpinet.InfiniBand()
//	w, err := mpinet.NewWorld(mpinet.WorldConfig{Net: p.New(2), Procs: 2})
//	if err != nil {
//		log.Fatal(err)
//	}
//	err = w.Run(func(r *mpinet.Rank) {
//		buf := r.Malloc(4096)
//		if r.Rank() == 0 {
//			r.Send(buf, 1, 0)
//		} else {
//			r.Recv(buf, 0, 0)
//		}
//	})
//
// Micro-benchmarks and applications are one call each:
//
//	lat := mpinet.Latency(mpinet.Quadrics(), []int64{4, 64, 1024})
//	res, err := mpinet.RunApp("LU", mpinet.Myrinet(), mpinet.ClassB, 8)
//
// Platform variants and degraded scenarios compose through functional
// options (Platform.With / NewWorld options):
//
//	p := mpinet.InfiniBand().With(mpinet.PCIBus())          // Section 4.7 variant
//	faulty := p.With(mpinet.WithFaults(mpinet.DropPlan(42, 0.01)))
//	w, err := mpinet.NewWorld(mpinet.WorldConfig{Net: faulty.New(2), Procs: 2})
//
// A run on a faulty network either completes (slower — the NICs retransmit
// per their interconnect's reliability protocol) or returns a typed error:
// errors.Is(err, mpinet.ErrRetryExhausted) for a dead link,
// errors.Is(err, mpinet.ErrTimeout) for a starved wait. See docs/MODEL.md
// §12 for the fault model.
//
// Two or three interconnects can be bonded into one multi-rail channel with
// health monitoring and automatic inter-fabric failover (docs/MODEL.md §13):
//
//	bond := mpinet.Bond(mpinet.InfiniBand(), mpinet.Myrinet())
//	striped := bond.With(mpinet.WithRailPolicy(mpinet.Stripe))
//	killed := bond.With(mpinet.WithFaults(&mpinet.FaultPlan{
//		Seed:      42,
//		RailKills: []mpinet.RailKill{{Rail: 0, At: 5 * mpinet.Millisecond}},
//	}))
//
// A job on killed completes — in-flight traffic is re-issued on the Myrinet
// rail when InfiniBand dies — and only fails (with
// errors.Is(err, mpinet.ErrAllRailsDown)) when every rail is dead.
//
// The full paper reproduction lives in cmd/paperrepro; see DESIGN.md for
// the model inventory and EXPERIMENTS.md for paper-vs-simulated results.
package mpinet

import (
	"mpinet/internal/apps"

	"mpinet/internal/cluster"
	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/microbench"
	"mpinet/internal/mpi"
	"mpinet/internal/rail"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Platform is a buildable interconnect testbed.
	Platform = cluster.Platform
	// World is an MPI job on a wired network.
	World = mpi.World
	// WorldConfig configures an MPI job.
	WorldConfig = mpi.Config
	// Rank is the per-process MPI handle.
	Rank = mpi.Rank
	// Request is a non-blocking operation handle.
	Request = mpi.Request
	// Status describes a completed receive.
	Status = mpi.Status
	// Buf identifies a simulated user buffer.
	Buf = memreg.Buf
	// Time is simulated time in picoseconds.
	Time = units.Time
	// Curve is one line of a figure.
	Curve = microbench.Curve
	// AppResult is an application run's outcome.
	AppResult = apps.Result
	// Profile is a rank's communication record.
	Profile = trace.Profile
	// Class selects a workload problem size.
	Class = apps.Class
	// Engine is the discrete-event core, for custom models.
	Engine = sim.Engine
	// Comm is an MPI communicator (CommWorld, Split, Dup).
	Comm = mpi.Comm
	// Timeline collects message-level events from a run.
	Timeline = trace.Timeline
	// TimelineEvent is one message-level event.
	TimelineEvent = trace.Event
	// LogPParams is a LogGP characterization of an interconnect.
	LogPParams = microbench.LogPParams
	// Metrics is the cross-layer observability registry; set it on
	// WorldConfig.Metrics (via NewMetrics) to record every layer's counters
	// and spans. See docs/MODEL.md §10.
	Metrics = metrics.Registry
	// MetricsSnapshot is a rendered view of a Metrics registry.
	MetricsSnapshot = metrics.Snapshot
	// Option is a functional option for Platform.With and NewWorld.
	Option = cluster.Option
	// FaultPlan is a deterministic, seed-driven fault scenario for
	// WithFaults. See internal/faults and docs/MODEL.md §12.
	FaultPlan = faults.Plan
	// LinkFault overrides drop/corrupt rates on matching links of a
	// FaultPlan.
	LinkFault = faults.LinkRule
	// LinkFlap is a link-down window of a FaultPlan.
	LinkFlap = faults.Flap
	// NICStall is a NIC freeze window of a FaultPlan.
	NICStall = faults.Stall
	// BusBurst is a bus-contention window of a FaultPlan.
	BusBurst = faults.BusBurst
	// RailPolicy selects how a bonded channel spreads traffic over its
	// rails (Failover or Stripe).
	RailPolicy = rail.Policy
	// RailKill is a FaultPlan entry taking one rail of a bonded platform
	// permanently down at an instant.
	RailKill = faults.RailKill
	// RailDegrade is a FaultPlan entry black- or brown-outing one rail of a
	// bonded platform for a window.
	RailDegrade = faults.RailDegrade
	// SwitchKill is a FaultPlan entry taking one switching element of a
	// multi-stage fabric (a spine plane or a leaf) hard down, optionally
	// repaired later. See docs/MODEL.md §19.
	SwitchKill = faults.SwitchKill
	// LinecardDegrade is a FaultPlan entry adding drop probability to every
	// packet riding one fabric element for a window.
	LinecardDegrade = faults.LinecardDegrade
	// NodeCrash is a FaultPlan entry killing a host node: its NIC goes dark
	// and every rank on it dies (permanently, even if the link is repaired).
	NodeCrash = faults.NodeCrash
	// RankFailedError reports a dead peer rank, either as Status.Err on a
	// fault-tolerant operation or as the job-abort error otherwise.
	RankFailedError = mpi.RankFailedError
	// Routing selects a multi-stage fabric's path policy (Deterministic or
	// Adaptive) for WithRouting.
	Routing = fabric.Routing
	// ConfigError names an invalid platform option combination (bad
	// radix/oversubscription, for instance); NewWorld returns it.
	ConfigError = cluster.ConfigError
)

// Bond policies and time units for fault-plan and bond tuning fields.
const (
	// Failover sends on the best healthy rail and migrates on failure.
	Failover = rail.Failover
	// Stripe splits large messages across all healthy rails.
	Stripe = rail.Stripe

	// Deterministic is ECMP-by-destination routing: a (src, dst) pair always
	// takes the same fabric path.
	Deterministic = fabric.Deterministic
	// Adaptive is dispersive routing: each message takes its source leaf's
	// least-loaded up-link, seeded ties making replay deterministic.
	Adaptive = fabric.Adaptive

	// Microsecond is one simulated microsecond.
	Microsecond = units.Microsecond
	// Millisecond is one simulated millisecond.
	Millisecond = units.Millisecond
)

// Typed errors for World.Run and RunApp failures; match with errors.Is.
var (
	// ErrUnknownApp marks a workload name RunApp does not know.
	ErrUnknownApp = apps.ErrUnknownApp
	// ErrTruncate marks MPI_ERR_TRUNCATE: a message larger than its posted
	// receive buffer.
	ErrTruncate = mpi.ErrTruncate
	// ErrRetryExhausted marks a permanent link failure: a NIC retried per
	// its reliability protocol (RC retransmit, GM resend, Elan source
	// retry) and gave up. The error text names the failing rank and link.
	ErrRetryExhausted = faults.ErrRetryExhausted
	// ErrTimeout marks a blocking MPI operation that made no progress
	// within the watchdog interval of a faulty run.
	ErrTimeout = mpi.ErrTimeout
	// ErrAllRailsDown marks a bonded channel whose every rail is dead; it
	// also matches ErrRetryExhausted, since that is how the last rail died.
	ErrAllRailsDown = rail.ErrAllRailsDown
	// ErrPartitioned marks a structural reachability failure: every fabric
	// plane between two endpoints is dead, or the peer's node crashed.
	// Retrying cannot help; devices fail typed without burning retries.
	ErrPartitioned = faults.ErrPartitioned
	// ErrRankFailed marks an operation against a dead MPI rank; under
	// WorldConfig.FaultTolerant it arrives in Status.Err instead of aborting
	// the job. See docs/MODEL.md §19.
	ErrRankFailed = mpi.ErrRankFailed
)

// DropPlan returns a fault plan with a uniform per-packet drop probability
// on every link, under the given seed.
func DropPlan(seed uint64, drop float64) *FaultPlan { return faults.DropPlan(seed, drop) }

// Functional options. Platform-side options (PCIBus, OnDemand, Multicast,
// FatTree, EagerThreshold, WithFaults, WithSeed) take effect through
// Platform.With; the one world-side option, WithFaultTolerant, through
// NewWorld. Every other world setting is a WorldConfig field. Pass
// WithFaults to Platform.With to wire the plan into the NICs (NewWorld then
// arms the watchdog automatically).

// PCIBus forces the 64-bit/66 MHz PCI bus of Section 4.7 (InfiniBand only).
func PCIBus() Option { return cluster.PCIBus() }

// OnDemand enables on-demand connection management (Section 3.8).
func OnDemand() Option { return cluster.OnDemand() }

// Multicast enables hardware-multicast collectives (Section 3.7).
func Multicast() Option { return cluster.Multicast() }

// Crossbar pins the platform to a single-crossbar fabric whose radix grows
// with the node count (the topology API's explicit default).
func Crossbar() Option { return cluster.Crossbar() }

// FatTree builds a two-level folded-Clos (leaf/spine) fabric from
// radix-port switching elements at the given oversubscription ratio;
// FatTree(24, 2) is the classic 16-host/8-uplink leaf. Works on all three
// interconnects; invalid dimension combinations surface from NewWorld as a
// descriptive error.
func FatTree(radix, oversub int) Option { return cluster.FatTree(radix, oversub) }

// Clos builds a multi-level folded-Clos fabric — levels switching levels of
// radix-port elements at the given leaf oversubscription — for worlds that
// outgrow one spine tier (thousands of ranks).
func Clos(levels, radix, oversub int) Option { return cluster.Clos(levels, radix, oversub) }

// WithRouting selects a multi-stage fabric's path policy: Deterministic
// ECMP or Adaptive dispersive routing (seeded via WithSeed).
func WithRouting(r Routing) Option { return cluster.WithRouting(r) }

// EagerThreshold overrides the eager/rendezvous switch point.
func EagerThreshold(t int64) Option { return cluster.EagerThreshold(t) }

// WithFaults runs the platform under a fault plan; see FaultPlan.
func WithFaults(plan *FaultPlan) Option { return cluster.WithFaults(plan) }

// WithSeed overrides the fault plan's seed.
func WithSeed(seed uint64) Option { return cluster.WithSeed(seed) }

// WithSwitchKills schedules fabric-element deaths (spine planes, leaves) on
// a multi-stage platform, composing with any existing fault plan. See
// docs/MODEL.md §19.
func WithSwitchKills(kills ...SwitchKill) Option { return cluster.WithSwitchKills(kills...) }

// WithLinecardDegrades schedules per-element extra drop windows on a
// multi-stage platform.
func WithLinecardDegrades(degrades ...LinecardDegrade) Option {
	return cluster.WithLinecardDegrades(degrades...)
}

// WithNodeCrashes schedules host-node deaths: dark NICs plus dead MPI ranks.
func WithNodeCrashes(crashes ...NodeCrash) Option { return cluster.WithNodeCrashes(crashes...) }

// WithFaultTolerant opts the world into ULFM-style rank-death notification:
// operations against dead ranks complete with Status.Err instead of
// aborting the job.
func WithFaultTolerant() Option { return cluster.WithFaultTolerant() }

// WithRailPolicy selects a bonded platform's traffic policy (Failover or
// Stripe); it has no effect on solo platforms.
func WithRailPolicy(p RailPolicy) Option { return cluster.WithRailPolicy(p) }

// NewMetrics returns an empty observability registry for
// WorldConfig.Metrics.
func NewMetrics() *Metrics { return metrics.New() }

// NewTimeline returns a message timeline for WorldConfig.Timeline that
// keeps the first max events (max <= 0 keeps every event).
func NewTimeline(max int) *Timeline { return trace.NewTimeline(max) }

// Workload problem classes.
const (
	// ClassS is a scaled-down test size.
	ClassS = apps.ClassS
	// ClassB is the paper's problem size.
	ClassB = apps.ClassB
)

// Receive wildcards.
const (
	// AnySource matches any sender.
	AnySource = mpi.AnySource
	// AnyTag matches any tag.
	AnyTag = mpi.AnyTag
)

// InfiniBand returns the paper's InfiniBand platform (InfiniHost HCAs on
// PCI-X, InfiniScale switch, MVAPICH-style MPI).
func InfiniBand() Platform { return cluster.IBA() }

// Myrinet returns the paper's Myrinet platform (M3F NICs, Myrinet-2000
// switch, MPICH-GM-style MPI).
func Myrinet() Platform { return cluster.Myri() }

// Quadrics returns the paper's Quadrics platform (Elan3 NICs on PCI,
// Elite-16 switch, Tports-based MPI).
func Quadrics() Platform { return cluster.QSN() }

// Topspin returns the 16-node Topspin InfiniBand cluster of Section 4.2.
func Topspin() Platform { return cluster.Topspin() }

// Bond attaches 2-3 interconnects beneath one multi-rail MPI channel with
// health monitoring and automatic failover; the first member is the
// preferred rail. See docs/MODEL.md §13.
func Bond(primary Platform, others ...Platform) Platform {
	return cluster.Bond(primary, others...)
}

// LogP extracts LogGP parameters (L, os, or, G) for an interconnect, per
// the methodology of the paper's related work.
func LogP(p Platform) LogPParams { return microbench.LogP(p) }

// Platforms returns the three OSU-testbed interconnects in the paper's
// order.
func Platforms() []Platform { return cluster.OSU() }

// NewWorld builds an MPI job from the configuration plus any world-side
// options, validating it first: a nil Net, Procs < 1, or more procs than
// the network can place come back as descriptive errors instead of later
// panics. See mpi.NewWorld.
func NewWorld(cfg WorldConfig, opts ...Option) (*World, error) {
	cluster.ApplyWorld(&cfg, opts...)
	return mpi.NewWorld(cfg)
}

// Latency measures one-way MPI latency (us) across message sizes
// (Figure 1).
func Latency(p Platform, sizes []int64) Curve { return microbench.Latency(p, sizes) }

// Bandwidth measures windowed streaming bandwidth in MB/s (Figure 2).
func Bandwidth(p Platform, sizes []int64, window int) Curve {
	return microbench.Bandwidth(p, sizes, window)
}

// RunApp executes one of the paper's workloads ("IS", "CG", "MG", "LU",
// "FT", "SP", "BT", "S3D-50", "S3D-150") on procs processes.
func RunApp(name string, p Platform, class Class, procs int) (AppResult, error) {
	a, err := apps.ByName(name)
	if err != nil {
		return AppResult{}, err
	}
	return a.Run(apps.RunConfig{Platform: p, Class: class, Procs: procs})
}

// RunAppSMP executes a workload with several ranks per node (block
// mapping), the paper's SMP configuration.
func RunAppSMP(name string, p Platform, class Class, procs, perNode int) (AppResult, error) {
	a, err := apps.ByName(name)
	if err != nil {
		return AppResult{}, err
	}
	return a.Run(apps.RunConfig{Platform: p, Class: class, Procs: procs, ProcsPerNode: perNode})
}

// AppNames lists the available workloads in the paper's order.
func AppNames() []string {
	var names []string
	for _, a := range apps.Registry() {
		names = append(names, a.Name)
	}
	return names
}
