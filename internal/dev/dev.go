// Package dev defines the service-provider interface between the MPI
// library and an interconnect model — the simulation analogue of MPICH's
// ADI2/Channel boundary.
//
// The MPI point-to-point engine (internal/mpi) implements the eager and
// rendezvous protocols once; each interconnect (internal/verbs, internal/gm,
// internal/elan, all built on internal/nic) and the multi-rail bond over
// them (internal/rail) supplies a Network and its Endpoints. The contract
// is one fixed method set, required of every network, so the layers above
// call it directly instead of discovering capabilities:
//
//   - Network: Name, Engine, Nodes and NewEndpoint wire a job;
//     ShmemPolicy is the intra-node channel policy (Figures 9, 10, 25);
//     MinLinkLatency, Diameter and FaultPlan time and arm the MPI layer's
//     completion hop and watchdog; ConfigErr carries a configuration
//     failure to mpi.NewWorld; AttachTracer, InstrumentMetrics,
//     Utilizations and DeadElement feed tracing, metrics, bottleneck
//     analysis and incident attribution.
//   - Endpoint: host overheads (Figure 3) via SendOverhead/RecvOverhead;
//     protocol switch points (Figures 1, 2, 7, 8) via EagerThreshold;
//     registration / NIC-MMU cost (Figures 7, 8) via AcquireBuf and
//     AcquireOnEager; NIC-driven rendezvous progress (Figure 6) via
//     NICProgress; command-queue backpressure (Figure 2's Quadrics
//     window-16 sag) via IssueStall; per-connection memory (Figure 13) via
//     MemoryUsage; the device verbs Eager, Control and Bulk; and the
//     retransmit report OnRetry.
//
// Each verb reports its own outcome, the way a VAPI completion-queue entry
// carries its work request's status and GM hands a send's status to that
// send's callback: the done callback passed to Eager, Control or Bulk runs
// exactly once, with nil when the operation has landed or with the typed
// error that ended it (faults.LinkError, faults.NodeDownError,
// faults.PartitionError, rail.AllRailsError). There is no endpoint-wide
// failure sink, so whoever issues an operation receives its error.
//
// Two capabilities stay optional, discovered by type assertion, because
// they are exactly the per-model differences the paper measures: only
// Elan's NIC matches messages itself (NICMatcher, behind Quadrics'
// Alltoall cost), and only the InfiniBand model can multicast
// (Multicaster, the Section 3.7 extension a platform switches on). A
// network without them is not missing a feature; it is a different
// interconnect.
package dev

import (
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/shmem"
	"mpinet/internal/sim"
)

// Wire sizes every interconnect shares: an eager packet carries its payload
// behind an EnvelopeBytes header, and a control message (RTS/CTS/FIN) is
// ControlBytes on the wire.
const (
	EnvelopeBytes = 32
	ControlBytes  = 64
)

// Endpoint is one process's attachment to an interconnect. Endpoints on the
// same node share that node's NIC, bus and link hardware, so contention
// between co-located processes is modelled for free.
type Endpoint interface {
	// Node returns the index of the node this endpoint lives on.
	Node() int

	// EagerThreshold is the largest payload sent by the eager protocol;
	// larger messages use rendezvous.
	EagerThreshold() int64

	// SendOverhead is the host CPU time consumed initiating a send of the
	// given size (descriptor build, doorbell, library bookkeeping).
	SendOverhead(size int64) sim.Time

	// RecvOverhead is the host CPU time consumed completing (matching,
	// unpacking bookkeeping) a receive of the given size.
	RecvOverhead(size int64) sim.Time

	// CopyTime is the host time to memcpy size bytes between a user buffer
	// and pre-registered staging (the eager path's copies).
	CopyTime(size int64) sim.Time

	// AcquireBuf makes a user buffer usable by the NIC (registration for
	// VAPI/GM, MMU-table synchronization for Elan) and returns the host
	// time it cost. Warm buffers cost zero.
	AcquireBuf(b memreg.Buf) sim.Time

	// AcquireOnEager reports whether AcquireBuf applies to eager-path
	// buffers too (true for Elan, whose NIC reads user memory directly even
	// for small messages; false for VAPI/GM, whose eager path copies
	// through pre-registered staging).
	AcquireOnEager() bool

	// NICProgress reports whether the NIC advances the rendezvous protocol
	// without host involvement (true for Elan/Tports).
	NICProgress() bool

	// IssueStall returns host stall time required before issuing the next
	// NIC operation (command-queue backpressure), possibly zero.
	IssueStall() sim.Time

	// Eager moves an eager packet (envelope + payload) to the destination
	// node's eager region; done(nil) fires there when it has landed. tid is
	// the message's trace ID (0 = untraced), as for Control and Bulk. A
	// permanent failure (retry exhaustion, a dead node, a partitioned
	// fabric, every rail of a bond down) calls done with its typed error
	// instead; done runs exactly once either way.
	Eager(dst int, size int64, tid msgtrace.ID, done func(err error))

	// Control moves a small protocol message (RTS/CTS/FIN), completing as
	// Eager does.
	Control(dst int, tid msgtrace.ID, done func(err error))

	// Bulk moves rendezvous payload zero-copy; done(nil) fires when the last
	// byte is in the destination user buffer, and a failure completes it as
	// for Eager.
	Bulk(dst int, size int64, tid msgtrace.ID, done func(err error))

	// MemoryUsage is the bytes of library+device memory this process
	// consumes when connected to npeers other processes.
	MemoryUsage(npeers int) int64

	// OnRetry registers an observer of each individual retransmit of the
	// reliability protocol, before the retry budget is exhausted. The rail
	// bond installs one as a passive health signal: a run of retransmits
	// without an intervening delivery marks the rail suspect long before
	// an operation fails. An endpoint with no fault plan never calls it.
	OnRetry(observe func())
}

// NICMatcher is implemented by endpoints whose NIC performs message
// matching itself (Quadrics Tports). The NIC walks its table of pending
// entries for every arrival, so delivery is delayed — and the NIC processor
// occupied — in proportion to how many receives are outstanding. This is
// the mechanism behind Quadrics' poor many-to-many (Alltoall) performance
// relative to its excellent ping-pong latency.
type NICMatcher interface {
	// MatchDelay runs cb after the NIC has matched an arrival against
	// pending posted entries.
	MatchDelay(pending int, cb func())
}

// Multicaster is implemented by endpoints whose switch can replicate one
// injected packet stream to every node — the hardware-supported collective
// extension the paper's Section 3.7 announces for InfiniBand. The MPI
// library's Bcast rides it when available.
type Multicaster interface {
	// Multicast pushes size bytes from this endpoint's node to every other
	// node; deliver fires once per destination node as the payload lands.
	Multicast(size int64, deliver func(node int))
}

// Utilization is one hardware resource's cumulative busy time, for
// bottleneck analysis after a run.
type Utilization struct {
	// Resource is the diagnostic name ("iba0/bus", "myri3/lanai", ...).
	Resource string
	// Busy is cumulative service time.
	Busy sim.Time
	// Jobs is the number of jobs served.
	Jobs int64
}

// Network is a fully wired interconnect instance for a cluster.
type Network interface {
	// Name is the short interconnect name used in reports ("IBA", "Myri",
	// "QSN").
	Name() string

	// Engine returns the simulation engine the hardware is scheduled on.
	Engine() *sim.Engine

	// Nodes returns the number of hosts attached.
	Nodes() int

	// NewEndpoint attaches one more process to the given node.
	NewEndpoint(node int) Endpoint

	// ShmemPolicy reports this MPI implementation's intra-node policy:
	// messages strictly smaller than below use the shared-memory channel
	// between co-located ranks, whose parameters are ch; larger ones (and
	// everything, if below is 0) loop back through the NIC. MVAPICH uses
	// 16 KB, MPICH-GM effectively infinity, Quadrics MPI 0.
	ShmemPolicy() (below int64, ch shmem.Config)

	// MinLinkLatency is a lower bound on the simulated latency of any
	// message crossing between nodes — cable flight plus the cheapest port
	// logic, with every queueing and protocol delay excluded. The MPI layer
	// times its cross-node completion hop (the rendezvous FIN back to the
	// sender's node) at this bound.
	MinLinkLatency() sim.Time

	// Diameter is the element count of the fabric's longest route. The MPI
	// layer folds it into the scaled watchdog budget
	// (faults.ScaledTimeout): a deep Clos under faults needs more slack per
	// wait than the paper's single crossbar.
	Diameter() int

	// FaultPlan is the fault-injection plan the network is wired with (see
	// internal/faults), nil when faults are off. The MPI layer arms its
	// per-wait watchdog from it: a run on a faulty network must end in a
	// typed error, never a silent hang.
	FaultPlan() *faults.Plan

	// ConfigErr is the configuration failure the network was built with,
	// or nil: construction cannot return an error through the Platform
	// builder chain, so the network carries it and mpi.NewWorld surfaces
	// it as a validation failure before anything runs.
	ConfigErr() error

	// AttachTracer carries per-message trace context (see
	// internal/msgtrace). The MPI world attaches its recorder at wiring
	// time with rail -1; the rail bond forwards it to each member network
	// with that member's rail index, fixed for the network's lifetime.
	// Device models take each message's trace ID from the
	// Eager/Control/Bulk call, keep it with the message across its retry
	// chain, and record wire, hop, backoff and flight-recorder observations
	// against it, attributed to the attached rail.
	AttachTracer(rec *msgtrace.Recorder, rail int8)

	// InstrumentMetrics wires the network's hardware into the registry
	// (a nil registry is a no-op). Endpoints created afterwards bind their
	// protocol counters to it.
	InstrumentMetrics(m *metrics.Registry)

	// Utilizations returns per-resource occupancy accounting for every
	// modelled resource, in a stable order.
	Utilizations() []Utilization

	// DeadElement names a fabric element (switch) down at now, for
	// incident attribution: the rail layer asks when a rail goes dead so
	// the flight recorder can blame the switch rather than just the rail.
	// ok is false when nothing is dead.
	DeadElement(now sim.Time) (name string, code int64, ok bool)
}
