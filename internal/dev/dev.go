// Package dev defines the service-provider interface between the MPI
// library and an interconnect model — the simulation analogue of MPICH's
// ADI2/Channel boundary.
//
// The MPI point-to-point engine (internal/mpi) implements the eager and
// rendezvous protocols once; each interconnect (internal/verbs, internal/gm,
// internal/elan) supplies an Endpoint that prices host participation,
// registration, and wire movement according to its hardware. Everything that
// differentiates the three MPI implementations in the paper enters through
// this interface:
//
//   - host overheads (Figure 3) via SendOverhead/RecvOverhead,
//   - protocol switch points (Figures 1, 2, 7, 8) via EagerThreshold,
//   - registration / NIC-MMU cost (Figures 7, 8) via AcquireBuf and
//     AcquireOnEager,
//   - NIC-driven rendezvous progress (Figure 6) via NICProgress,
//   - command-queue backpressure (Figure 2's Quadrics window-16 sag) via
//     IssueStall,
//   - per-connection memory (Figure 13) via MemoryUsage,
//   - the intra-node channel policy (Figures 9, 10, 25) via ShmemBelow.
package dev

import (
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/msgtrace"
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
	// node's eager region; deliver fires there when it has landed. tid is
	// the message's trace ID (0 = untraced), as for Control and Bulk.
	Eager(dst int, size int64, tid msgtrace.ID, deliver func())

	// Control moves a small protocol message (RTS/CTS/FIN).
	Control(dst int, tid msgtrace.ID, deliver func())

	// Bulk moves rendezvous payload zero-copy; deliver fires when the last
	// byte is in the destination user buffer.
	Bulk(dst int, size int64, tid msgtrace.ID, deliver func())

	// MemoryUsage is the bytes of library+device memory this process
	// consumes when connected to npeers other processes.
	MemoryUsage(npeers int) int64
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

// UtilizationReporter is implemented by networks that expose per-resource
// occupancy accounting.
type UtilizationReporter interface {
	// Utilizations returns a snapshot for every modelled resource, in a
	// stable order.
	Utilizations() []Utilization
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

	// ShmemBelow reports this MPI implementation's intra-node policy:
	// messages strictly smaller than the returned size use the shared-
	// memory channel between co-located ranks; larger ones (and everything,
	// if it returns 0) loop back through the NIC. MVAPICH returns 16 KB,
	// MPICH-GM effectively infinity, Quadrics MPI 0.
	ShmemBelow() int64
}

// LookaheadReporter is implemented by networks that can state a lower bound
// on the simulated latency of any message crossing between nodes — cable
// flight plus the cheapest port logic, with every queueing and protocol
// delay excluded. The MPI layer times its cross-node completion hop (the
// rendezvous FIN back to the sender's node) at this bound.
type LookaheadReporter interface {
	MinLinkLatency() sim.Time
}

// FaultPlanner is implemented by networks wired with a fault-injection
// plan (see internal/faults). The MPI layer uses it to auto-arm its
// per-wait watchdog: a run on a faulty network must end in a typed error,
// never a silent hang. A nil plan means faults are off.
type FaultPlanner interface {
	FaultPlan() *faults.Plan
}

// FaultReporter is implemented by endpoints that can fail permanently
// (retry exhaustion under a fault plan). OnFault registers the sink those
// failures are delivered to, replacing any previous sink; the MPI layer
// installs one per rank so errors arrive attributed to the rank that
// issued the operation. An endpoint with no fault plan never calls it.
type FaultReporter interface {
	OnFault(sink func(err error))
}

// RetryReporter is implemented by endpoints that can surface each
// individual retransmit of their reliability protocol as it happens —
// before the retry budget is exhausted. The rail bonding layer
// (internal/rail) installs an observer as a passive health signal: a run
// of consecutive retransmits without an intervening delivery marks the
// rail suspect long before a permanent FaultReporter error would. An
// endpoint with no fault plan never calls the observer.
type RetryReporter interface {
	OnRetry(observe func())
}

// DiameterReporter is implemented by networks that can state their fabric's
// diameter — the element count of the longest route. The MPI layer folds it
// into the scaled watchdog budget (faults.ScaledTimeout): a deep Clos under
// faults needs more slack per wait than the paper's single crossbar.
type DiameterReporter interface {
	Diameter() int
}

// ElementHealth is implemented by networks whose fabric can suffer element
// deaths (switch kills). DeadElement names the element currently down, for
// incident attribution: the rail layer asks it when a rail goes dead so the
// flight recorder can blame the switch rather than just the rail.
type ElementHealth interface {
	DeadElement(now sim.Time) (name string, code int64, ok bool)
}

// TraceAttacher is implemented by networks that can carry per-message
// trace context (see internal/msgtrace). The MPI world attaches its
// recorder at wiring time with rail -1; the rail bond forwards it to each
// member network with that member's rail index, fixed for the network's
// lifetime. Device models take each message's trace ID from the
// Eager/Control/Bulk call, keep it with the message across its retry
// chain, and record wire, hop, backoff and flight-recorder observations
// against it, attributed to the attached rail.
type TraceAttacher interface {
	AttachTracer(rec *msgtrace.Recorder, rail int8)
}

// ConfigErrer is implemented by networks built from an invalid
// configuration: construction cannot return an error through the Platform
// builder chain, so the network carries it and mpi.NewWorld surfaces it as
// a validation failure before anything runs.
type ConfigErrer interface {
	ConfigErr() error
}
