// Package verbs models the InfiniBand side of the paper's testbed: Mellanox
// InfiniHost MT23108 HCAs on PCI-X (or PCI, for the Figure 26–28
// experiments), an InfiniScale-class crossbar switch, and a VAPI-like verbs
// layer with Reliable Connection semantics, mandatory memory registration
// and RDMA — the substrate MVAPICH 0.9.1 runs on.
//
// Mechanisms represented:
//
//   - Separate HCA transmit and receive processing engines: bi-directional
//     traffic barely degrades latency (Figure 4).
//   - The host bus is shared by both DMA directions: uni-directional
//     bandwidth tops out at ~841 MB/s, bi-directional at the bus's ~900
//     (Figures 2 and 5); swapping PCI-X for PCI lowers the lid to ~378
//     (Figure 27).
//   - Registration with a pin-down cache: the rendezvous (zero-copy) path
//     pays per-page registration on cache misses, so buffer reuse matters
//     above the 2 KB eager threshold (Figures 7, 8).
//   - Per-Reliable-Connection resources: memory grows with the number of
//     peers (Figure 13).
//
// Fabric wiring, the Eager/Control/Bulk send path, the shared route sides
// and the RC retry ladder come from internal/nic.
package verbs

import (
	"fmt"

	"mpinet/internal/bus"
	"mpinet/internal/dev"
	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/nic"
	"mpinet/internal/shmem"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Config selects the InfiniBand platform variant.
type Config struct {
	nic.Config

	// Bus is PCIX64x133 (default testbed) or PCI64x66.
	Bus bus.Kind

	// OnDemandConnections enables the connection-management extension the
	// paper points to for its memory-usage finding (Section 3.8, citing Wu
	// et al.): Reliable Connections are established on first use instead of
	// at startup, so the Figure 13 memory growth tracks peers actually
	// communicated with, at the price of a setup stall on first contact.
	OnDemandConnections bool

	// HWMulticast enables the hardware-supported collective extension the
	// paper's Section 3.7 announces (Kini et al.): broadcasts ride a
	// switch-replicated multicast instead of a point-to-point tree.
	HWMulticast bool
}

// DefaultConfig is the paper's 8-node OSU testbed.
func DefaultConfig(nodes int) Config {
	return Config{Config: nic.Config{Nodes: nodes, SwitchPorts: 8}, Bus: bus.PCIX64x133}
}

// Calibration constants. Physical rates come from the hardware description
// in the paper; software costs are calibrated so the anchor measurements
// quoted in the paper's text are matched (see DESIGN.md §5).
const (
	// linkRate is the delivered InfiniBand 4x data rate: 10 Gbps signalling,
	// 8b/10b coding, minus flow-control/header share.
	linkRateBps = 0.92e9
	// hcaSetup is HCA work per message visible as latency (WQE fetch,
	// protection checks) but pipelined off the data path.
	hcaSetup = 1600 * units.Nanosecond
	// hcaPerChunk is HCA occupancy per packet/chunk; one engine per
	// direction.
	hcaPerChunk = 250 * units.Nanosecond
	// hcaRate is the HCA's internal data path rate, faster than the link.
	hcaRateBps = 1.4e9
	// wireLatency covers cable flight plus port logic per hop.
	wireLatency = 120 * units.Nanosecond
	// switchCrossing is the InfiniScale cut-through crossing time.
	switchCrossing = 200 * units.Nanosecond
	// sendOverhead / recvOverhead are host costs per message (descriptor
	// build + doorbell; completion poll + bookkeeping). Sum = the paper's
	// ~1.7 us host overhead.
	sendOverhead = 900 * units.Nanosecond
	recvOverhead = 800 * units.Nanosecond
	// overheadPerKB adds the slight size dependence visible in Figure 3.
	overheadPerKB = 60 * units.Nanosecond
	// pioPenaltyPCI models slower doorbell/descriptor MMIO across plain
	// PCI; it is the bulk of the +0.6 us small-message latency of Fig. 26.
	pioPenaltyPCI = 500 * units.Nanosecond
	// eagerMax is MVAPICH's eager threshold; the Figure 2 bandwidth dip at
	// 2 KB is the switch to rendezvous.
	eagerMax = 2 * 1024
	// copyBW is host memcpy bandwidth for eager staging copies.
	copyBWMBps = 1600
	// Registration cost: VAPI register-memory-region verb.
	regPerOp    = 22 * units.Microsecond
	regPerPage  = 3500 * units.Nanosecond
	deregPerOp  = 8 * units.Microsecond
	deregPage   = 1200 * units.Nanosecond
	pinCapPages = 32768 // 128 MB pin-down cache
	// Memory model (Figure 13): MPI base plus per-RC-connection buffers
	// (pre-posted receives, RDMA fast-path buffers, QP/CQ state).
	memBase    = 14 * units.MB
	memPerPeer = 5200 * units.KB
	// connSetup is the three-way RC establishment cost paid on first
	// contact under on-demand connection management.
	connSetup = 350 * units.Microsecond
)

// spec wires the InfiniScale crossbar and carries the VAPI Reliable
// Connection retransmit policy: the HCA detects a missing ACK after a
// local-ack-timeout and resends, doubling the timeout each consecutive
// retry; after retry_count resends it posts a completion with a
// transport-retry-exceeded error. An RC retry chain holds nothing beyond
// the QP state every connection keeps, and the resend costs no extra HCA
// work: each attempt re-runs the full staged path (bus, HCA engines and
// link).
var spec = nic.Spec{
	Pkg:         "verbs",
	Clos:        "ib-clos",
	Ports:       8,
	LinkRate:    units.BytesPerSecond(linkRateBps),
	Crossing:    switchCrossing,
	WireLatency: wireLatency,
	EagerMax:    eagerMax,
	Retry:       faults.RetryPolicy{Limit: 7, Interval: 150 * units.Microsecond, Exponential: true},
	Protocol:    "RC retransmit",
}

// Network is a wired InfiniBand cluster.
type Network struct {
	*nic.Net
	cfg   Config
	nodes []*nodeHW
}

type nodeHW struct {
	bus   *bus.Bus
	hcaTx *sim.Pipe
	hcaRx *sim.Pipe
	link  *fabric.Link
}

// New wires an InfiniBand network with the given configuration.
func New(eng *sim.Engine, cfg Config) *Network {
	n := &Network{Net: nic.New(eng, cfg.Config, &spec), cfg: cfg}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("iba%d", i)
		n.nodes = append(n.nodes, &nodeHW{
			bus:   bus.New(name+"/bus", cfg.Bus),
			hcaTx: sim.NewPipe(name+"/hca-tx", units.BytesPerSecond(hcaRateBps), hcaPerChunk, 0),
			hcaRx: sim.NewPipe(name+"/hca-rx", units.BytesPerSecond(hcaRateBps), hcaPerChunk, 0),
			link: fabric.NewLink(name+"/link", fabric.LinkConfig{
				Rate:     units.BytesPerSecond(linkRateBps),
				PerChunk: 50 * units.Nanosecond,
				MinFrame: 64,
			}),
		})
	}
	return n
}

// Name implements dev.Network.
func (n *Network) Name() string { return "IBA" }

// ShmemPolicy implements dev.Network: MVAPICH uses the shared-memory
// channel for intra-node messages under 16 KB and NIC loopback above.
func (n *Network) ShmemPolicy() (int64, shmem.Config) {
	c := shmem.DefaultConfig()
	c.Handshake = 1000 * units.Nanosecond // MVAPICH smp channel: ~1.6us small-message latency
	return 16 * units.KB, c
}

// InstrumentMetrics implements dev.Network: per-node bus, HCA
// engine, and link counters plus device-level spans, and the switching
// fabric's per-port counters. Endpoints created afterwards bind protocol
// counters and pin-cache probes to the same registry.
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	for i, hw := range n.nodes {
		prefix := metrics.NodePrefix(i) + "nic"
		hw.bus.Instrument(m, i)
		hw.hcaTx.Instrument(m, prefix+"/tx")
		hw.hcaRx.Instrument(m, prefix+"/rx")
		hw.hcaTx.RecordSpans(m, i, "tx", "nic")
		hw.hcaRx.RecordSpans(m, i, "rx", "nic")
		hw.link.Instrument(m, i)
	}
	n.InstrumentFabric(m)
}

// Utilizations implements dev.Network.
func (n *Network) Utilizations() []dev.Utilization {
	var out []dev.Utilization
	for _, hw := range n.nodes {
		out = append(out,
			dev.Utilization{Resource: hw.bus.Name(), Busy: hw.bus.BusyTime(), Jobs: hw.bus.Jobs()},
			dev.Utilization{Resource: hw.hcaTx.Name(), Busy: hw.hcaTx.BusyTime(), Jobs: hw.hcaTx.Jobs()},
			dev.Utilization{Resource: hw.hcaRx.Name(), Busy: hw.hcaRx.BusyTime(), Jobs: hw.hcaRx.Jobs()},
			dev.Utilization{Resource: hw.link.Up().Name(), Busy: hw.link.Up().BusyTime(), Jobs: hw.link.Up().Jobs()},
			dev.Utilization{Resource: hw.link.Down().Name(), Busy: hw.link.Down().BusyTime(), Jobs: hw.link.Down().Jobs()},
		)
	}
	return out
}

// NewEndpoint implements dev.Network.
func (n *Network) NewEndpoint(node int) dev.Endpoint {
	ep := &endpoint{
		net: n,
		pin: memreg.NewPinCache(
			memreg.CostModel{PerOp: regPerOp, PerPage: regPerPage},
			memreg.CostModel{PerOp: deregPerOp, PerPage: deregPage},
			pinCapPages),
	}
	ep.Endpoint = nic.NewEndpoint(n.Net, node, ep)
	ep.connSetups = n.Metrics().Counter(metrics.NodePrefix(node) + "nic/conn_setups")
	dev.InstrumentPinCache(n.Metrics(), node, ep.pin)
	return ep
}

type endpoint struct {
	nic.Endpoint
	net *Network
	pin *memreg.PinCache

	// connSetups counts on-demand RC establishments (nil-safe).
	connSetups *metrics.Counter
	// connected marks the peers an RC connection is established to under
	// on-demand mode (allocated on first contact); nconn counts them.
	connected []bool
	nconn     int
}

func (ep *endpoint) NICProgress() bool    { return false }
func (ep *endpoint) AcquireOnEager() bool { return false }
func (ep *endpoint) IssueStall() sim.Time { return 0 }

func (ep *endpoint) SendOverhead(size int64) sim.Time {
	return sendOverhead + sim.Time(size/units.KB)*overheadPerKB
}

func (ep *endpoint) RecvOverhead(size int64) sim.Time {
	return recvOverhead + sim.Time(size/units.KB)*overheadPerKB
}

func (ep *endpoint) CopyTime(size int64) sim.Time {
	return units.MBps(copyBWMBps).TimeFor(size)
}

func (ep *endpoint) AcquireBuf(b memreg.Buf) sim.Time {
	return ep.pin.Acquire(b)
}

func (ep *endpoint) MemoryUsage(npeers int) int64 {
	if ep.net.cfg.OnDemandConnections {
		// Only established connections hold buffer resources.
		return memBase + int64(ep.nconn)*memPerPeer
	}
	return memBase + int64(npeers)*memPerPeer
}

// connect pays the RC setup cost on first contact with a peer node under
// on-demand connection management; zero otherwise.
func (ep *endpoint) connect(dst int) sim.Time {
	if !ep.net.cfg.OnDemandConnections || dst == ep.Node() {
		return 0
	}
	if ep.connected == nil {
		ep.connected = make([]bool, ep.net.Nodes())
	}
	if ep.connected[dst] {
		return 0
	}
	ep.connected[dst] = true
	ep.nconn++
	ep.connSetups.Inc()
	return connSetup
}

// pioPenalty is the per-message latency added by doorbell/descriptor MMIO,
// bus dependent.
func (ep *endpoint) pioPenalty() sim.Time {
	if ep.net.cfg.Bus == bus.PCI64x66 {
		return pioPenaltyPCI
	}
	return 0
}

// Head, Tail and Loopback implement nic.Model: the staged hardware path
// around the fabric segment. The fabric is cut-through: injection
// serializes on the source's up-link and drain on the destination's
// down-link (which doubles as the switch output port in a star), with the
// switch crossing as pure latency. Same-node traffic loops through the HCA
// without touching the link or switch.
func (ep *endpoint) Head(int) []fabric.PathStage {
	src := ep.net.nodes[ep.Node()]
	return []fabric.PathStage{
		{Stage: src.bus, Latency: ep.pioPenalty()},
		{Stage: src.hcaTx, Latency: hcaSetup},
		{Stage: src.link.Up(), Latency: wireLatency},
	}
}

// Tail implements nic.Model.
func (ep *endpoint) Tail(dst, _ int, down sim.Time) []fabric.PathStage {
	d := ep.net.nodes[dst]
	return []fabric.PathStage{
		{Stage: d.link.Down(), Latency: down + wireLatency},
		{Stage: d.hcaRx, Latency: hcaSetup},
		{Stage: d.bus},
	}
}

// Loopback implements nic.Model.
func (ep *endpoint) Loopback(int) []fabric.PathStage {
	src := ep.net.nodes[ep.Node()]
	return []fabric.PathStage{
		{Stage: src.bus, Latency: ep.pioPenalty()},
		{Stage: src.hcaTx, Latency: hcaSetup},
		{Stage: src.hcaRx, Latency: hcaSetup},
		{Stage: src.bus},
	}
}

// Shape implements nic.Shaper: under on-demand connection management the
// first message to a peer stalls for the RC setup.
func (ep *endpoint) Shape(m *nic.Msg) {
	m.Setup = ep.connect(m.Dst)
}

// Multicast implements dev.Multicaster when the platform enables hardware
// multicast: the payload is injected once and the switch replicates it onto
// every down-link. Only compiled in spirit — the method exists always, but
// the MPI layer consults HWMulticastEnabled before using it.
func (ep *endpoint) Multicast(size int64, deliver func(node int)) {
	eng := ep.net.Engine()
	up := fabric.Route{Head: ep.Head(0)}
	new(fabric.Transfer).Start(eng, &up, size+dev.EnvelopeBytes, fabric.ChunkFor(size), eng.Now(), func(at sim.Time) {
		for i := range ep.net.nodes {
			if i == ep.Node() {
				continue
			}
			i := i
			seg := ep.Segment(i)
			down := fabric.Route{Mid: seg.Stages, Tail: ep.Tail(i, 0, seg.Down)}
			new(fabric.Transfer).Start(eng, &down, size+dev.EnvelopeBytes, fabric.ChunkFor(size), at,
				func(sim.Time) { deliver(i) })
		}
	})
}

// HWMulticastEnabled reports whether the platform was configured with the
// hardware-collective extension.
func (ep *endpoint) HWMulticastEnabled() bool { return ep.net.cfg.HWMulticast }
