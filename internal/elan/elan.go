// Package elan models the Quadrics side of the paper's testbed: Elan3
// QM-400 NICs on 64-bit/66 MHz PCI, an Elite-16 wormhole crossbar, 400 MB/s
// per-direction links, and an Elan3lib/Tports-like layer — the substrate of
// MPICH 1.2.4 over Quadrics.
//
// Mechanisms represented:
//
//   - The NIC executes the protocol: one-way latency is excellent (~4.6 us,
//     Figure 1) while *host* overhead is the highest of the three (~3.3 us,
//     Figure 3) because the Tports library does matching setup, MMU
//     bookkeeping and, below 288 bytes, PIO-copies the payload into Elan
//     SDRAM. Past that size the copy moves to DMA and the host share dips —
//     Figure 3's downward step after 256 B.
//   - The rendezvous handshake is progressed by the NIC thread processor, so
//     communication overlaps computation fully (Figure 6's steadily growing
//     Quadrics curve).
//   - Per-direction Elan DMA engines cap uni-directional bandwidth (~308
//     MB/s); bi-directionally both engines run but the shared PCI bus caps
//     the sum (~375 MB/s) — Figures 2 and 5.
//   - The Elan command queue holds 16 outstanding operations; deeper send
//     windows stall the host, the Figure 2 drop past window 16.
//   - No registration, but the NIC MMU must hold translations: first touch
//     of a new buffer costs host time at any message size (Figures 7, 8).
//
// Fabric wiring, the Eager/Control/Bulk send path, the per-peer path cache
// and the retry ladder come from internal/nic.
package elan

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

// Config selects the Quadrics platform variant; the paper's Elite-16
// switch has 16 ports.
type Config struct {
	nic.Config
}

// DefaultConfig is the paper's 8-node testbed.
func DefaultConfig(nodes int) Config {
	return Config{nic.Config{Nodes: nodes, SwitchPorts: 16}}
}

// Calibration constants (see DESIGN.md §5).
const (
	// linkRate is 400 MB/s (decimal) per direction.
	linkRateBps = 400e6
	// elanPerMsg is the NIC thread processor's work per packet; shared by
	// both directions.
	elanPerMsg = 150 * units.Nanosecond
	// Tports matching on the NIC: a fixed cost plus a walk over the pending
	// posted-receive table, serialized on the thread processor.
	matchBase     = 100 * units.Nanosecond
	matchPerEntry = 900 * units.Nanosecond
	// slowIssue is the host cost of issuing past a full command queue (the
	// library falls back to a polled slow path) and queueThrash the NIC
	// thread-processor time lost swapping queue state — together the
	// window >16 bandwidth sag of Figure 2.
	slowIssue   = 8 * units.Microsecond
	queueThrash = 10 * units.Microsecond
	// Per-direction Elan DMA engines; their chunk occupancy is the
	// uni-directional bandwidth ceiling (~308 MB/s).
	dmaRateBps  = 340e6
	dmaPerChunk = 250 * units.Nanosecond
	// pioMax is the size up to which the host PIO-copies payload into Elan
	// SDRAM (no sender-side bus DMA, higher host overhead).
	pioMax = 288
	// Host overheads: Tports library work. Below pioMax the send side also
	// PIO-copies; above, DMA takes over and the host share drops.
	sendOverheadPIO = 1800 * units.Nanosecond
	sendOverheadDMA = 1400 * units.Nanosecond
	recvOverhead    = 1500 * units.Nanosecond
	wireLatency     = 80 * units.Nanosecond
	// switchCrossing for the Elite crossbar (wormhole).
	switchCrossing = 150 * units.Nanosecond
	// eagerMax: Tports switches to its rendezvous-style large-message
	// protocol past this size.
	eagerMax = 16 * 1024
	copyBW   = 1600 // MB/s host memcpy
	// cmdQueueDepth is the Elan command queue; issuing past it stalls the
	// host until a slot frees.
	cmdQueueDepth = 16
	// MMU synchronization cost on first touch of a buffer (NIC-side
	// translations are host-maintained).
	mmuPerOp    = 10 * units.Microsecond
	mmuPerPage  = 2800 * units.Nanosecond
	mmuCapPages = 16384 // 64 MB of on-board SDRAM worth of translations
	// Memory: flat footprint regardless of peers (Figure 13).
	memFlat = 11 * units.MB
	// loopbackPenalty is the extra library cost of the NIC-loopback
	// intra-node path Quadrics MPI uses (Figure 9: intra-node latency is
	// *worse* than inter-node).
	loopbackPenalty = 2500 * units.Nanosecond
)

// spec wires the Elite crossbar and carries Elan source retry: the
// wormhole fabric reports a failed route to the source NIC almost
// immediately, and the thread processor re-issues the packet from its own
// SDRAM many times at a short fixed interval before raising a network
// error to the library — many cheap retries rather than the host-visible
// timeouts of the other two interconnects. Each re-issue re-resolves its
// route (adaptive routing's leaf-local state forgets dead planes at
// detection).
var spec = nic.Spec{
	Pkg:         "elan",
	Clos:        "elite-clos",
	Ports:       16,
	LinkRate:    units.BytesPerSecond(linkRateBps),
	Crossing:    switchCrossing,
	WireLatency: wireLatency,
	EagerMax:    eagerMax,
	Retry:       faults.RetryPolicy{Limit: 31, Interval: 30 * units.Microsecond},
	Protocol:    "Elan source retry",
}

// Path variants: PIO-sized sends skip the sender bus DMA, so each peer
// keeps two staged paths.
const (
	pathPIO = iota // size <= pioMax
	pathDMA        // size > pioMax
)

// Network is a wired Quadrics cluster.
type Network struct {
	*nic.Net
	nodes []*nodeHW
}

type nodeHW struct {
	bus      *bus.Bus
	elanProc *sim.Station
	dmaTx    *sim.Pipe
	dmaRx    *sim.Pipe
	link     *fabric.Link
}

// New wires a Quadrics network.
func New(eng *sim.Engine, cfg Config) *Network {
	n := &Network{Net: nic.New(eng, cfg.Config, &spec)}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("qsn%d", i)
		n.nodes = append(n.nodes, &nodeHW{
			bus:      bus.New(name+"/bus", bus.PCI64x66),
			elanProc: sim.NewStation(name + "/elanproc"),
			dmaTx:    sim.NewPipe(name+"/dma-tx", units.BytesPerSecond(dmaRateBps), dmaPerChunk, 0),
			dmaRx:    sim.NewPipe(name+"/dma-rx", units.BytesPerSecond(dmaRateBps), dmaPerChunk, 0),
			link: fabric.NewLink(name+"/link", fabric.LinkConfig{
				Rate:     units.BytesPerSecond(linkRateBps),
				PerChunk: 40 * units.Nanosecond,
				MinFrame: 32,
			}),
		})
	}
	return n
}

// Name implements dev.Network.
func (n *Network) Name() string { return "QSN" }

// ShmemPolicy implements dev.Network: the Quadrics MPI of the paper loops
// intra-node traffic through the NIC at every size, so the channel
// parameters go unused.
func (n *Network) ShmemPolicy() (int64, shmem.Config) { return 0, shmem.DefaultConfig() }

// InstrumentMetrics implements dev.Network: per-node bus, NIC
// thread processor, DMA engine and link counters plus device-level spans
// and switch port counters. Endpoints created afterwards bind protocol
// counters, MMU-cache probes, and the Elan-specific command-queue stall
// and NIC-match counters.
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	for i, hw := range n.nodes {
		prefix := metrics.NodePrefix(i) + "nic"
		hw.bus.Instrument(m, i)
		m.ProbeCount(prefix+"/elanproc_jobs", hw.elanProc.Jobs)
		m.ProbeTime(prefix+"/elanproc_busy_time", hw.elanProc.BusyTime)
		m.ProbeTime(prefix+"/elanproc_wait_time", hw.elanProc.WaitTime)
		hw.elanProc.RecordSpans(m, i, "threadproc", "nic")
		hw.dmaTx.Instrument(m, prefix+"/tx")
		hw.dmaRx.Instrument(m, prefix+"/rx")
		hw.dmaTx.RecordSpans(m, i, "tx", "nic")
		hw.dmaRx.RecordSpans(m, i, "rx", "nic")
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
			dev.Utilization{Resource: hw.elanProc.Name(), Busy: hw.elanProc.BusyTime(), Jobs: hw.elanProc.Jobs()},
			dev.Utilization{Resource: hw.dmaTx.Name(), Busy: hw.dmaTx.BusyTime(), Jobs: hw.dmaTx.Jobs()},
			dev.Utilization{Resource: hw.dmaRx.Name(), Busy: hw.dmaRx.BusyTime(), Jobs: hw.dmaRx.Jobs()},
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
		mmu: memreg.NewPinCache(
			memreg.CostModel{PerOp: mmuPerOp, PerPage: mmuPerPage},
			memreg.CostModel{}, // MMU entries are overwritten, not deregistered
			mmuCapPages),
	}
	ep.Endpoint = nic.NewEndpoint(n.Net, node, ep)
	ep.freeSlot = func() { ep.outstanding-- }
	ep.cmdqStalls = n.Metrics().Counter(metrics.NodePrefix(node) + "nic/cmdq_stalls")
	ep.matches = n.Metrics().Counter(metrics.NodePrefix(node) + "nic/matches")
	dev.InstrumentPinCache(n.Metrics(), node, ep.mmu)
	return ep
}

type endpoint struct {
	nic.Endpoint
	net *Network
	mmu *memreg.PinCache

	// outstanding NIC commands (issued, not yet delivered) for the
	// command-queue model.
	outstanding int
	// freeSlot releases one slot; bound once, so the release hop of every
	// delivered message allocates nothing.
	freeSlot func()

	// metric handles (nil-safe no-ops when instrumentation is off)
	cmdqStalls *metrics.Counter
	matches    *metrics.Counter
}

func (ep *endpoint) NICProgress() bool    { return true }
func (ep *endpoint) AcquireOnEager() bool { return true }

func (ep *endpoint) SendOverhead(size int64) sim.Time {
	if size <= pioMax {
		// PIO copy is part of the host's send work.
		return sendOverheadPIO + units.MBps(copyBW).TimeFor(size)
	}
	return sendOverheadDMA
}

func (ep *endpoint) RecvOverhead(size int64) sim.Time { return recvOverhead }

func (ep *endpoint) CopyTime(size int64) sim.Time {
	return units.MBps(copyBW).TimeFor(size)
}

// AcquireBuf synchronizes the NIC MMU table for the buffer's pages. The
// update stalls the NIC's translation machinery — the DMA engines and the
// thread processor cannot translate through a table being rewritten — which
// is why low buffer-reuse rates hurt Quadrics bandwidth, not just latency
// (Figure 8).
func (ep *endpoint) AcquireBuf(b memreg.Buf) sim.Time {
	cost := ep.mmu.Acquire(b)
	if cost > 0 {
		hw := ep.net.nodes[ep.Node()]
		now := ep.net.Engine().Now()
		hw.elanProc.Use(now, cost)
		hw.dmaTx.Use(now, cost)
		hw.dmaRx.Use(now, cost)
	}
	return cost
}

func (ep *endpoint) MemoryUsage(npeers int) int64 { return memFlat }

// IssueStall implements the 16-deep command queue: once it is full, every
// further issue takes the library's polled slow path on the host and makes
// the NIC thread processor swap queue state, stealing time from delivery.
func (ep *endpoint) IssueStall() sim.Time {
	if ep.outstanding < cmdQueueDepth {
		return 0
	}
	ep.cmdqStalls.Inc()
	hw := ep.net.nodes[ep.Node()]
	hw.elanProc.Use(ep.net.Engine().Now(), queueThrash)
	return slowIssue
}

// MatchDelay implements dev.NICMatcher: the thread processor walks the
// pending Tports table before delivering. The walk is capped — in-order
// streams match near the head; the full cost shows in many-to-many patterns
// where unrelated entries pile up.
func (ep *endpoint) MatchDelay(pending int, cb func()) {
	const maxWalk = 8
	if pending > maxWalk {
		pending = maxWalk
	}
	ep.matches.Inc()
	eng := ep.net.Engine()
	hw := ep.net.nodes[ep.Node()]
	_, end := hw.elanProc.Use(eng.Now(), matchBase+sim.Time(pending)*matchPerEntry)
	eng.At(end, cb)
}

// elanStage bills the shared NIC thread processor per chunk.
type elanStage struct{ st *sim.Station }

func (l elanStage) Send(now sim.Time, n int64) (start, end sim.Time) {
	return l.st.Use(now, elanPerMsg)
}

// Path implements nic.Model: the staged path to dst for a PIO or DMA
// variant, around the fabric segment seg. PIO-sized sends skip the sender-side bus DMA (the host
// PIO-copied into Elan SDRAM already, billed in SendOverhead). Same-node
// traffic loops through the NIC, crossing the node's PCI bus twice.
func (ep *endpoint) Path(dst, variant int, seg fabric.Segment) []fabric.PathStage {
	src := ep.net.nodes[ep.Node()]
	var stages []fabric.PathStage
	if variant == pathDMA {
		stages = append(stages, fabric.PathStage{Stage: src.bus})
	}
	if dst == ep.Node() {
		return append(stages,
			fabric.PathStage{Stage: elanStage{src.elanProc}, Latency: loopbackPenalty},
			fabric.PathStage{Stage: src.dmaTx},
			fabric.PathStage{Stage: src.dmaRx},
			fabric.PathStage{Stage: src.bus},
		)
	}
	d := ep.net.nodes[dst]
	stages = append(stages,
		fabric.PathStage{Stage: elanStage{src.elanProc}},
		fabric.PathStage{Stage: src.dmaTx},
		fabric.PathStage{Stage: src.link.Up(), Latency: wireLatency},
	)
	stages = append(stages, seg.Stages...)
	return append(stages,
		fabric.PathStage{Stage: d.link.Down(), Latency: seg.Down + wireLatency},
		fabric.PathStage{Stage: elanStage{d.elanProc}},
		fabric.PathStage{Stage: d.dmaRx},
		fabric.PathStage{Stage: d.bus},
	)
}

// Hold implements nic.Holder: every message occupies a command-queue slot,
// for the whole retry chain under faults.
func (ep *endpoint) Hold(nic.Msg) { ep.outstanding++ }

// Delivered implements nic.Holder: the slot is source-NIC state, so its
// release rides a cross-domain hop back, one wire flight after delivery.
func (ep *endpoint) Delivered(m nic.Msg) {
	if m.Dst == ep.Node() {
		ep.freeSlot()
		return
	}
	ep.net.Engine().Schedule(wireLatency, ep.freeSlot)
}

// Aborted implements nic.Holder: a failed message frees its slot at once.
func (ep *endpoint) Aborted(nic.Msg) { ep.outstanding-- }

// Resend implements nic.Resender: the thread processor re-issues the
// packet from NIC SDRAM.
func (ep *endpoint) Resend() {
	ep.net.nodes[ep.Node()].elanProc.Use(ep.net.Engine().Now(), elanPerMsg)
}

// Shape implements nic.Shaper: a message past pioMax rides the DMA path.
func (ep *endpoint) Shape(m nic.Msg) nic.Msg {
	if m.Size > pioMax {
		m.Variant = pathDMA
	}
	return m
}
