// Package gm models the Myrinet side of the paper's testbed: M3F-PCIXD-2
// NICs (LANai-XP processor at 225 MHz with 2 MB on-board SRAM) on PCI-X,
// a Myrinet-2000 8-port crossbar, 2 Gbps-per-direction links, and a GM-like
// messaging layer (connectionless send/receive plus directed send,
// registration required) — the substrate MPICH-GM 1.2.5 runs on.
//
// Mechanisms represented:
//
//   - The 2 Gbps link is the uni-directional ceiling (~235 MB/s, Figure 2);
//     links are full duplex and the PCI-X bus has headroom, so
//     bi-directional traffic nearly doubles (~473 MB/s, Figure 5).
//   - The LANai processor orchestrates both directions: crossing traffic
//     queues behind it, which is the bi-directional latency penalty of
//     Figure 4 (6.7 us -> ~10 us).
//   - Send and receive payloads stage through the 2 MB SRAM; when both
//     directions carry deep large-message traffic the staging pool
//     oversubscribes and the DMA pipelines stall — the Figure 5 collapse
//     past 256 KB.
//   - MPICH-GM's eager path copies through pre-registered staging up to a
//     16 KB threshold; beyond it, directed send is zero-copy and pays
//     registration on pin-down cache misses (Figures 7, 8).
//
// Fabric wiring, the Eager/Control/Bulk send path, the per-peer path cache
// and the retry ladder come from internal/nic.
package gm

import (
	"fmt"
	"math"

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

// Config selects the Myrinet platform variant; the paper's Myrinet-2000
// switch has 8 ports.
type Config struct {
	nic.Config
}

// DefaultConfig is the paper's 8-node testbed.
func DefaultConfig(nodes int) Config {
	return Config{nic.Config{Nodes: nodes, SwitchPorts: 8}}
}

// Calibration constants (see DESIGN.md §5).
const (
	// linkRate is 2 Gbps per direction.
	linkRateBps = 2e9 / 8
	// lanaiPerMsg is LANai firmware work per packet (routing header, event
	// handling); the engine is shared by both directions.
	lanaiPerMsg = 1550 * units.Nanosecond
	// ackProcess is LANai work to generate/absorb GM's reliability ACK for
	// each delivered message; ackFlight is its wire time back. Under
	// bi-directional load these ACKs queue behind data processing — the
	// Figure 4 bi-directional latency penalty.
	ackProcess = 1500 * units.Nanosecond
	ackFlight  = 600 * units.Nanosecond
	// sdma/rdma are the NIC's per-direction DMA engines between host
	// memory/SRAM and the wire.
	dmaRateBps  = 300e6
	dmaPerChunk = 300 * units.Nanosecond
	// sramBytes is the staging SRAM; when both directions carry more
	// outstanding bulk than it holds, the DMA engines stall on staging and
	// fall to dmaStallRate (the Figure 5 collapse below 340 MB/s total).
	sramBytes       = 2 * units.MB
	dmaStallRateBps = 175e6
	// Host overheads: GM keeps the host almost out of the way (sum ~0.8 us,
	// Figure 3).
	sendOverhead  = 450 * units.Nanosecond
	recvOverhead  = 350 * units.Nanosecond
	overheadPerKB = 35 * units.Nanosecond
	wireLatency   = 100 * units.Nanosecond
	// switchCrossing for the Myrinet-2000 crossbar (cut-through).
	switchCrossing = 300 * units.Nanosecond
	// eagerMax is MPICH-GM's rendezvous threshold.
	eagerMax = 16 * 1024
	copyBW   = 1600 // MB/s staging memcpy
	// Registration (gm_register_memory) cost model.
	regPerOp    = 15 * units.Microsecond
	regPerPage  = 2200 * units.Nanosecond
	deregPerOp  = 6 * units.Microsecond
	deregPage   = 900 * units.Nanosecond
	pinCapPages = 32768
	// Memory: MPICH-GM pre-allocates a flat pool regardless of peers
	// (Figure 13).
	memFlat = 22 * units.MB
)

// spec wires the Myrinet-2000 crossbar and carries GM's send-token
// reliability: a sent token is only returned by the peer's ACK; when the
// ACK timeout lapses the LANai resends at a fixed interval, and after the
// resend budget it marks the connection dead and completes the send with
// GM_SEND_TIMED_OUT. Each resend re-resolves the route (the GM mapper's
// up*/down* route remap).
var spec = nic.Spec{
	Pkg:         "gm",
	Clos:        "myri-clos",
	Ports:       8,
	LinkRate:    units.BytesPerSecond(linkRateBps),
	Crossing:    switchCrossing,
	WireLatency: wireLatency,
	EagerMax:    eagerMax,
	Retry:       faults.RetryPolicy{Limit: 15, Interval: 200 * units.Microsecond},
	Protocol:    "GM send-token resend",
}

// Network is a wired Myrinet cluster.
type Network struct {
	*nic.Net
	nodes []*nodeHW
}

type nodeHW struct {
	net   *Network
	node  int
	bus   *bus.Bus
	lanai *sim.Station // shared firmware engine
	sdma  *stallPipe   // host->wire DMA
	rdma  *stallPipe   // wire->host DMA
	link  *fabric.Link

	// staging accounting for the SRAM model
	outTx int64
	outRx int64

	// acks counts GM reliability ACKs this node's LANai absorbed (nil-safe)
	acks *metrics.Counter
}

// Effects a peer's message has on this node's NIC, delivered as typed
// events (HandleEvent's op argument) so the per-message hops allocate
// nothing.
const (
	claimRx   int64 = iota // bulk staging claimed on the receiver
	releaseRx              // a failed bulk send's receiver staging returned
	absorbAck              // the reliability ACK returns to the sender
)

// HandleEvent implements sim.Handler: apply op to this NIC. n is the bulk
// size the op moves, 0 for an eager or control message's ACK.
func (hw *nodeHW) HandleEvent(op, n int64) {
	switch op {
	case claimRx:
		hw.outRx += n
	case releaseRx:
		hw.outRx -= n
	case absorbAck:
		// The sending LANai absorbs the ACK and the send token, with its
		// staging, returns.
		hw.outTx -= n
		hw.lanai.Use(hw.net.Engine().Now(), ackProcess)
		hw.acks.Inc()
	}
}

// stallPipe is a DMA engine whose per-chunk occupancy inflates while the
// SRAM staging pool is oversubscribed by bi-directional bulk traffic.
type stallPipe struct {
	st *sim.Station
	hw *nodeHW
}

func (s *stallPipe) Send(now sim.Time, n int64) (start, end sim.Time) {
	rate := units.BytesPerSecond(dmaRateBps)
	if min64(s.hw.outTx, s.hw.outRx) > sramBytes {
		rate = units.BytesPerSecond(dmaStallRateBps)
	}
	return s.st.Use(now, dmaPerChunk+rate.TimeFor(n))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// New wires a Myrinet network.
func New(eng *sim.Engine, cfg Config) *Network {
	n := &Network{Net: nic.New(eng, cfg.Config, &spec)}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("myri%d", i)
		hw := &nodeHW{
			net:   n,
			node:  i,
			bus:   bus.New(name+"/bus", bus.PCIX64x133),
			lanai: sim.NewStation(name + "/lanai"),
			link: fabric.NewLink(name+"/link", fabric.LinkConfig{
				Rate:     units.BytesPerSecond(linkRateBps),
				PerChunk: 60 * units.Nanosecond,
				MinFrame: 64,
			}),
		}
		hw.sdma = &stallPipe{st: sim.NewStation(name + "/sdma"), hw: hw}
		hw.rdma = &stallPipe{st: sim.NewStation(name + "/rdma"), hw: hw}
		n.nodes = append(n.nodes, hw)
	}
	return n
}

// Name implements dev.Network.
func (n *Network) Name() string { return "Myri" }

// ShmemPolicy implements dev.Network: MPICH-GM uses shared memory for all
// intra-node message sizes, and its shared-memory path has the lowest
// small-message cost of the three implementations (~1.3 us).
func (n *Network) ShmemPolicy() (int64, shmem.Config) {
	c := shmem.DefaultConfig()
	c.Handshake = 900 * units.Nanosecond
	return math.MaxInt64, c
}

// InstrumentMetrics implements dev.Network: per-node bus, LANai,
// DMA-engine and link counters plus device-level spans, switch port
// counters, and a GM-specific reliability-ACK count. Endpoints created
// afterwards bind protocol counters and pin-cache probes.
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	for i, hw := range n.nodes {
		prefix := metrics.NodePrefix(i) + "nic"
		hw.bus.Instrument(m, i)
		m.ProbeCount(prefix+"/lanai_jobs", hw.lanai.Jobs)
		m.ProbeTime(prefix+"/lanai_busy_time", hw.lanai.BusyTime)
		m.ProbeTime(prefix+"/lanai_wait_time", hw.lanai.WaitTime)
		hw.lanai.RecordSpans(m, i, "firmware", "nic")
		for _, dma := range []struct {
			name string
			st   *sim.Station
		}{{"sdma", hw.sdma.st}, {"rdma", hw.rdma.st}} {
			m.ProbeCount(prefix+"/"+dma.name+"/jobs", dma.st.Jobs)
			m.ProbeTime(prefix+"/"+dma.name+"/busy_time", dma.st.BusyTime)
			m.ProbeTime(prefix+"/"+dma.name+"/wait_time", dma.st.WaitTime)
			dma.st.RecordSpans(m, i, dma.name, "nic")
		}
		hw.link.Instrument(m, i)
		hw.acks = m.Counter(prefix + "/acks")
	}
	n.InstrumentFabric(m)
}

// Utilizations implements dev.Network.
func (n *Network) Utilizations() []dev.Utilization {
	var out []dev.Utilization
	for _, hw := range n.nodes {
		out = append(out,
			dev.Utilization{Resource: hw.bus.Name(), Busy: hw.bus.BusyTime(), Jobs: hw.bus.Jobs()},
			dev.Utilization{Resource: hw.lanai.Name(), Busy: hw.lanai.BusyTime(), Jobs: hw.lanai.Jobs()},
			dev.Utilization{Resource: hw.sdma.st.Name(), Busy: hw.sdma.st.BusyTime(), Jobs: hw.sdma.st.Jobs()},
			dev.Utilization{Resource: hw.rdma.st.Name(), Busy: hw.rdma.st.BusyTime(), Jobs: hw.rdma.st.Jobs()},
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
	dev.InstrumentPinCache(n.Metrics(), node, ep.pin)
	return ep
}

type endpoint struct {
	nic.Endpoint
	net *Network
	pin *memreg.PinCache
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
	return units.MBps(copyBW).TimeFor(size)
}

func (ep *endpoint) AcquireBuf(b memreg.Buf) sim.Time {
	return ep.pin.Acquire(b)
}

func (ep *endpoint) MemoryUsage(npeers int) int64 { return memFlat }

// lanaiStage bills the shared firmware engine once per message; modelled as
// a Stage so it sits in the path like hardware.
type lanaiStage struct{ st *sim.Station }

func (l lanaiStage) Send(now sim.Time, n int64) (start, end sim.Time) {
	return l.st.Use(now, lanaiPerMsg)
}

// Path implements nic.Model: the staged path to dst around the fabric
// segment seg. The LANai engine appears once per side per message
// (envelope processing); payload chunks flow through the per-direction DMA
// engines and the link, with the segment's stages (none for the star
// crossbar, leaf links for a Clos) between them.
func (ep *endpoint) Path(dst, _ int, seg fabric.Segment) []fabric.PathStage {
	src := ep.net.nodes[ep.Node()]
	if dst == ep.Node() {
		return []fabric.PathStage{
			{Stage: src.bus},
			{Stage: lanaiStage{src.lanai}},
			{Stage: src.sdma},
			{Stage: src.rdma},
			{Stage: lanaiStage{src.lanai}},
			{Stage: src.bus},
		}
	}
	d := ep.net.nodes[dst]
	stages := []fabric.PathStage{
		{Stage: src.bus},
		{Stage: lanaiStage{src.lanai}},
		{Stage: src.sdma},
		{Stage: src.link.Up(), Latency: wireLatency},
	}
	stages = append(stages, seg.Stages...)
	return append(stages,
		fabric.PathStage{Stage: d.link.Down(), Latency: seg.Down + wireLatency},
		fabric.PathStage{Stage: lanaiStage{d.lanai}},
		fabric.PathStage{Stage: d.rdma},
		fabric.PathStage{Stage: d.bus},
	)
}

// Hold implements nic.Holder: a bulk payload claims SRAM staging on both
// NICs, the receiver's one wire flight after issue. The send token — and
// with it the staging — stays held across resends, exactly why faulty
// links amplify the Figure 5 staging pressure.
func (ep *endpoint) Hold(m nic.Msg) {
	if !m.Bulk {
		return
	}
	node := ep.Node()
	ep.net.nodes[node].outTx += m.Size
	ep.peerHop(node, m.Dst, wireLatency, claimRx, m.Size)
}

// Delivered implements nic.Holder, GM reliability: the receiving LANai
// frees the staging and generates an ACK; one ack flight later the sending
// LANai absorbs it and the send token, with its staging, returns.
func (ep *endpoint) Delivered(m nic.Msg) {
	node, dst := ep.Node(), m.Dst
	var staged int64 // the SRAM staging a bulk payload held
	if m.Bulk {
		staged = m.Size
	}
	dstHW := ep.net.nodes[dst]
	dstHW.outRx -= staged
	dstHW.lanai.Use(ep.net.Engine().Now(), ackProcess)
	dstHW.acks.Inc()
	if dst == node {
		dstHW.outTx -= staged
		return
	}
	ep.peerHop(dst, node, ackFlight, absorbAck, staged)
}

// Aborted implements nic.Holder: a timed-out send returns its token and
// staging; the receiver learns of it one wire flight later.
func (ep *endpoint) Aborted(m nic.Msg) {
	if !m.Bulk {
		return
	}
	node := ep.Node()
	ep.net.nodes[node].outTx -= m.Size
	ep.peerHop(node, m.Dst, wireLatency, releaseRx, m.Size)
}

// peerHop applies op, an effect on node to's NIC moving n bytes: at once
// when that is from's own NIC, else as a cross-domain hop one flight later.
func (ep *endpoint) peerHop(from, to int, flight sim.Time, op, n int64) {
	hw := ep.net.nodes[to]
	if from == to {
		hw.HandleEvent(op, n)
		return
	}
	ep.net.Engine().Call(flight, hw, op, n)
}

// Resend implements nic.Resender: a lapsed ACK timeout runs the LANai's
// firmware timeout handler before the resend.
func (ep *endpoint) Resend() {
	ep.net.nodes[ep.Node()].lanai.Use(ep.net.Engine().Now(), ackProcess)
}
