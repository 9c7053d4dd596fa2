// Package fabric models the network side of a cluster interconnect: full-
// duplex point-to-point links, crossbar switches, and the chunked cut-
// through pipeline that moves a message across a multi-stage hardware path.
//
// All three interconnects in the paper are physically a star: every host has
// one full-duplex link to a central crossbar switch (InfiniScale 8-port,
// Myrinet-2000 8-port, Elite-16; the Topspin testbed uses a 24-port switch).
// A message from host A to host B traverses: A's egress link direction, the
// switch crossing, B's ingress link direction — with per-stage contention
// from other traffic sharing those ports.
package fabric

import (
	"fmt"
	"sync"

	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Stage is one hardware stage of a transfer path: submitting n bytes at time
// now occupies the stage for some interval. sim.Pipe and bus.Bus implement
// it. A stage is FIFO: a later submission never ends before an earlier one,
// which is what lets a transfer recycle its record at completion.
type Stage interface {
	Send(now sim.Time, n int64) (start, end sim.Time)
}

// LinkConfig describes one full-duplex link technology.
type LinkConfig struct {
	Rate     units.BytesPerSecond // data rate per direction
	PerChunk sim.Time             // header/framing occupancy per chunk
	MinFrame int64                // minimum billed frame size
}

// Link is a full-duplex host-switch cable: two independent directions.
type Link struct {
	toSwitch   *sim.Pipe
	fromSwitch *sim.Pipe
}

// NewLink builds a link with independent per-direction pipes.
func NewLink(name string, cfg LinkConfig) *Link {
	return &Link{
		toSwitch:   sim.NewPipe(name+"/up", cfg.Rate, cfg.PerChunk, cfg.MinFrame),
		fromSwitch: sim.NewPipe(name+"/down", cfg.Rate, cfg.PerChunk, cfg.MinFrame),
	}
}

// Up returns the host→switch direction.
func (l *Link) Up() *sim.Pipe { return l.toSwitch }

// Down returns the switch→host direction.
func (l *Link) Down() *sim.Pipe { return l.fromSwitch }

// Instrument registers both directions' byte volume, occupancy and
// contention time under nodeN/link/{up,down}/... and arms per-chunk span
// recording so link traffic appears as lanes in the Chrome trace.
func (l *Link) Instrument(m *metrics.Registry, node int) {
	if m == nil {
		return
	}
	prefix := metrics.NodePrefix(node) + "link"
	l.toSwitch.Instrument(m, prefix+"/up")
	l.fromSwitch.Instrument(m, prefix+"/down")
	l.toSwitch.RecordSpans(m, node, "xfer", "fabric")
	l.fromSwitch.RecordSpans(m, node, "xfer", "fabric")
}

// SwitchConfig describes a crossbar switch.
type SwitchConfig struct {
	Ports    int
	Crossing sim.Time             // port-to-port latency (cut-through)
	Rate     units.BytesPerSecond // per-port forwarding rate
}

// Switch is a wormhole/cut-through crossbar: each output port is a FIFO
// resource at the port forwarding rate; the crossing latency is added to
// every chunk. Input contention is carried by the sender's link pipe, so
// only output ports are modelled as stations (a standard crossbar
// simplification: the crossbar itself is non-blocking).
type Switch struct {
	cfg SwitchConfig
	out []*sim.Pipe
}

// NewSwitch builds a switch with the given port count.
func NewSwitch(name string, cfg SwitchConfig) *Switch {
	s := &Switch{cfg: cfg, out: make([]*sim.Pipe, cfg.Ports)}
	for i := range s.out {
		s.out[i] = sim.NewPipe(fmt.Sprintf("%s/out%d", name, i), cfg.Rate, 0, 0)
	}
	return s
}

// OutPort returns the stage for the given output port; forwarding through it
// also pays the crossing latency (applied by the pipeline as stage latency).
func (s *Switch) OutPort(port int) *sim.Pipe { return s.out[port] }

// Crossing returns the cut-through port-to-port latency.
func (s *Switch) Crossing() sim.Time { return s.cfg.Crossing }

// Instrument registers every output port's byte volume, occupancy and
// contention time under fabric/<port-name>/.... Switch ports belong to the
// fabric, not a host, so their spans carry metrics.FabricNode.
func (s *Switch) Instrument(m *metrics.Registry) {
	if m == nil {
		return
	}
	for _, p := range s.out {
		p.Instrument(m, "fabric/"+p.Name())
		p.RecordSpans(m, metrics.FabricNode, "fwd", "fabric")
	}
}

// Ports returns the port count.
func (s *Switch) Ports() int { return s.cfg.Ports }

// PathStage pairs a Stage with a propagation latency paid by each chunk
// after it clears the stage (wire flight time, switch crossing).
type PathStage struct {
	Stage   Stage
	Latency sim.Time
}

// xfer is one in-flight Transfer: a typed event handler whose (ci, stage)
// arguments drive the chunk pipeline, so the steady state — every chunk
// through every stage — schedules events without allocating. stage ==
// len(path) is the completion sentinel. Records are recycled through xfers.
type xfer struct {
	e       *sim.Engine
	path    []PathStage
	done    func(end sim.Time)
	chunk   int64
	last    int64
	nchunks int64

	// Trace fields, populated by TransferTraced for sampled messages only;
	// rec == nil on the untraced (allocation-gated) path.
	rec      *msgtrace.Recorder
	tid      msgtrace.ID
	rank     int
	rail     int8
	attempt  uint8
	bytes    int64
	hopEnter []sim.Time // per-stage entry time of chunk 0
}

// Transfer records are recycled from their completion sentinel: chunks keep
// FIFO order at every stage (each stage is a FIFO station and every chunk
// pays the same latency after it), so once the last chunk clears the last
// stage no event of the transfer is left and the sentinel is the record's
// last reference. The pools are sync.Pools rather than per-engine free lists
// because a cutXfer completes on the destination's engine, which under
// sharded windows runs on another goroutine than the one that issued it.
var (
	xfers    = sync.Pool{New: func() any { return new(xfer) }}
	cutXfers = sync.Pool{New: func() any { return new(cutXfer) }}
)

// chunking splits size bytes into chunks of at most chunk bytes: the chunk
// count and the size of the last one. A size of zero or less — a control
// message — still occupies the path as one byte.
func chunking(size, chunk int64) (nchunks, last int64) {
	if chunk <= 0 {
		panic("fabric: non-positive chunk")
	}
	if size <= 0 {
		size = 1
	}
	nchunks = (size + chunk - 1) / chunk
	return nchunks, size - (nchunks-1)*chunk
}

// newXfer takes a record from the pool, set up for an untraced transfer.
func newXfer(e *sim.Engine, path []PathStage, size, chunk int64, done func(end sim.Time)) *xfer {
	nchunks, last := chunking(size, chunk)
	x := xfers.Get().(*xfer)
	x.e, x.path, x.done = e, path, done
	x.chunk, x.nchunks, x.last = chunk, nchunks, last
	return x
}

// HandleEvent implements sim.Handler: chunk ci reached stage, occupy it and
// self-clock the successors.
func (x *xfer) HandleEvent(ci, stage int64) {
	if stage == int64(len(x.path)) {
		done, now := x.done, x.e.Now()
		*x = xfer{hopEnter: x.hopEnter[:0]}
		xfers.Put(x)
		done(now)
		return
	}
	n := x.chunk
	if ci == x.nchunks-1 {
		n = x.last
	}
	st := x.path[stage]
	_, end := st.Stage.Send(x.e.Now(), n)
	arrive := end + st.Latency
	if x.rec != nil {
		// Per-hop span: chunk 0 entering the stage opens it, the last chunk
		// clearing it (plus propagation) closes it — the cut-through
		// pipeline's residence interval at this path stage.
		if ci == 0 {
			x.hopEnter[stage] = x.e.Now()
		}
		if ci == x.nchunks-1 {
			x.rec.Span(x.tid, msgtrace.StageHop, x.rank, x.rail, x.attempt,
				int16(stage), x.hopEnter[stage], arrive, x.bytes)
		}
	}
	if stage == 0 && ci+1 < x.nchunks {
		// Self-clock the next chunk into the head of the path.
		x.e.CallAt(end, x, ci+1, 0)
	}
	if stage+1 < int64(len(x.path)) {
		x.e.CallAt(arrive, x, ci, stage+1)
	} else if ci == x.nchunks-1 {
		x.e.CallAt(arrive, x, ci, stage+1) // sentinel: completion
	}
}

// Transfer pushes size bytes through the staged path as a cut-through
// pipeline of chunks, starting at time start, and calls done(end) when the
// last chunk clears the last stage. chunk is the pipelining granularity;
// sizes at or below it move as a single unit.
//
// Each chunk is self-clocked: chunk i+1 is submitted to stage 0 when chunk i
// clears stage 0, and a chunk is submitted to stage k+1 when it clears stage
// k. Contending transfers interleave naturally through the shared stage
// FIFOs.
func Transfer(e *sim.Engine, path []PathStage, size, chunk int64, start sim.Time, done func(end sim.Time)) {
	// An empty path completes at once: stage 0 is the sentinel.
	e.CallAt(start, newXfer(e, path, size, chunk, done), 0, 0)
}

// TransferTraced is Transfer plus per-hop span recording for a sampled
// message: each path stage's residence interval is recorded as a StageHop
// span carrying the hop index, rail and attempt. Unsampled messages fall
// through to the plain (allocation-gated) Transfer, so callers may use this
// unconditionally with a live recorder.
func TransferTraced(e *sim.Engine, path []PathStage, size, chunk int64, start sim.Time,
	rec *msgtrace.Recorder, tid msgtrace.ID, rank int, rail int8, attempt uint8, done func(end sim.Time)) {
	if !rec.Sampled(tid) || len(path) == 0 {
		Transfer(e, path, size, chunk, start, done)
		return
	}
	x := newXfer(e, path, size, chunk, done)
	x.rec, x.tid, x.rank, x.rail, x.attempt = rec, tid, rank, rail, attempt
	x.bytes = max(size, 1) // a control message bills one byte
	// Chunk 0 writes each stage's entry before the last chunk reads it, so
	// a recycled slice needs no clearing.
	if cap(x.hopEnter) < len(path) {
		x.hopEnter = make([]sim.Time, len(path))
	}
	x.hopEnter = x.hopEnter[:len(path)]
	e.CallAt(start, x, 0, 0)
}

// DefaultChunk is the pipelining granularity used by the NIC models for
// bulk transfers: small enough that multi-stage cut-through pipelining and
// contention interleaving are visible (one chunk of ramp-up per extra
// stage), large enough that simulating multi-megabyte messages stays cheap.
const DefaultChunk int64 = 2 * 1024

// minChunk is the finest pipelining granularity, used for small messages so
// that a 1-4 KB payload is not store-and-forwarded whole across every stage
// of the path (real fabrics cut through at flit/cell granularity).
const minChunk int64 = 512

// ChunkFor picks the pipelining granularity for a message: about a quarter
// of the payload, clamped to [minChunk, DefaultChunk]. For multi-megabyte
// bulk transfers the chunk grows so a message stays a few hundred events no
// matter its size; per-chunk overheads are small enough that delivered
// bandwidth is insensitive to this (the bus model's burst overhead is
// per-burst, not per-chunk, so it scales exactly).
func ChunkFor(size int64) int64 {
	if size >= 1<<20 {
		return size / 256
	}
	c := size / 4
	if c < minChunk {
		return minChunk
	}
	if c > DefaultChunk {
		return DefaultChunk
	}
	return c
}

// cutXfer is an in-flight TransferCut: the cut-through chunk pipeline of
// xfer, with the path split across two engines of one sharded group. Stages
// [0, cut) — the source node's bus/NIC/link plus any source-leaf fabric
// stage — execute on the source's engine; stages [cut, len) and the
// completion sentinel execute on the destination's. The hand-off between
// stage cut-1 and stage cut rides the wire-latency hop, which is at least
// the group's cross-shard lookahead by construction (the lookahead IS the
// minimum wire latency), so the cross-engine schedule never violates the
// conservative window.
type cutXfer struct {
	src, dst *sim.Engine
	path     []PathStage
	cut      int
	done     func(end sim.Time)
	chunk    int64
	last     int64
	nchunks  int64
}

// engineFor returns the engine that owns a stage index (the sentinel
// len(path) belongs to the destination).
func (x *cutXfer) engineFor(stage int64) *sim.Engine {
	if stage < int64(x.cut) {
		return x.src
	}
	return x.dst
}

// HandleEvent implements sim.Handler on whichever engine owns the stage.
func (x *cutXfer) HandleEvent(ci, stage int64) {
	e := x.engineFor(stage)
	if stage == int64(len(x.path)) {
		done, now := x.done, e.Now()
		*x = cutXfer{}
		cutXfers.Put(x)
		done(now)
		return
	}
	n := x.chunk
	if ci == x.nchunks-1 {
		n = x.last
	}
	st := x.path[stage]
	_, end := st.Stage.Send(e.Now(), n)
	arrive := end + st.Latency
	if stage == 0 && ci+1 < x.nchunks {
		e.CallAt(end, x, ci+1, 0)
	}
	next := stage + 1
	if next < int64(len(x.path)) || ci == x.nchunks-1 {
		if ne := x.engineFor(next); ne == e {
			e.CallAt(arrive, x, ci, next)
		} else {
			e.SendTo(ne.ShardID(), arrive-e.Now(), x, ci, next)
		}
	}
}

// TransferCut is Transfer with the path split across the source and
// destination node domains of a sharded engine group: cut names the first
// destination-side stage. With both ends on the same engine (same shard, or
// a serial scale-mode run) it degrades to the plain single-engine pipeline,
// scheduling the exact same (time, stage) sequence — the transport differs,
// never the timing.
func TransferCut(srcE, dstE *sim.Engine, path []PathStage, cut int, size, chunk int64, start sim.Time, done func(end sim.Time)) {
	if srcE == dstE {
		Transfer(srcE, path, size, chunk, start, done)
		return
	}
	nchunks, last := chunking(size, chunk)
	if cut < 1 || cut > len(path) {
		// Stage 0 must be source-side: the transfer is issued on the source
		// engine, and every physical path starts at the source's own bus.
		panic(fmt.Sprintf("fabric: cut %d outside path of %d stages", cut, len(path)))
	}
	if len(path) == 0 {
		panic("fabric: TransferCut needs a staged path to cross domains")
	}
	x := cutXfers.Get().(*cutXfer)
	x.src, x.dst, x.path, x.cut, x.done = srcE, dstE, path, cut, done
	x.chunk, x.nchunks, x.last = chunk, nchunks, last
	srcE.CallAt(start, x, 0, 0)
}
