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

// Instrument registers both directions as metrics sources under
// nodeN/link/{up,down}/ and arms per-chunk span recording so link traffic
// appears as lanes in the Chrome trace.
func (l *Link) Instrument(m *metrics.Registry, node int) {
	if m == nil {
		return
	}
	prefix := metrics.NodePrefix(node) + "link/"
	m.AddSource(prefix+"up/", l.toSwitch)
	m.AddSource(prefix+"down/", l.fromSwitch)
	l.toSwitch.RecordSpans(m, node, "xfer", "fabric")
	l.fromSwitch.RecordSpans(m, node, "xfer", "fabric")
}

// Topology abstracts the switching fabric between a source host's up-link
// and a destination host's down-link: a single crossbar (the paper's
// testbeds) or a multi-stage Clos (the scaling extension).
type Topology interface {
	// Between resolves into seg the fabric segment of a message from src
	// node to dst node sent at now, the fate of its route included. The
	// caller owns seg: a send path keeps it in its heap record, so the
	// segment is never copied through the sending rank's stack.
	Between(src, dst int, now sim.Time, seg *Segment)
	// Diameter reports the element count of the longest route.
	Diameter() int
	// DeadElement names an element down at now under the fabric's
	// element-fault plan; ok is false when nothing is dead.
	DeadElement(now sim.Time) (name string, code int64, ok bool)
	// Instrument registers the fabric's stateful stages with the registry.
	Instrument(m *metrics.Registry)
}

// Segment is the fabric's share of one route: the intermediate stages a
// message crosses between the source's up-link and the destination's
// down-link (possibly none), the latency to add to that down-link (switch
// crossings and wire time), the up-link plane the route rides (-1 when it
// never climbs), and the route's fate under element faults (the zero
// RouteInfo, RouteOK, on a healthy fabric). Within a plane the stages
// between two leaves never change, so the fabric memoizes them and a
// Route shares them as its Mid.
type Segment struct {
	Stages []PathStage
	Down   sim.Time
	Plane  int
	Fate   RouteInfo
}

// CrossbarTopology is the single-switch star: a cut-through crossbar with
// no intermediate stages, one port-to-port crossing per route. Input
// contention is carried by the sender's up-link and output contention by
// the destination's down-link (a standard crossbar simplification: the
// crossbar itself is non-blocking), so the switch holds no stage of its
// own.
type CrossbarTopology struct {
	crossing sim.Time
}

// NewCrossbarTopology builds a crossbar of the given port-to-port latency.
func NewCrossbarTopology(crossing sim.Time) *CrossbarTopology {
	return &CrossbarTopology{crossing: crossing}
}

// Between implements Topology.
func (c *CrossbarTopology) Between(src, dst int, now sim.Time, seg *Segment) {
	*seg = Segment{Down: c.crossing, Plane: -1}
}

// Instrument is a no-op: the crossbar has no stage of its own to register.
func (c *CrossbarTopology) Instrument(m *metrics.Registry) {}

// Diameter reports the single crossing of the star topology.
func (c *CrossbarTopology) Diameter() int { return 1 }

// DeadElement reports nothing: a crossbar suffers no element faults.
func (c *CrossbarTopology) DeadElement(sim.Time) (string, int64, bool) { return "", 0, false }

// PathStage pairs a Stage with a propagation latency paid by each chunk
// after it clears the stage (wire flight time, switch crossing).
type PathStage struct {
	Stage   Stage
	Latency sim.Time
}

// Route is a staged path in three parts crossed in order as one path: the
// source side (Head), the fabric segment's stages (Mid) and the destination
// side (Tail). Each part is shared rather than copied into a path per node
// pair: a source's side is the same to every peer, a destination's the
// same from every source, and the segment is the fabric's own memo.
type Route struct {
	Head, Mid, Tail []PathStage
}

// len reports the route's stage count.
func (r *Route) len() int { return len(r.Head) + len(r.Mid) + len(r.Tail) }

// at returns stage i of the route.
func (r *Route) at(i int) PathStage {
	if i < len(r.Head) {
		return r.Head[i]
	}
	i -= len(r.Head)
	if i < len(r.Mid) {
		return r.Mid[i]
	}
	return r.Tail[i-len(r.Mid)]
}

// Transfer is the record of one transfer at a time: a typed event handler
// whose (ci, stage) arguments drive the chunk pipeline, so the steady
// state — every chunk through every stage — schedules events without
// allocating. stage == route.len() is the completion sentinel.
//
// The record belongs to whoever issues the transfer (a NIC send record
// embeds one for its message's attempts) and is reused from its completion
// sentinel: chunks keep FIFO order at every stage (each stage is a FIFO
// station and every chunk pays the same latency after it), so once the
// last chunk clears the last stage no event of the transfer is left, and
// done may start the next transfer on the same record.
type Transfer struct {
	e       *sim.Engine
	route   Route
	done    func(end sim.Time)
	chunk   int64
	last    int64
	nchunks int64

	// Trace fields, set by Trace for sampled messages only; rec == nil on
	// the untraced (allocation-gated) path.
	rec      *msgtrace.Recorder
	tid      msgtrace.ID
	rank     int
	rail     int8
	attempt  uint8
	bytes    int64
	hopEnter []sim.Time // per-stage entry time of chunk 0
}

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

// HandleEvent implements sim.Handler: chunk ci reached stage, occupy it and
// self-clock the successors.
func (x *Transfer) HandleEvent(ci, stage int64) {
	stages := int64(x.route.len())
	if stage == stages {
		done, now := x.done, x.e.Now()
		*x = Transfer{hopEnter: x.hopEnter[:0]}
		done(now)
		return
	}
	n := x.chunk
	if ci == x.nchunks-1 {
		n = x.last
	}
	st := x.route.at(int(stage))
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
	if stage+1 < stages {
		x.e.CallAt(arrive, x, ci, stage+1)
	} else if ci == x.nchunks-1 {
		x.e.CallAt(arrive, x, ci, stage+1) // sentinel: completion
	}
}

// Start pushes size bytes through the staged route as a cut-through
// pipeline of chunks, starting at time start, and calls done(end) when the
// last chunk clears the last stage. chunk is the pipelining granularity;
// sizes at or below it move as a single unit. The route is copied, so the
// caller may reuse it at once. The record must be idle: new, or past its
// previous transfer's done.
//
// Each chunk is self-clocked: chunk i+1 is submitted to stage 0 when chunk i
// clears stage 0, and a chunk is submitted to stage k+1 when it clears stage
// k. Contending transfers interleave naturally through the shared stage
// FIFOs.
func (x *Transfer) Start(e *sim.Engine, r *Route, size, chunk int64, start sim.Time, done func(end sim.Time)) {
	x.nchunks, x.last = chunking(size, chunk)
	x.e, x.route, x.done, x.chunk = e, *r, done, chunk
	if x.rec != nil {
		x.bytes = max(size, 1) // a control message bills one byte
		// Chunk 0 writes each stage's entry before the last chunk reads it,
		// so a reused slice needs no clearing.
		n := r.len()
		if cap(x.hopEnter) < n {
			x.hopEnter = make([]sim.Time, n)
		}
		x.hopEnter = x.hopEnter[:n]
	}
	// An empty route completes at once: stage 0 is the sentinel.
	e.CallAt(start, x, 0, 0)
}

// Trace makes the record's next transfer a sampled message's: Start then
// records each path stage's residence interval as a StageHop span carrying
// the hop index, rail and attempt. The record forgets it at completion.
func (x *Transfer) Trace(rec *msgtrace.Recorder, tid msgtrace.ID, rank int, rail int8, attempt uint8) {
	x.rec, x.tid, x.rank, x.rail, x.attempt = rec, tid, rank, rail, attempt
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
