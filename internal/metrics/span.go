package metrics

import "mpinet/internal/units"

// FabricNode is the pseudo-node owning shared fabric resources (switch
// ports, inter-switch links) in spans and the Chrome trace: they belong to
// no host, so they render as a "fabric" process of their own.
const FabricNode = -1

// Span is one device-level interval of simulated time: a DMA crossing the
// I/O bus, a NIC pipeline stage, a link transfer, an MPI request's
// lifetime. Spans carry enough structure for the Chrome trace_event
// exporter to place them: Node becomes the trace "process", Track the
// "thread" within it ("bus", "nic", "rank3", ...).
type Span struct {
	Node  int        // owning node, or -1 for cluster-global
	Track string     // lane within the node: "bus", "nic", "link0", "rank2"
	Name  string     // operation: "dma", "eager", "rndv", "send 64KB"
	Cat   string     // layer category: "bus", "nic", "fabric", "mpi", "shmem"
	Start units.Time // interval start, simulated picoseconds
	End   units.Time // interval end
	Size  int64      // payload bytes, 0 when not applicable
}

// spanRec is one logged interval: a lane index into Registry.lanes plus
// the times and size. It holds no pointers, so the span log is never
// scanned by the garbage collector.
type spanRec struct {
	lane       int32
	start, end units.Time
	size       int64
}

// Spans rebuilds the recorded span log in recording order (nil on a nil
// registry or an empty log). The slice is a fresh copy on every call.
func (r *Registry) Spans() []Span {
	if r == nil || r.spans.Len() == 0 {
		return nil
	}
	out := make([]Span, r.spans.Len())
	for i := range out {
		rec := r.spans.At(i)
		out[i] = r.lanes[rec.lane]
		out[i].Start, out[i].End, out[i].Size = rec.start, rec.end, rec.size
	}
	return out
}

// SpanTrack is a pre-resolved emitter for one fixed (node, track, name,
// cat) lane, captured at wiring time so recording a job on a hot path
// writes one 32-byte record — no per-event field assembly. Same design
// rule as counter/timer handles: resolve once, emit many.
type SpanTrack struct {
	r    *Registry
	lane int32
}

// Track returns a pre-resolved emitter for the given lane, or nil on a nil
// registry; Emit is nil-safe, so wiring code needs no guards. Every call
// adds a lane, even for a (node, track, name, cat) seen before.
func (r *Registry) Track(node int, track, name, cat string) *SpanTrack {
	if r == nil {
		return nil
	}
	r.lanes = append(r.lanes, Span{Node: node, Track: track, Name: name, Cat: cat})
	return &SpanTrack{r: r, lane: int32(len(r.lanes) - 1)}
}

// Emit logs one interval on the track, dropping (and counting) it past the
// span cap. No-op on a nil SpanTrack; never schedules or charges sim time.
func (t *SpanTrack) Emit(start, end units.Time, size int64) {
	if t == nil {
		return
	}
	t.r.spans.Append(spanRec{lane: t.lane, start: start, end: end, size: size})
}
