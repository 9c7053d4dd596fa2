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

// spanLane is what every span of one SpanTrack shares.
type spanLane struct {
	Node             int
	Track, Name, Cat string
}

// SpanTrack is a pre-resolved emitter for one fixed (node, track, name,
// cat) lane, captured at wiring time so recording a job on a hot path
// appends one packed record — no per-event field assembly. Same design
// rule as counter/timer handles: resolve once, emit many.
type SpanTrack struct {
	r    *Registry
	lane uint32
}

// Track returns a pre-resolved emitter for the given lane, or nil on a nil
// registry; Emit is nil-safe, so wiring code needs no guards. Every call
// adds a lane, even for a (node, track, name, cat) seen before.
func (r *Registry) Track(node int, track, name, cat string) *SpanTrack {
	if r == nil {
		return nil
	}
	r.lanes = append(r.lanes, spanLane{node, track, name, cat})
	return &SpanTrack{r: r, lane: uint32(len(r.lanes) - 1)}
}

// Emit logs one interval on the track, dropping (and counting) it past the
// span cap. No-op on a nil SpanTrack; never schedules or charges sim time.
func (t *SpanTrack) Emit(start, end units.Time, size int64) {
	if t == nil {
		return
	}
	t.r.spans.Append(t.lane, int64(start), int64(end), size)
}
