package sim

import (
	"fmt"

	"mpinet/internal/metrics"
	"mpinet/internal/units"
)

// Station models a FIFO-served, non-preemptive, exclusive resource: a bus, a
// DMA engine, one direction of a link, a switch crossbar port, a NIC
// processor. Jobs submitted at time t begin service no earlier than t and no
// earlier than the completion of every previously submitted job.
//
// Because service is FIFO and non-preemptive, completion times can be
// computed analytically at submission: no events are needed for queueing
// itself, only for acting on completions. This is what keeps large transfers
// cheap to simulate.
type Station struct {
	name string
	free Time // earliest instant the resource is idle

	// accounting
	busy     Time // total busy time
	jobs     int64
	wait     Time // cumulative queueing delay (submission to service start)
	lastSeen Time

	// span recording, nil unless RecordSpans armed it
	spans    *metrics.SpanTrack
	spanSize int64 // payload hint for the next Use, set by Pipe.Send
}

// NewStation returns an idle station. The name appears in diagnostics.
func NewStation(name string) *Station { return &Station{name: name} }

// Use submits a job of duration dur at time now and returns the interval
// [start, end) during which the job holds the resource.
func (s *Station) Use(now Time, dur Time) (start, end Time) {
	if dur < 0 {
		panic(fmt.Sprintf("sim: station %s: negative duration %v", s.name, dur))
	}
	if now < s.lastSeen {
		// Submissions must be in nondecreasing time order; the event loop
		// guarantees this as long as callers use their current Now().
		panic(fmt.Sprintf("sim: station %s: time went backwards (%v < %v)", s.name, now, s.lastSeen))
	}
	s.lastSeen = now
	start = now
	if s.free > start {
		start = s.free
	}
	end = start + dur
	s.free = end
	s.busy += dur
	s.wait += start - now
	s.jobs++
	if s.spans != nil {
		s.spans.Emit(start, end, s.spanSize)
		s.spanSize = 0
	}
	return start, end
}

// RecordSpans arms the station to log every job it serves as a device-level
// span in m, attributed to node with the given operation name and layer
// category. A nil m disarms. The lane is resolved once here, so the per-job
// cost in Use is a template copy. Recording never perturbs timing.
func (s *Station) RecordSpans(m *metrics.Registry, node int, op, cat string) {
	s.spans = m.Track(node, s.name, op, cat)
}

// NoteSize attaches a payload-size hint to the next Use, consumed by span
// recording. Pipe.Send calls it automatically; byte-oriented wrappers that
// compute their own durations (the bus) call it before Use.
func (s *Station) NoteSize(n int64) {
	if s.spans != nil && n > 0 {
		s.spanSize = n
	}
}

// FreeAt reports the earliest instant the station would be idle.
func (s *Station) FreeAt() Time { return s.free }

// BusyTime reports cumulative busy time (for utilization accounting).
func (s *Station) BusyTime() Time { return s.busy }

// Jobs reports how many jobs the station has served.
func (s *Station) Jobs() int64 { return s.jobs }

// WaitTime reports cumulative queueing delay: how long jobs sat between
// submission and service start — the station's contention measure.
func (s *Station) WaitTime() Time { return s.wait }

// Name returns the diagnostic name.
func (s *Station) Name() string { return s.name }

// Pipe is a Station with a rate: jobs are byte counts, service time is
// size/bandwidth plus a fixed per-job overhead. It models one direction of a
// serial resource (link, bus slot) at message- or chunk-granularity.
type Pipe struct {
	Station
	rate     units.BytesPerSecond
	perJob   Time // fixed occupancy per job (arbitration, header)
	minBytes int64
	bytes    int64 // cumulative billed bytes
}

// NewPipe returns a pipe of the given rate. perJob is a fixed occupancy
// added to every job; minBytes, if positive, is the minimum billed size
// (modelling minimum frame/transaction sizes).
func NewPipe(name string, rate units.BytesPerSecond, perJob Time, minBytes int64) *Pipe {
	if rate <= 0 {
		panic("sim: pipe needs positive rate")
	}
	p := &Pipe{rate: rate, perJob: perJob, minBytes: minBytes}
	p.Station.name = name
	return p
}

// Send submits a job of n bytes at time now; returns its occupancy interval.
func (p *Pipe) Send(now Time, n int64) (start, end Time) {
	if n < p.minBytes {
		n = p.minBytes
	}
	p.bytes += n
	p.spanSize = n
	return p.Use(now, p.perJob+p.rate.TimeFor(n))
}

// Bytes reports cumulative billed bytes (after minBytes rounding).
func (p *Pipe) Bytes() int64 { return p.bytes }

// Instrument registers the pipe's job count, byte volume, busy and wait
// times in m under prefix (e.g. "node0/link/up"), read by snapshot-time
// probes at zero per-job cost.
func (p *Pipe) Instrument(m *metrics.Registry, prefix string) {
	if m == nil {
		return
	}
	m.ProbeCount(prefix+"/jobs", p.Jobs)
	m.ProbeCount(prefix+"/bytes", p.Bytes)
	m.ProbeTime(prefix+"/busy_time", p.BusyTime)
	m.ProbeTime(prefix+"/wait_time", p.WaitTime)
}
