// Package metrics is the cross-layer observability registry of the
// simulated cluster: counters, gauges with high-water marks, sim-time
// accumulators, size-class histograms (reusing trace.SizeClass, the paper's
// Table 1 buckets) and device-level spans, collected into one Registry that
// every model layer — engine, bus, NIC, fabric, shared memory, MPI — writes
// into when instrumentation is enabled.
//
// The paper diagnoses protocol behaviour from exactly these internal
// counters: pin-down cache hits on Myrinet/GM (Figures 7-8), eager-vs-
// rendezvous crossovers (Figure 2), bus and DMA occupancy (Figure 5), host
// involvement (Figure 3). The registry makes those quantities first-class
// outputs of a run instead of quantities inferred from end-to-end times.
//
// Design rules:
//
//   - Nil-safe and off by default. A nil *Registry hands out nil instrument
//     handles, and every method on a nil handle is a no-op, so model code
//     instruments unconditionally and pays one nil check when disabled.
//     Instrumentation never schedules events or charges simulated time, so
//     enabling it cannot perturb results.
//   - Zero allocation on the hot path. Handles are handed out once at
//     wiring time; increments are plain field updates. Name formatting
//     happens only during instrumentation and snapshotting. A span is one
//     record of about 8 bytes, coded against its track's last span and
//     appended to a reclog.Packed log of pointer-free byte chunks (see
//     SpanTrack).
//   - Bounded. The span log keeps the first reclog.SpanMax spans, whatever
//     their encoded size, and counts the rest in metrics/spans_dropped.
//     Nothing is rounded: Spans returns every kept field exactly.
//   - Deterministic. Recording never iterates a map; Snapshot sorts by name,
//     so two identical runs render byte-identical snapshots.
//   - Append-only registration. Each Counter, Gauge, Timer or SizeHist call
//     hands out a fresh handle, and the registry keeps no name index:
//     Snapshot folds the entries sharing a name once, in one sort. Counts,
//     times and histogram classes sum; gauges take the maximum.
//
// For quantities a component already tracks (station busy time, pin-cache
// hits), the registry supports sources, read only at Snapshot and costing
// nothing per event: a component registered once under a name prefix
// reports all of its metrics.
package metrics

import (
	"strconv"

	"mpinet/internal/reclog"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// Kind classifies a metric for rendering and merging.
type Kind uint8

// Metric kinds. Counts and times merge by summation across nodes; gauges
// (high-water marks) merge by maximum.
const (
	KindCount Kind = iota
	KindTime
	KindGauge
)

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil Counter ignores updates.
type Counter struct{ n int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.n += n
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n
}

// Gauge tracks an instantaneous level and its high-water mark. A nil Gauge
// ignores updates.
type Gauge struct{ cur, hw int64 }

// Set records the current level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.cur = v
	if v > g.hw {
		g.hw = v
	}
}

// HighWater returns the maximum level ever set (0 on nil).
func (g *Gauge) HighWater() int64 {
	if g == nil {
		return 0
	}
	return g.hw
}

// Timer accumulates simulated time. A nil Timer ignores updates.
type Timer struct {
	total units.Time
}

// Add accumulates a duration.
func (t *Timer) Add(d units.Time) {
	if t == nil {
		return
	}
	t.total += d
}

// Total returns the accumulated time (0 on nil).
func (t *Timer) Total() units.Time {
	if t == nil {
		return 0
	}
	return t.total
}

// SizeHist is a histogram over the paper's Table 1 message-size classes
// (trace.SizeClass): per class it accumulates an observation count, a byte
// volume and a total simulated time. A nil SizeHist ignores updates.
type SizeHist struct {
	Count [trace.NumSizeClasses]int64
	Bytes [trace.NumSizeClasses]int64
	Time  [trace.NumSizeClasses]units.Time
}

// Observe records one event of the given byte size taking d of simulated
// time (d may be zero for pure-count histograms).
func (h *SizeHist) Observe(size int64, d units.Time) {
	if h == nil {
		return
	}
	c := trace.ClassOf(size)
	h.Count[c]++
	h.Bytes[c] += size
	h.Time[c] += d
}

// Source is a stateful component that reports its own metrics at Snapshot
// time: a station, a bus, a pin-down cache, a shared-memory channel.
// Registered once under a name prefix (Registry.AddSource), it stands for
// every metric it reports, so wiring it builds no per-metric name or
// closure. Report must only read the component.
type Source interface {
	Report(e *Emitter)
}

// Emitter receives a Source's metrics during Snapshot. Each metric's name
// is the source's registration prefix followed by the suffix it is
// reported under.
type Emitter struct {
	prefix string
	items  []Item
	n      int  // metrics reported, when only sizing
	sizing bool // count the metrics instead of collecting them
}

// Count reports a count.
func (e *Emitter) Count(suffix string, v int64) { e.add(suffix, KindCount, v) }

// Time reports an accumulated simulated time.
func (e *Emitter) Time(suffix string, v units.Time) { e.add(suffix, KindTime, int64(v)) }

// Gauge reports a high-water level.
func (e *Emitter) Gauge(suffix string, v int64) { e.add(suffix, KindGauge, v) }

func (e *Emitter) add(suffix string, kind Kind, v int64) {
	if e.sizing {
		e.n++
		return
	}
	e.items = append(e.items, Item{Name: e.prefix + suffix, Kind: kind, fam: famSource, Value: v})
}

// source is a Source and the prefix it is registered under.
type source struct {
	prefix string
	src    Source
}

// named is one registered handle and the name it reports under.
type named[H any] struct {
	name string
	h    H
}

// Registry is one simulation run's metric namespace. Create with New; the
// zero value is not usable, but a nil *Registry is a valid "off" registry.
// Not safe for concurrent use — like the simulation engine itself, it
// relies on the cooperative scheduler for mutual exclusion.
//
// Registration only appends: every call hands out a fresh handle or adds
// a source, and Snapshot folds same-name entries of one family once.
type Registry struct {
	counters []named[*Counter]
	gauges   []named[*Gauge]
	timers   []named[*Timer]
	hists    []named[*SizeHist]
	sources  []source // in registration order

	lanes []spanLane    // one per Track call
	spans reclog.Packed // the span log, capped at reclog.SpanMax
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{spans: newSpanLog(reclog.SpanMax)}
}

// newSpanLog returns an empty span log keeping the first max spans: one
// attribute, the size, per record.
func newSpanLog(max int) reclog.Packed { return reclog.NewPacked(max, 1) }

// Counter returns a new counter reported under name, or nil on a nil
// registry. Every call hands out a fresh counter; Snapshot sums the
// counters sharing a name, so endpoints sharing a node aggregate.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.counters = append(r.counters, named[*Counter]{name, c})
	return c
}

// Gauge returns a new gauge reported under name, or nil on a nil registry.
// Snapshot takes the maximum high-water mark of the gauges sharing a name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.gauges = append(r.gauges, named[*Gauge]{name, g})
	return g
}

// Timer returns a new timer reported under name, or nil on a nil
// registry. Snapshot sums the timers sharing a name.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	t := &Timer{}
	r.timers = append(r.timers, named[*Timer]{name, t})
	return t
}

// SizeHist returns a new histogram reported under name, or nil on a nil
// registry. Snapshot sums the histograms sharing a name class by class.
func (r *Registry) SizeHist(name string) *SizeHist {
	if r == nil {
		return nil
	}
	h := &SizeHist{}
	r.hists = append(r.hists, named[*SizeHist]{name, h})
	return h
}

// AddSource registers s to report its metrics under prefix at every
// Snapshot. Same-name metrics of all sources fold in registration order:
// a count or time sums with the same-kind metrics before it (several pin
// caches on one node report one total), a gauge takes their maximum, and
// a metric of another kind replaces them. No-op on a nil registry.
func (r *Registry) AddSource(prefix string, s Source) {
	if r == nil {
		return
	}
	r.sources = append(r.sources, source{prefix, s})
}

// NodePrefix returns the canonical per-node name prefix ("node3/") that
// Snapshot.Merged strips when forming cluster-wide aggregates.
func NodePrefix(node int) string { return "node" + strconv.Itoa(node) + "/" }

// RankPrefix returns the canonical per-rank name prefix ("rank2/"),
// likewise stripped by Snapshot.Merged.
func RankPrefix(rank int) string { return "rank" + strconv.Itoa(rank) + "/" }
