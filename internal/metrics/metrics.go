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
//   - Zero allocation on the hot path. Handles are resolved by name once at
//     wiring time; increments are plain field updates. Name formatting
//     happens only during instrumentation and snapshotting. A span is one
//     pointer-free record appended to a chunked reclog.Log (see SpanTrack).
//   - Bounded. The span log keeps the first reclog.SpanMax spans and
//     counts the rest in metrics/spans_dropped.
//   - Deterministic. Recording never iterates a map; Snapshot sorts by name,
//     so two identical runs render byte-identical snapshots.
//
// For quantities a component already tracks (station busy time, pin-cache
// hits), the registry supports probes: closures registered at wiring time
// and evaluated only at Snapshot, costing literally nothing per event.
package metrics

import (
	"sort"
	"strconv"

	"mpinet/internal/reclog"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// Kind classifies a metric for rendering and merging.
type Kind int

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

// probe is a deferred metric: evaluated only at Snapshot time.
type probe struct {
	kind Kind
	f    func() int64
}

// Registry is one simulation run's metric namespace. Create with New; the
// zero value is not usable, but a nil *Registry is a valid "off" registry.
// Not safe for concurrent use — like the simulation engine itself, it
// relies on the cooperative scheduler for mutual exclusion.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*SizeHist
	probes   map[string]probe

	lanes []Span              // one template per Track call
	spans reclog.Log[spanRec] // the span log, capped at reclog.SpanMax
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
		hists:    make(map[string]*SizeHist),
		probes:   make(map[string]probe),
		spans:    reclog.New[spanRec](reclog.SpanMax),
	}
}

// Counter returns (creating if needed) the counter with the given name.
// Handing the same name out twice returns the same counter, so endpoints
// sharing a node naturally aggregate. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge, or nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns (creating if needed) the named timer, or nil on a nil
// registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// SizeHist returns (creating if needed) the named histogram, or nil on a
// nil registry.
func (r *Registry) SizeHist(name string) *SizeHist {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &SizeHist{}
		r.hists[name] = h
	}
	return h
}

// addProbe registers f under name. Re-registering a count or time probe
// composes by summation (several pin caches on one node report one total);
// gauge probes compose by maximum.
func (r *Registry) addProbe(name string, kind Kind, f func() int64) {
	if r == nil {
		return
	}
	if old, ok := r.probes[name]; ok && old.kind == kind {
		prev, next := old.f, f
		switch kind {
		case KindGauge:
			f = func() int64 {
				a, b := prev(), next()
				if a > b {
					return a
				}
				return b
			}
		default:
			f = func() int64 { return prev() + next() }
		}
	}
	r.probes[name] = probe{kind: kind, f: f}
}

// ProbeCount registers a count read at snapshot time. Same-name
// registrations sum.
func (r *Registry) ProbeCount(name string, f func() int64) {
	r.addProbe(name, KindCount, f)
}

// ProbeTime registers a simulated-time quantity read at snapshot time.
// Same-name registrations sum.
func (r *Registry) ProbeTime(name string, f func() units.Time) {
	r.addProbe(name, KindTime, func() int64 { return int64(f()) })
}

// ProbeGauge registers a level/high-water quantity read at snapshot time.
// Same-name registrations take the maximum.
func (r *Registry) ProbeGauge(name string, f func() int64) {
	r.addProbe(name, KindGauge, f)
}

// sortedKeys returns the sorted key set of any of the registry maps.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// NodePrefix returns the canonical per-node name prefix ("node3/") that
// Snapshot.Merged strips when forming cluster-wide aggregates.
func NodePrefix(node int) string { return "node" + strconv.Itoa(node) + "/" }

// RankPrefix returns the canonical per-rank name prefix ("rank2/"),
// likewise stripped by Snapshot.Merged.
func RankPrefix(rank int) string { return "rank" + strconv.Itoa(rank) + "/" }
