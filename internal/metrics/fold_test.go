package metrics

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// refRegistry is the reference model for Snapshot's fold: the registry
// semantics from before registration became append-only. One handle per
// name lives in a map, and every source metric is a closure probe: one
// re-registered under a name composes with the earlier one by closure:
// counts and times sum, gauges take the maximum, another kind replaces.
type refRegistry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*SizeHist
	probes   map[string]refProbe
}

type refProbe struct {
	kind Kind
	f    func() int64
}

func newRef() *refRegistry {
	return &refRegistry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
		hists:    map[string]*SizeHist{},
		probes:   map[string]refProbe{},
	}
}

// handle returns m's entry for name, creating it on first use.
func handle[H any](m map[string]*H, name string) *H {
	h, ok := m[name]
	if !ok {
		h = new(H)
		m[name] = h
	}
	return h
}

func (r *refRegistry) addProbe(name string, kind Kind, f func() int64) {
	if old, ok := r.probes[name]; ok && old.kind == kind {
		prev, next := old.f, f
		if kind == KindGauge {
			f = func() int64 { return max(prev(), next()) }
		} else {
			f = func() int64 { return prev() + next() }
		}
	}
	r.probes[name] = refProbe{kind, f}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// snapshot lists every metric family by family, then sorts by name. The
// sort is stable, so same-name items of different families keep family
// order: counters, gauges, timers, histograms, probes, dropped spans.
func (r *refRegistry) snapshot(dropped int64) []Item {
	var items []Item
	for _, name := range sortedKeys(r.counters) {
		items = append(items, Item{Name: name, Kind: KindCount, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		items = append(items, Item{Name: name, Kind: KindGauge, Value: r.gauges[name].HighWater()})
	}
	for _, name := range sortedKeys(r.timers) {
		items = append(items, Item{Name: name, Kind: KindTime, Value: int64(r.timers[name].Total())})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		for c := trace.SizeClass(0); c < trace.NumSizeClasses; c++ {
			items = append(items,
				Item{Name: fmt.Sprintf("%s{%s}/count", name, c), Kind: KindCount, Value: h.Count[c]},
				Item{Name: fmt.Sprintf("%s{%s}/bytes", name, c), Kind: KindCount, Value: h.Bytes[c]},
				Item{Name: fmt.Sprintf("%s{%s}/time", name, c), Kind: KindTime, Value: int64(h.Time[c])},
			)
		}
	}
	for _, name := range sortedKeys(r.probes) {
		p := r.probes[name]
		items = append(items, Item{Name: name, Kind: p.kind, Value: p.f()})
	}
	if dropped > 0 {
		items = append(items, Item{Name: "metrics/spans_dropped", Kind: KindCount, Value: dropped})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	return items
}

// testSource reports a fixed list of metrics whose values may change
// between registration and snapshot.
type testSource []testMetric

type testMetric struct {
	suffix string
	kind   Kind
	v      *int64
}

// fixed is a source reporting one constant metric under its prefix.
func fixed(kind Kind, v int64) testSource { return testSource{{"", kind, &v}} }

func (s testSource) Report(e *Emitter) {
	for _, m := range s {
		switch m.kind {
		case KindCount:
			e.Count(m.suffix, *m.v)
		case KindTime:
			e.Time(m.suffix, units.Time(*m.v))
		default:
			e.Gauge(m.suffix, *m.v)
		}
	}
}

// TestFoldMatchesReferenceModel draws seeded registration sequences over a
// small name pool, so names repeat within and across families, source
// metrics change kind, histograms share names and sources overlap. It runs
// each against the registry and the reference model and requires
// identical snapshots, item for item, before and after further updates.
func TestFoldMatchesReferenceModel(t *testing.T) {
	names := []string{"node0/a", "node0/b", "node1/a", "rank2/mpi/x", "engine/y", "node0/h", "node0/h{<2K}/count"}
	prefixes := []string{"node0/", "node1/", "rank2/mpi/", ""}
	suffixes := []string{"a", "b", "x", "h{<2K}/count"}
	kinds := []Kind{KindCount, KindTime, KindGauge}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, ref := New(), newRef()
		r.spans = newSpanLog(2)
		var updates []func(v int64)
		pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
		for op, n := 0, 1+rng.Intn(40); op < n; op++ {
			name := pick(names)
			switch rng.Intn(6) {
			case 0:
				c, rc := r.Counter(name), handle(ref.counters, name)
				updates = append(updates, func(v int64) { c.Add(v); rc.Add(v) })
			case 1:
				g, rg := r.Gauge(name), handle(ref.gauges, name)
				updates = append(updates, func(v int64) { g.Set(v); rg.Set(v) })
			case 2:
				tm, rt := r.Timer(name), handle(ref.timers, name)
				updates = append(updates, func(v int64) { tm.Add(units.Time(v)); rt.Add(units.Time(v)) })
			case 3:
				h, rh := r.SizeHist(name), handle(ref.hists, name)
				updates = append(updates, func(v int64) {
					size := v << uint(rng.Intn(22))
					h.Observe(size, units.Time(v))
					rh.Observe(size, units.Time(v))
				})
			case 4:
				// One metric under its full name: an empty suffix.
				v := new(int64)
				kind := kinds[rng.Intn(3)]
				r.AddSource(name, testSource{{"", kind, v}})
				ref.addProbe(name, kind, func() int64 { return *v })
				updates = append(updates, func(x int64) { *v += x })
			default:
				prefix := pick(prefixes)
				var src testSource
				for k := 1 + rng.Intn(3); k > 0; k-- {
					v := new(int64)
					src = append(src, testMetric{pick(suffixes), kinds[rng.Intn(3)], v})
					updates = append(updates, func(x int64) { *v += x })
				}
				r.AddSource(prefix, src)
				for _, m := range src {
					ref.addProbe(prefix+m.suffix, m.kind, func() int64 { return *m.v })
				}
			}
		}
		spans := r.Track(0, "bus", "dma", "bus")
		for round := 0; round < 2; round++ {
			for i := 0; i < 3*len(updates); i++ {
				updates[rng.Intn(len(updates))](rng.Int63n(5000))
			}
			for k := rng.Intn(3); k > 0; k-- {
				spans.Emit(0, units.Nanosecond, 1)
			}
			got, want := r.Snapshot().Items, ref.snapshot(r.spans.Dropped())
			if len(got) != len(want) {
				t.Fatalf("seed %d round %d: %d items, reference has %d\ngot  %v\nwant %v", seed, round, len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d round %d: item %d = %+v, reference %+v", seed, round, i, got[i], want[i])
				}
			}
		}
	}
}
