package metrics

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"

	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// Item is one metric in a snapshot. Value holds a count, a high-water mark
// or a time in picoseconds according to Kind.
type Item struct {
	Name  string
	Kind  Kind
	Value int64
}

// Snapshot is a point-in-time, name-sorted copy of a registry's metrics.
// Histograms are expanded into one item per size class plus a total, so
// snapshots merge and diff with no special cases.
type Snapshot struct {
	Items []Item
}

// Snapshot evaluates every probe and copies every metric. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var s Snapshot
	for _, name := range sortedKeys(r.counters) {
		s.Items = append(s.Items, Item{Name: name, Kind: KindCount, Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Items = append(s.Items, Item{Name: name, Kind: KindGauge, Value: r.gauges[name].HighWater()})
	}
	for _, name := range sortedKeys(r.timers) {
		s.Items = append(s.Items, Item{Name: name, Kind: KindTime, Value: int64(r.timers[name].Total())})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		for c := trace.SizeClass(0); c < trace.NumSizeClasses; c++ {
			s.Items = append(s.Items,
				Item{Name: fmt.Sprintf("%s{%s}/count", name, c), Kind: KindCount, Value: h.Count[c]},
				Item{Name: fmt.Sprintf("%s{%s}/bytes", name, c), Kind: KindCount, Value: h.Bytes[c]},
				Item{Name: fmt.Sprintf("%s{%s}/time", name, c), Kind: KindTime, Value: int64(h.Time[c])},
			)
		}
	}
	for _, name := range sortedKeys(r.probes) {
		p := r.probes[name]
		s.Items = append(s.Items, Item{Name: name, Kind: p.kind, Value: p.f()})
	}
	if d := r.spans.Dropped(); d > 0 {
		s.Items = append(s.Items, Item{Name: "metrics/spans_dropped", Kind: KindCount, Value: d})
	}
	sort.Slice(s.Items, func(i, j int) bool { return s.Items[i].Name < s.Items[j].Name })
	return s
}

// scopePrefix matches the per-node / per-rank leading path component that
// Merged strips to form cluster-wide aggregates.
var scopePrefix = regexp.MustCompile(`^(node|rank)\d+/`)

// Merged folds per-node and per-rank metrics into cluster-wide aggregates,
// the registry analogue of trace.Profile.Merge: the leading "nodeN/" or
// "rankN/" name component is stripped, then counts and times sum while
// gauges (high-water marks) take the maximum. Unscoped metrics pass
// through unchanged.
func (s Snapshot) Merged() Snapshot {
	stripped := Snapshot{Items: make([]Item, len(s.Items))}
	for i, it := range s.Items {
		it.Name = scopePrefix.ReplaceAllString(it.Name, "")
		stripped.Items[i] = it
	}
	return MergeSnapshots(stripped)
}

// MergeSnapshots folds any number of snapshots into one deterministic
// aggregate: items sharing a name combine by kind (counts and times sum,
// gauge high-waters take the maximum) and the result is name-sorted, so the
// output is invariant under input order: the deterministic way to combine
// the registries of independent worlds.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	agg := make(map[string]*Item)
	var names []string
	for _, s := range snaps {
		for _, it := range s.Items {
			a, ok := agg[it.Name]
			if !ok {
				cp := it
				agg[it.Name] = &cp
				names = append(names, it.Name)
				continue
			}
			if it.Kind == KindGauge {
				if it.Value > a.Value {
					a.Value = it.Value
				}
			} else {
				a.Value += it.Value
			}
		}
	}
	sort.Strings(names)
	out := Snapshot{Items: make([]Item, 0, len(names))}
	for _, name := range names {
		out.Items = append(out.Items, *agg[name])
	}
	return out
}

// format renders an item's value: times as humane durations, byte-suffixed
// counts as sizes, everything else as a plain integer.
func (it Item) format() string {
	switch {
	case it.Kind == KindTime:
		return units.Time(it.Value).String()
	case strings.HasSuffix(it.Name, "bytes") || strings.HasSuffix(it.Name, "/bytes}") ||
		strings.Contains(it.Name, "/bytes"):
		return units.SizeString(it.Value)
	case it.Kind == KindGauge:
		return fmt.Sprintf("%d (high water)", it.Value)
	default:
		return fmt.Sprintf("%d", it.Value)
	}
}

// Render writes the snapshot as an aligned two-column listing.
func (s Snapshot) Render(w io.Writer) {
	width := len("metric")
	for _, it := range s.Items {
		if len(it.Name) > width {
			width = len(it.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %s\n", width, "metric", "value")
	for _, it := range s.Items {
		fmt.Fprintf(w, "%-*s  %s\n", width, it.Name, it.format())
	}
}

// RenderGrouped writes the cluster-wide merged aggregates followed by the
// full per-scope detail — the layout cmd/paperrepro and cmd/mpibench print.
func (s Snapshot) RenderGrouped(w io.Writer) {
	fmt.Fprintln(w, "== cluster-wide (merged per node/rank) ==")
	s.Merged().Render(w)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== full detail ==")
	s.Render(w)
}

// Get returns the named item's value and whether it exists — a test and
// tooling convenience.
func (s Snapshot) Get(name string) (int64, bool) {
	for _, it := range s.Items {
		if it.Name == name {
			return it.Value, true
		}
	}
	return 0, false
}
