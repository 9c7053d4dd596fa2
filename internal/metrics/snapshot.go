package metrics

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// Item is one metric in a snapshot. Value holds a count, a high-water mark
// or a time in picoseconds according to Kind.
type Item struct {
	Name string
	Kind Kind
	// fam and seq order same-name items in Snapshot's fold: families
	// apart, registration order within one. Zero outside Snapshot.
	fam   family
	seq   uint32
	Value int64
}

// family is the registration family of a snapshot item. Snapshot folds
// same-name items within a family only, so a counter and a source that
// share a name stay two items.
type family uint8

const (
	famCounter family = iota
	famGauge
	famTimer
	famHist
	famSource
	famSpans // metrics/spans_dropped
)

// Snapshot is a point-in-time, name-sorted copy of a registry's metrics.
// Histograms are expanded into one item per size class plus a total, so
// snapshots merge and diff with no special cases.
type Snapshot struct {
	Items []Item
}

// histItems is the number of items one histogram expands into.
const histItems = 3 * int(trace.NumSizeClasses)

// Snapshot copies every handle's value, reads every source and folds
// same-name items into one. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	// Size the one item slice exactly, so it never regrows.
	size := Emitter{sizing: true}
	for _, s := range r.sources {
		s.src.Report(&size)
	}
	n := len(r.counters) + len(r.gauges) + len(r.timers) + histItems*len(r.hists) + size.n + 1
	items := make([]Item, 0, n)
	for _, c := range r.counters {
		items = append(items, Item{Name: c.name, Kind: KindCount, fam: famCounter, Value: c.h.Value()})
	}
	for _, g := range r.gauges {
		items = append(items, Item{Name: g.name, Kind: KindGauge, fam: famGauge, Value: g.h.HighWater()})
	}
	for _, t := range r.timers {
		items = append(items, Item{Name: t.name, Kind: KindTime, fam: famTimer, Value: int64(t.h.Total())})
	}
	for _, h := range r.hists {
		for c := trace.SizeClass(0); c < trace.NumSizeClasses; c++ {
			cs := c.String()
			items = append(items,
				Item{Name: h.name + "{" + cs + "}/count", Kind: KindCount, fam: famHist, Value: h.h.Count[c]},
				Item{Name: h.name + "{" + cs + "}/bytes", Kind: KindCount, fam: famHist, Value: h.h.Bytes[c]},
				Item{Name: h.name + "{" + cs + "}/time", Kind: KindTime, fam: famHist, Value: int64(h.h.Time[c])},
			)
		}
	}
	e := Emitter{items: items}
	for _, s := range r.sources {
		e.prefix = s.prefix
		s.src.Report(&e)
	}
	if d := r.spans.Dropped(); d > 0 {
		e.items = append(e.items, Item{Name: "metrics/spans_dropped", Kind: KindCount, fam: famSpans, Value: d})
	}
	return Snapshot{Items: fold(e.items)}
}

// fold sorts items by name and folds each run of same-name items of one
// family into its first slot, in place: counts and times sum, gauges take
// the maximum, and an item of another kind (a source metric reported
// under a name with a new kind) replaces what came before it.
func fold(items []Item) []Item {
	for i := range items {
		items[i].seq = uint32(i)
	}
	slices.SortFunc(items, func(a, b Item) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		if c := cmp.Compare(a.fam, b.fam); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	out := items[:0]
	for _, it := range items {
		if k := len(out) - 1; k >= 0 && out[k].fam == it.fam && out[k].Name == it.Name {
			switch a := &out[k]; {
			case a.Kind != it.Kind:
				a.Kind, a.Value = it.Kind, it.Value
			case it.Kind == KindGauge:
				a.Value = max(a.Value, it.Value)
			default:
				a.Value += it.Value
			}
			continue
		}
		out = append(out, it)
	}
	for i := range out {
		out[i].fam, out[i].seq = 0, 0
	}
	return out
}

// stripScope drops a leading "node<digits>/" or "rank<digits>/" name
// component, the per-node / per-rank scope Merged folds away.
func stripScope(name string) string {
	rest, ok := strings.CutPrefix(name, "node")
	if !ok {
		rest, ok = strings.CutPrefix(name, "rank")
	}
	if !ok {
		return name
	}
	i := 0
	for i < len(rest) && '0' <= rest[i] && rest[i] <= '9' {
		i++
	}
	if i == 0 || i == len(rest) || rest[i] != '/' {
		return name
	}
	return rest[i+1:]
}

// Merged folds per-node and per-rank metrics into cluster-wide aggregates,
// the registry analogue of trace.Profile.Merge: the leading "nodeN/" or
// "rankN/" name component is stripped, then counts and times sum while
// gauges (high-water marks) take the maximum. Unscoped metrics pass
// through unchanged.
func (s Snapshot) Merged() Snapshot {
	stripped := Snapshot{Items: make([]Item, len(s.Items))}
	for i, it := range s.Items {
		it.Name = stripScope(it.Name)
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

// appendValue renders an item's value: times as humane durations,
// byte-suffixed counts as sizes, everything else as a plain integer.
func (it Item) appendValue(b []byte) []byte {
	switch {
	case it.Kind == KindTime:
		return append(b, units.Time(it.Value).String()...)
	case strings.HasSuffix(it.Name, "bytes") || strings.HasSuffix(it.Name, "/bytes}") ||
		strings.Contains(it.Name, "/bytes"):
		return append(b, units.SizeString(it.Value)...)
	case it.Kind == KindGauge:
		return append(strconv.AppendInt(b, it.Value, 10), " (high water)"...)
	default:
		return strconv.AppendInt(b, it.Value, 10)
	}
}

// renderChunk is how much rendered text Render buffers between writes.
const renderChunk = 32 << 10

// Render writes the snapshot as an aligned two-column listing: each name
// left-aligned and padded to the longest name's length, two spaces, the
// value.
func (s Snapshot) Render(w io.Writer) {
	width := len("metric")
	for _, it := range s.Items {
		if len(it.Name) > width {
			width = len(it.Name)
		}
	}
	b := make([]byte, 0, renderChunk+256)
	b = append(padName(b, "metric", width), "  value\n"...)
	for _, it := range s.Items {
		b = append(padName(b, it.Name, width), ' ', ' ')
		b = append(it.appendValue(b), '\n')
		if len(b) >= renderChunk {
			w.Write(b)
			b = b[:0]
		}
	}
	w.Write(b)
}

// padName appends name padded with spaces to width runes, as fmt's %-*s
// pads.
func padName(b []byte, name string, width int) []byte {
	b = append(b, name...)
	for n := utf8.RuneCountInString(name); n < width; n++ {
		b = append(b, ' ')
	}
	return b
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
