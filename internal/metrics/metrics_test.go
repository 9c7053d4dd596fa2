package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mpinet/internal/reclog"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	tm := r.Timer("x")
	h := r.SizeHist("x")
	if c != nil || g != nil || tm != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	tm.Add(units.Microsecond)
	h.Observe(4096, units.Microsecond)
	sp := r.Track(0, "bus", "dma", "bus")
	if sp != nil {
		t.Fatalf("nil registry must hand out a nil span track")
	}
	sp.Emit(0, units.Microsecond, 64)
	r.AddSource("p", fixed(KindCount, 1))
	if c.Value() != 0 || g.HighWater() != 0 || tm.Total() != 0 {
		t.Fatalf("nil handles must stay zero")
	}
	if got := r.Snapshot(); len(got.Items) != 0 {
		t.Fatalf("nil registry snapshot not empty: %v", got.Items)
	}
	if r.Spans() != nil {
		t.Fatalf("nil registry span log must be empty")
	}
}

// Spans rebuilds the recorded span log in recording order (nil on a nil
// registry or an empty log).
func (r *Registry) Spans() []Span {
	if r == nil || r.spans.Len() == 0 {
		return nil
	}
	out := make([]Span, 0, r.spans.Len())
	r.spans.Each(func(lane uint32, start, end, size int64) {
		l := r.lanes[lane]
		out = append(out, Span{Node: l.Node, Track: l.Track, Name: l.Name, Cat: l.Cat,
			Start: units.Time(start), End: units.Time(end), Size: size})
	})
	return out
}

// TestSameNameFoldsAtSnapshot: every call hands out a fresh handle, and
// the snapshot reports one item per name, folded by the family's rule.
func TestSameNameFoldsAtSnapshot(t *testing.T) {
	r := New()
	a, b := r.Counter("node0/x"), r.Counter("node0/x")
	if a == b {
		t.Fatalf("each Counter call must hand out a fresh counter")
	}
	a.Inc()
	b.Add(2)
	r.Gauge("node0/g").Set(4)
	r.Gauge("node0/g").Set(3)
	s := r.Snapshot()
	if len(s.Items) != 2 {
		t.Fatalf("snapshot has %d items, want 2: %v", len(s.Items), s.Items)
	}
	if v, _ := s.Get("node0/x"); v != 3 {
		t.Fatalf("folded counter = %d, want 3", v)
	}
	if v, _ := s.Get("node0/g"); v != 4 {
		t.Fatalf("folded gauge = %d, want the maximum 4", v)
	}
}

func TestGaugeHighWater(t *testing.T) {
	r := New()
	g := r.Gauge("depth")
	g.Set(2)
	g.Set(5)
	g.Set(1)
	if g.cur != 1 || g.HighWater() != 5 {
		t.Fatalf("got cur=%d hw=%d, want 1, 5", g.cur, g.HighWater())
	}
}

func TestSizeHistBuckets(t *testing.T) {
	r := New()
	h := r.SizeHist("msg")
	h.Observe(100, units.Microsecond)
	h.Observe(4096, 2*units.Microsecond)
	h.Observe(1<<20+1, 0)
	if h.Count[trace.Below2K] != 1 || h.Count[trace.To16K] != 1 || h.Count[trace.Above1M] != 1 {
		t.Fatalf("bucket counts wrong: %v", h.Count)
	}
	if h.Time[trace.To16K] != 2*units.Microsecond {
		t.Fatalf("bucket time wrong: %v", h.Time)
	}
}

// TestProbeComposition: same-name source metrics fold, wherever a name
// splits into prefix and suffix: counts sum and gauges take the maximum.
func TestProbeComposition(t *testing.T) {
	r := New()
	r.AddSource("node0/pin/hits", fixed(KindCount, 3))
	r.AddSource("node0/pin/", testSource{{"hits", KindCount, new(int64)}})
	r.AddSource("node0/pin/hits", fixed(KindCount, 4))
	r.AddSource("node0/depth", fixed(KindGauge, 2))
	r.AddSource("node0/depth", fixed(KindGauge, 9))
	r.AddSource("node0/busy", fixed(KindTime, int64(units.Microsecond)))
	s := r.Snapshot()
	if v, _ := s.Get("node0/pin/hits"); v != 7 {
		t.Fatalf("same-name source counts must sum: got %d, want 7", v)
	}
	if v, _ := s.Get("node0/depth"); v != 9 {
		t.Fatalf("same-name source gauges must take max: got %d, want 9", v)
	}
	if v, _ := s.Get("node0/busy"); v != int64(units.Microsecond) {
		t.Fatalf("source time = %d", v)
	}
}

// TestSpanCapAndDropCount interleaves three lanes under a lowered cap:
// Spans must rebuild every field of the kept spans in recording order,
// and the snapshot must surface the count of the dropped ones.
func TestSpanCapAndDropCount(t *testing.T) {
	r := New()
	r.spans = reclog.NewPacked(4)
	tmpl := []Span{
		{Node: 0, Track: "bus", Name: "dma", Cat: "bus"},
		{Node: FabricNode, Track: "link7", Name: "xfer", Cat: "fabric"},
		{Node: 3, Track: "rank3", Name: "send", Cat: "mpi"},
	}
	var tracks []*SpanTrack
	for _, s := range tmpl {
		tracks = append(tracks, r.Track(s.Node, s.Track, s.Name, s.Cat))
	}
	var want []Span
	for i := 0; i < 7; i++ {
		s := tmpl[i%3]
		s.Start = units.Time(i) * units.Nanosecond
		s.End = s.Start + units.Time(i+1)
		s.Size = int64(i) * 3
		tracks[i%3].Emit(s.Start, s.End, s.Size)
		want = append(want, s)
	}
	got := r.Spans()
	if len(got) != 4 || r.spans.Dropped() != 3 {
		t.Fatalf("got %d spans, %d dropped; want 4, 3", len(got), r.spans.Dropped())
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if v, ok := r.Snapshot().Get("metrics/spans_dropped"); !ok || v != 3 {
		t.Fatalf("snapshot must surface the drop count, got %d (%v)", v, ok)
	}
}

// TestSpanLogBytesPerSpan holds the span log to its allocation contract on
// a realistic stream: a full default-capacity log costs its packed records
// and nothing else — no regrowth copies, no per-span strings. The stream is
// what device stations emit: seeded FIFO stations on many lanes, jobs of
// 10 ns to 10 µs carrying 0 to 64 KB, submitted in time order but started
// behind each station's queue, so some starts go backwards in the log.
func TestSpanLogBytesPerSpan(t *testing.T) {
	const (
		n     = reclog.SpanMax
		lanes = 256
	)
	r := New()
	tracks := make([]*SpanTrack, lanes)
	free := make([]units.Time, lanes)
	for i := range tracks {
		tracks[i] = r.Track(i/8, "link"+strconv.Itoa(i), "xfer", "fabric")
	}
	rng := rand.New(rand.NewSource(1))
	var now units.Time
	var back int
	var last units.Time
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		now += units.Time(rng.Int63n(int64(40 * units.Nanosecond)))
		lane := rng.Intn(lanes)
		// Log-uniform over three decades: 10 ns .. 10 µs.
		dur := units.Time(float64(10*units.Nanosecond) * math.Pow(1000, rng.Float64()))
		start := max(now, free[lane])
		free[lane] = start + dur
		if start < last {
			back++
		}
		last = start
		tracks[lane].Emit(start, start+dur, rng.Int63n(64<<10+1))
	}
	runtime.ReadMemStats(&after)
	perSpan := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f B/span in %d allocations; %d of %d starts go backwards", perSpan, after.Mallocs-before.Mallocs, back, n)
	if back == 0 {
		t.Fatalf("the stream never queues: no start goes backwards")
	}
	if perSpan > 16 {
		t.Fatalf("span log allocated %.1f B/span, want <= 16", perSpan)
	}
	if r.spans.Dropped() != 0 {
		t.Fatalf("default cap dropped %d of %d spans", r.spans.Dropped(), n)
	}
}

func TestSnapshotMerged(t *testing.T) {
	r := New()
	r.Counter("node0/nic/eager_msgs").Add(5)
	r.Counter("node1/nic/eager_msgs").Add(7)
	r.Gauge("rank0/mpi/unexp_depth").Set(2)
	r.Gauge("rank1/mpi/unexp_depth").Set(6)
	r.Counter("engine/events").Add(11)
	m := r.Snapshot().Merged()
	if v, _ := m.Get("nic/eager_msgs"); v != 12 {
		t.Fatalf("merged count = %d, want 12", v)
	}
	if v, _ := m.Get("mpi/unexp_depth"); v != 6 {
		t.Fatalf("merged gauge = %d, want max 6", v)
	}
	if v, _ := m.Get("engine/events"); v != 11 {
		t.Fatalf("unscoped metric must pass through, got %d", v)
	}
}

// TestStripScope holds Merged's hand-written prefix strip to the pattern
// ^(node|rank)\d+/ it replaces.
func TestStripScope(t *testing.T) {
	re := regexp.MustCompile(`^(node|rank)\d+/`)
	for _, name := range []string{
		"node0/a", "rank12/mpi/x", "node007/b/c", "node/a", "node12", "node12/",
		"nodes1/a", "xnode1/a", "rank1x/a", "rank٣/a", "engine/y", "",
	} {
		if got, want := stripScope(name), re.ReplaceAllString(name, ""); got != want {
			t.Errorf("stripScope(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestSnapshotDeterministicRender(t *testing.T) {
	build := func() string {
		r := New()
		r.Counter("node1/b").Add(2)
		r.Counter("node0/a").Inc()
		r.Timer("node0/t").Add(3 * units.Microsecond)
		r.SizeHist("node0/h").Observe(4096, units.Microsecond)
		r.AddSource("node0/p", fixed(KindCount, 4))
		var buf bytes.Buffer
		r.Snapshot().Render(&buf)
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("renders differ:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "node0/a") || !strings.Contains(a, "node0/h{2K-16K}/count") {
		t.Fatalf("render missing expected rows:\n%s", a)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := New()
	r.Track(0, "bus", "dma", "bus").Emit(0, 2*units.Microsecond, 4096)
	r.Track(1, "nic", "eager", "nic").Emit(units.Microsecond, 3*units.Microsecond, 0)
	events := []trace.Event{
		{At: units.Microsecond, Rank: 1, Kind: trace.EvSendStart, Peer: 0, Tag: 7, Size: 4096},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, events, func(rank int) int { return rank }, nil); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, instant, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		case "M":
			meta++
		}
	}
	if complete != 2 || instant != 1 || meta == 0 {
		t.Fatalf("got %d complete, %d instant, %d metadata events", complete, instant, meta)
	}
	// A span's args are written by hand, as encoding/json writes the map.
	if want := `"pid":0,"tid":0,"args":{"bytes":4096}}`; !strings.Contains(buf.String(), want) {
		t.Fatalf("span args not encoded as %s:\n%s", want, buf.String())
	}
	// Determinism: same inputs, byte-identical output.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, r, events, func(rank int) int { return rank }, nil); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("chrome trace output is not deterministic")
	}
	// An empty run is the document encoding/json writes for no events.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil, nil, nil, nil); err != nil || buf.String() != `{"traceEvents":null,"displayTimeUnit":"ns"}`+"\n" {
		t.Fatalf("empty chrome trace = %q, %v", buf.String(), err)
	}
}

func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{Items: []Item{
		{Name: "engine/events_dispatched", Kind: KindCount, Value: 100},
		{Name: "engine/queue_high_water", Kind: KindGauge, Value: 7},
		{Name: "engine/blocked_time", Kind: KindTime, Value: 500},
	}}
	b := Snapshot{Items: []Item{
		{Name: "engine/events_dispatched", Kind: KindCount, Value: 23},
		{Name: "engine/queue_high_water", Kind: KindGauge, Value: 12},
		{Name: "shard/only_here", Kind: KindCount, Value: 1},
	}}
	m := MergeSnapshots(a, b)
	want := map[string]int64{
		"engine/blocked_time":      500,
		"engine/events_dispatched": 123,
		"engine/queue_high_water":  12,
		"shard/only_here":          1,
	}
	if len(m.Items) != len(want) {
		t.Fatalf("merged %d items, want %d", len(m.Items), len(want))
	}
	for _, it := range m.Items {
		if it.Value != want[it.Name] {
			t.Errorf("%s = %d, want %d", it.Name, it.Value, want[it.Name])
		}
	}
	// Deterministic: input order never changes the result.
	r := MergeSnapshots(b, a)
	for i := range m.Items {
		if m.Items[i].Name != r.Items[i].Name {
			t.Fatalf("merge order-dependent: %q vs %q at %d", m.Items[i].Name, r.Items[i].Name, i)
		}
		if it := r.Items[i]; it.Value != want[it.Name] {
			t.Errorf("reversed: %s = %d, want %d", it.Name, it.Value, want[it.Name])
		}
	}
	// Name order must be sorted (the snapshot invariant).
	for i := 1; i < len(m.Items); i++ {
		if m.Items[i-1].Name >= m.Items[i].Name {
			t.Fatalf("merged items not name-sorted: %q >= %q", m.Items[i-1].Name, m.Items[i].Name)
		}
	}
}
