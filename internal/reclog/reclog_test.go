package reclog

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

type rec struct {
	id         int32
	start, end int64
}

// TestLogRoundTrip appends across two chunk boundaries: At and Slice must
// return every record in append order, and a cap just past one chunk must
// keep exactly the first records and count exactly the excess as dropped.
func TestLogRoundTrip(t *testing.T) {
	const n = 2*chunkLen + 3
	want := make([]rec, n)
	for i := range want {
		want[i] = rec{id: int32(i % 3), start: int64(i), end: int64(2*i + i%7)}
	}
	for _, c := range []struct {
		name string
		log  Log[rec]
		keep int
	}{
		{"zero value", Log[rec]{}, n},
		{"no cap", New[rec](-1), n},
		{"capped", New[rec](chunkLen + 1), chunkLen + 1},
	} {
		l := c.log
		for _, r := range want {
			l.Append(r)
		}
		if l.Len() != c.keep || l.Dropped() != int64(n-c.keep) {
			t.Fatalf("%s: kept %d, dropped %d; want %d, %d", c.name, l.Len(), l.Dropped(), c.keep, n-c.keep)
		}
		for i := 0; i < l.Len(); i++ {
			if *l.At(i) != want[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", c.name, i, *l.At(i), want[i])
			}
		}
		if got := l.Slice(); !slices.Equal(got, want[:c.keep]) {
			t.Fatalf("%s: Slice returned %d records, want the first %d in order", c.name, len(got), c.keep)
		}
	}
}

// TestAppendZeroAlloc holds Append to the chunk contract: only the first
// record of a chunk allocates.
func TestAppendZeroAlloc(t *testing.T) {
	l := New[rec](0)
	l.Append(rec{})
	allocs := testing.AllocsPerRun(chunkLen/2, func() { l.Append(rec{id: 1}) })
	if allocs != 0 {
		t.Fatalf("Append inside a chunk allocated %.1f times per record, want 0", allocs)
	}
}

// record is one Packed record as a test appends it.
type record struct {
	lane       uint32
	start, end int64
	attrs      []int64
}

// The two schemas the packed log serves. A metrics span is a station lane,
// an interval and a size. A msgtrace span rides its sender's lane (rank+1)
// and carries the ID's sequence number, stage, observing rank, rail,
// attempt, hop and bytes.
const (
	metricsAttrs  = 1
	msgtraceAttrs = 7
)

// collect reads a packed log back through Each.
func collect(l *Packed) []record {
	var out []record
	l.Each(func(lane uint32, start, end int64, attrs []int64) {
		out = append(out, record{lane, start, end, slices.Clone(attrs)})
	})
	return out
}

// fill appends recs to l and returns it.
func fill(l Packed, recs []record) Packed {
	for _, r := range recs {
		l.Append(r.lane, r.start, r.end, r.attrs...)
	}
	return l
}

// equal reports whether two record lists match field for field.
func equal(a, b []record) bool {
	return slices.EqualFunc(a, b, func(x, y record) bool {
		return x.lane == y.lane && x.start == y.start && x.end == y.end && slices.Equal(x.attrs, y.attrs)
	})
}

// TestPackedRoundTrip fills a packed log across chunk boundaries and
// checks that Each returns every record exactly, in order, and that a cap
// of one chunk's records plus one keeps exactly those, in two chunks, and
// counts the rest as dropped. Lanes run from 0 to past ctxLanes, so both
// the per-lane and the shared context are read back.
func TestPackedRoundTrip(t *testing.T) {
	const n = 3 * chunkBytes / 16
	want := make([]record, n)
	for i := range want {
		want[i] = record{
			lane:  uint32(i%5) << (7 * (i % 5)), // 1- to 5-byte lanes
			start: int64(i)*int64(i) - int64(i%7)<<40,
			end:   int64(i)*int64(i) + int64(i%11)<<30,
			attrs: []int64{int64(i%3) << (20 * (i % 4))},
		}
	}
	full := fill(NewPacked(0, metricsAttrs), want)
	if len(full.chunks) < 3 {
		t.Fatalf("%d records took %d chunks, want at least 3", n, len(full.chunks))
	}
	first := len(collect(&Packed{chunks: full.chunks[:1], ctx: full.ctx}))
	for _, c := range []struct {
		name   string
		log    Packed
		keep   int
		chunks int
	}{
		{"no cap", full, n, len(full.chunks)},
		{"negative cap", fill(NewPacked(-1, metricsAttrs), want), n, len(full.chunks)},
		{"capped", fill(NewPacked(first+1, metricsAttrs), want), first + 1, 2},
	} {
		l := c.log
		if l.Len() != c.keep || l.Dropped() != int64(n-c.keep) || len(l.chunks) != c.chunks {
			t.Fatalf("%s: kept %d in %d chunks, dropped %d; want %d in %d, %d",
				c.name, l.Len(), len(l.chunks), l.Dropped(), c.keep, c.chunks, n-c.keep)
		}
		if got := collect(&l); !equal(got, want[:c.keep]) {
			t.Fatalf("%s: Each returned %d records, want the first %d in order", c.name, len(got), c.keep)
		}
	}
	// The zero value holds attribute-free intervals.
	var z Packed
	bare := make([]record, n)
	for i, r := range want {
		bare[i] = record{r.lane, r.start, r.end, []int64{}}
		z.Append(r.lane, r.start, r.end)
	}
	if got := collect(&z); !equal(got, bare) {
		t.Fatalf("zero value: Each returned %d records, want %d in order", len(got), n)
	}
}

// TestPackedRandomRoundTrip appends seeded random records of both schemas
// on lanes on both sides of ctxLanes, with values of every width, and
// reads each back exactly.
func TestPackedRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	val := func() int64 { return rng.Int63() >> rng.Intn(64) * int64(1-2*rng.Intn(2)) }
	for _, attrs := range []int{0, metricsAttrs, msgtraceAttrs} {
		want := make([]record, 20000)
		for i := range want {
			lane := uint32(rng.Intn(40)) + uint32(rng.Intn(2))*(ctxLanes-20)
			r := record{lane: lane, start: val(), end: val(), attrs: make([]int64, attrs)}
			for j := range r.attrs {
				r.attrs[j] = val()
			}
			want[i] = r
		}
		l := fill(NewPacked(0, attrs), want)
		if got := collect(&l); !equal(got, want) {
			t.Fatalf("%d attributes: round trip lost a value", attrs)
		}
	}
}

// TestPackedExtremes round-trips what the delta coding must not lose,
// under both schemas: starts that go backwards, deltas and durations that
// overflow int64 and wrap, the extreme times and sizes, the last lane
// below ctxLanes and the first at it, and lanes of 2^21 and beyond, up to
// math.MaxUint32, which share one context and must not grow the context
// table past the highest lane below ctxLanes. The msgtrace records add
// rail -1, hop -1, attempt 255, a large rank and sequence number 2^40-1.
func TestPackedExtremes(t *testing.T) {
	attr := func(v ...int64) []int64 { return v }
	metrics := []record{
		{0, 0, 0, attr(0)},
		{1 << 21, 1000, 900, attr(0)}, // end before start
		{1<<21 + 1, 10, 20, attr(64 << 10)},
		{math.MaxUint32, math.MaxInt64, math.MaxInt64, attr(math.MaxInt64)},
		{3, math.MinInt64, math.MaxInt64, attr(math.MinInt64)},
		{3, math.MaxInt64, math.MinInt64, attr(math.MaxInt64)},
		{4, math.MaxInt64, math.MinInt64, attr(-1)},
		{5, math.MinInt64, math.MinInt64, attr(0)},
		{math.MaxUint32, math.MinInt64, math.MinInt64, attr(math.MinInt64)},
		{6, -5, 5, attr(1)},
		{7, -6, -7, attr(0)},
		{ctxLanes - 1, 3, 4, attr(5)},
		{ctxLanes, 6, 7, attr(8)},
		{ctxLanes - 1, 2, 1, attr(0)},
	}
	// seq, stage, rank, rail, attempt, hop, bytes
	msgtrace := []record{
		{1, 0, 10, attr(1, 0, 0, -1, 0, -1, 64)},
		{1 << 24, 5, 7, attr(1<<40-1, 10, 1<<24-1, 127, 255, 32767, math.MaxInt64)},
		{1 << 24, math.MaxInt64, math.MinInt64, attr(1, 5, -1, -128, 0, -32768, math.MinInt64)},
		{2, math.MinInt64, math.MaxInt64, attr(1<<40-1, 4, math.MaxInt32, -1, 255, -1, 0)},
		{2, -1, math.MinInt64, attr(0, 0, math.MinInt32, 0, 0, 0, -1)},
		{math.MaxUint32, math.MaxInt64, math.MaxInt64, attr(1<<40-1, 10, 1<<24-1, -1, 255, -1, math.MaxInt64)},
		{1, 10, 5, attr(2, 3, 0, -1, 1, -1, 64)},
	}
	for _, c := range []struct {
		name  string
		attrs int
		want  []record
	}{
		{"metrics", metricsAttrs, metrics},
		{"msgtrace", msgtraceAttrs, msgtrace},
	} {
		l := fill(NewPacked(0, c.attrs), c.want)
		if got := collect(&l); !equal(got, c.want) {
			t.Fatalf("%s round trip:\n got %v\nwant %v", c.name, got, c.want)
		}
		hi := uint32(0) // the highest lane with a context of its own
		for _, r := range c.want {
			if r.lane < ctxLanes {
				hi = max(hi, r.lane)
			}
		}
		if want := (int(hi) + 2) * (2 + c.attrs); len(l.ctx.tab) != want {
			t.Fatalf("%s: context table holds %d words, want %d: lanes 0..%d and the shared slot", c.name, len(l.ctx.tab), want, hi)
		}
	}
}

// TestPackedAppendZeroAlloc holds Packed.Append to the chunk contract
// under both schemas: only the record that opens a chunk, or that first
// reaches a lane, allocates.
func TestPackedAppendZeroAlloc(t *testing.T) {
	t.Run("metrics", func(t *testing.T) {
		l := NewPacked(0, metricsAttrs)
		l.Append(3, 0, 0, 0)
		start := int64(0)
		allocs := testing.AllocsPerRun(1000, func() {
			start += 12345
			l.Append(uint32(start)%4, start, start+1e7, 64<<10)
			l.Append(1<<21, start, start+1e7, 64<<10)
		})
		if allocs != 0 {
			t.Fatalf("Append inside a chunk allocated %.1f times per record pair, want 0", allocs)
		}
		if len(l.chunks) != 1 {
			t.Fatalf("2001 records of at most %d bytes took %d chunks, want 1", maxPacked, len(l.chunks))
		}
	})
	t.Run("msgtrace", func(t *testing.T) {
		l := NewPacked(0, msgtraceAttrs)
		l.Append(1024, 0, 0, 0, 0, 0, 0, 0, 0, 0)
		seq := int64(0)
		allocs := testing.AllocsPerRun(500, func() {
			seq++
			at := seq * 1e6
			l.Append(uint32(seq%1024)+1, at, at+5e5, seq, 4, seq%1024, 0, 0, -1, 8<<10)
		})
		if allocs != 0 {
			t.Fatalf("Append inside a chunk allocated %.1f times per record, want 0", allocs)
		}
	})
}
