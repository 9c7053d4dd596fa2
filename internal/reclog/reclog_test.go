package reclog

import (
	"math"
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

type interval struct {
	lane             uint32
	start, end, size int64
}

// collect reads a packed log back through Each.
func collect(l *Packed) []interval {
	var out []interval
	l.Each(func(lane uint32, start, end, size int64) {
		out = append(out, interval{lane, start, end, size})
	})
	return out
}

// TestPackedRoundTrip fills a packed log across chunk boundaries and
// checks that Each returns every record exactly, in order, and that a cap
// of one chunk's records plus one keeps exactly those, in two chunks, and
// counts the rest as dropped.
func TestPackedRoundTrip(t *testing.T) {
	const n = 3 * chunkBytes / 16
	want := make([]interval, n)
	for i := range want {
		want[i] = interval{
			lane:  uint32(i%5) << (7 * (i % 5)), // 1- to 5-byte lanes
			start: int64(i)*int64(i) - int64(i%7)<<40,
			end:   int64(i)*int64(i) + int64(i%11)<<30,
			size:  int64(i%3) << (20 * (i % 4)),
		}
	}
	fill := func(l Packed) Packed {
		for _, r := range want {
			l.Append(r.lane, r.start, r.end, r.size)
		}
		return l
	}
	full := fill(Packed{})
	if len(full.chunks) < 3 {
		t.Fatalf("%d records took %d chunks, want at least 3", n, len(full.chunks))
	}
	first := len(collect(&Packed{chunks: full.chunks[:1]}))
	for _, c := range []struct {
		name   string
		log    Packed
		keep   int
		chunks int
	}{
		{"zero value", full, n, len(full.chunks)},
		{"no cap", fill(NewPacked(-1)), n, len(full.chunks)},
		{"capped", fill(NewPacked(first + 1)), first + 1, 2},
	} {
		l := c.log
		if l.Len() != c.keep || l.Dropped() != int64(n-c.keep) || len(l.chunks) != c.chunks {
			t.Fatalf("%s: kept %d in %d chunks, dropped %d; want %d in %d, %d",
				c.name, l.Len(), len(l.chunks), l.Dropped(), c.keep, c.chunks, n-c.keep)
		}
		if got := collect(&l); !slices.Equal(got, want[:c.keep]) {
			t.Fatalf("%s: Each returned %d records, want the first %d in order", c.name, len(got), c.keep)
		}
	}
}

// TestPackedExtremes round-trips what the delta coding must not lose:
// starts that go backwards, deltas and durations that overflow int64 and
// wrap, the extreme times, a zero size and lanes of 2^21 and beyond.
func TestPackedExtremes(t *testing.T) {
	want := []interval{
		{0, 0, 0, 0},
		{1 << 21, 1000, 900, 0}, // end before start
		{1<<21 + 1, 10, 20, 64 << 10},
		{math.MaxUint32, math.MaxInt64, math.MaxInt64, math.MaxInt64},
		{3, math.MinInt64, math.MaxInt64, math.MinInt64},
		{4, math.MaxInt64, math.MinInt64, -1},
		{5, math.MinInt64, math.MinInt64, 0},
		{6, -5, 5, 1},
		{7, -6, -7, 0},
	}
	var l Packed
	for _, r := range want {
		l.Append(r.lane, r.start, r.end, r.size)
	}
	if got := collect(&l); !slices.Equal(got, want) {
		t.Fatalf("round trip:\n got %v\nwant %v", got, want)
	}
}

// TestPackedAppendZeroAlloc holds Packed.Append to the chunk contract:
// only the record that opens a chunk allocates.
func TestPackedAppendZeroAlloc(t *testing.T) {
	l := NewPacked(0)
	l.Append(0, 0, 0, 0)
	start := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		start += 12345
		l.Append(1<<21, start, start+1e7, 64<<10)
	})
	if allocs != 0 {
		t.Fatalf("Append inside a chunk allocated %.1f times per record, want 0", allocs)
	}
	if len(l.chunks) != 1 {
		t.Fatalf("1001 records of at most %d bytes took %d chunks, want 1", maxPacked, len(l.chunks))
	}
}
