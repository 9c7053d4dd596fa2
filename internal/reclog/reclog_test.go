package reclog

import (
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
