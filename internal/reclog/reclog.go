// Package reclog is the bounded, chunked record log behind the metrics
// span log, the msgtrace span and message logs and the MPI timeline. Every
// log keeps the first records up to its cap and counts the rest. It grows
// by whole chunks, so a record is never copied and appending inside a
// chunk allocates nothing; a chunk of pointer-free records is never
// scanned by the garbage collector.
//
// Two layouts share that rule. Log[T] holds fixed-width records that can
// be read by index. Packed holds (lane, start, end, size) intervals as
// variable-length records in byte chunks, about a third of the fixed
// width, read back in order only: the metrics span log, the largest log a
// run keeps.
package reclog

import "encoding/binary"

// SpanMax caps both span logs (metrics and msgtrace): large enough for the
// observability demo, small enough that a runaway sweep cannot exhaust
// memory.
const SpanMax = 1 << 20

const chunkLen = 4096 // records per chunk of a Log

// bound keeps "the first max records, count the rest" for both layouts.
type bound struct {
	n       int
	max     int // <= 0 keeps every record
	dropped int64
}

// admit takes one more record if the cap allows it, and otherwise counts
// it as dropped.
func (b *bound) admit() bool {
	if b.n == b.max && b.max > 0 {
		b.dropped++
		return false
	}
	b.n++
	return true
}

// Len returns the number of records kept.
func (b *bound) Len() int { return b.n }

// Dropped returns the number of records discarded at the cap.
func (b *bound) Dropped() int64 { return b.dropped }

// Log is an append-only log of T records keeping the first max of them.
// The zero value is an empty log with no cap. It is not safe for
// concurrent use.
type Log[T any] struct {
	bound
	chunks []*[chunkLen]T
}

// New returns an empty log that keeps the first max records (max <= 0
// keeps every record).
func New[T any](max int) Log[T] { return Log[T]{bound: bound{max: max}} }

// Append adds v, or counts it as dropped once the log holds max records.
func (l *Log[T]) Append(v T) {
	if !l.admit() {
		return
	}
	i := l.n - 1
	if i%chunkLen == 0 {
		l.chunks = append(l.chunks, new([chunkLen]T))
	}
	l.chunks[i/chunkLen][i%chunkLen] = v
}

// At returns the i-th kept record in append order, in place.
func (l *Log[T]) At(i int) *T { return &l.chunks[i/chunkLen][i%chunkLen] }

// Slice returns a fresh copy of the kept records in append order.
func (l *Log[T]) Slice() []T {
	out := make([]T, l.n)
	for i := range out {
		out[i] = *l.At(i)
	}
	return out
}

const (
	chunkBytes = 64 << 10 // bytes per chunk of a Packed log
	// maxPacked is the longest encoded record: a uint32 lane and three
	// int64 varints.
	maxPacked = binary.MaxVarintLen32 + 3*binary.MaxVarintLen64
)

// Packed is an append-only log of (lane, start, end, size) intervals
// keeping the first max of them. A record is the lane as a uvarint, then
// start as a zigzag varint delta from the previous record's start, then
// end-start and size as zigzag varints. The differences wrap in int64
// arithmetic, so every value round-trips exactly. A record never spans
// two chunks. The zero value is an empty log with no cap. It is not safe
// for concurrent use.
type Packed struct {
	bound
	chunks [][]byte
	last   int64 // start of the last kept record
}

// NewPacked returns an empty packed log that keeps the first max records
// (max <= 0 keeps every record).
func NewPacked(max int) Packed { return Packed{bound: bound{max: max}} }

// Append adds one interval, or counts it as dropped once the log holds
// max records.
func (l *Packed) Append(lane uint32, start, end, size int64) {
	if !l.admit() {
		return
	}
	k := len(l.chunks) - 1
	if k < 0 || cap(l.chunks[k])-len(l.chunks[k]) < maxPacked {
		l.chunks = append(l.chunks, make([]byte, 0, chunkBytes))
		k++
	}
	b := binary.AppendUvarint(l.chunks[k], uint64(lane))
	b = binary.AppendVarint(b, start-l.last)
	b = binary.AppendVarint(b, end-start)
	l.chunks[k] = binary.AppendVarint(b, size)
	l.last = start
}

// Each calls f on every kept record in append order.
func (l *Packed) Each(f func(lane uint32, start, end, size int64)) {
	var start int64
	for _, b := range l.chunks {
		for len(b) > 0 {
			lane, n := binary.Uvarint(b)
			b = b[n:]
			d, n := binary.Varint(b)
			b = b[n:]
			dur, n := binary.Varint(b)
			b = b[n:]
			size, n := binary.Varint(b)
			b = b[n:]
			start += d
			f(uint32(lane), start, start+dur, size)
		}
	}
}
