// Package reclog is the bounded, chunked record log behind the metrics
// span log, the msgtrace span and message logs and the MPI timeline. A
// Log keeps the first records up to its cap and counts the rest. It grows
// by whole chunks, so a record is never copied and appending inside a
// chunk allocates nothing; a chunk of pointer-free records is never
// scanned by the garbage collector.
package reclog

// SpanMax caps both span logs (metrics and msgtrace): large enough for the
// observability demo, small enough that a runaway sweep cannot exhaust
// memory.
const SpanMax = 1 << 20

const chunkLen = 4096 // records per chunk

// Log is an append-only log of T records keeping the first max of them.
// The zero value is an empty log with no cap. It is not safe for
// concurrent use.
type Log[T any] struct {
	chunks  []*[chunkLen]T
	n       int
	max     int // <= 0 keeps every record
	dropped int64
}

// New returns an empty log that keeps the first max records (max <= 0
// keeps every record).
func New[T any](max int) Log[T] { return Log[T]{max: max} }

// Append adds v, or counts it as dropped once the log holds max records.
func (l *Log[T]) Append(v T) {
	if l.n == l.max && l.max > 0 {
		l.dropped++
		return
	}
	if l.n%chunkLen == 0 {
		l.chunks = append(l.chunks, new([chunkLen]T))
	}
	l.chunks[l.n/chunkLen][l.n%chunkLen] = v
	l.n++
}

// Len returns the number of records kept.
func (l *Log[T]) Len() int { return l.n }

// Dropped returns the number of records discarded at the cap.
func (l *Log[T]) Dropped() int64 { return l.dropped }

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
