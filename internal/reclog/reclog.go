// Package reclog is the bounded, chunked record log behind the metrics
// span log, the msgtrace span and message logs and the MPI timeline. Every
// log keeps the first records up to its cap and counts the rest. It grows
// by whole chunks, so a record is never copied and appending inside a
// chunk allocates nothing; a chunk of pointer-free records is never
// scanned by the garbage collector.
//
// Two layouts share that rule. Log[T] holds fixed-width records that can
// be read by index: the msgtrace message roots and the MPI timeline.
// Packed holds both span streams, metrics and msgtrace, as variable-length
// records in byte chunks, each coded against the last record of its lane,
// and is read back in order only: a metrics span packs in about 8 bytes
// and a msgtrace span in about 14, against 32 and 48 fixed-width.
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
	// maxAttrs is the most attributes a Packed record carries beside its
	// lane and interval.
	maxAttrs = 7
	// maxPacked is the longest encoded record: a uint32 lane and the
	// interval and attributes as int64 varints.
	maxPacked = binary.MaxVarintLen32 + (2+maxAttrs)*binary.MaxVarintLen64
)

// ctxLanes is how many lanes of a Packed log code their records against
// their own last record; lanes at or past it share one context. It covers
// every track of a 1024-rank Clos(3, 24, 2) world (9,216 to 10,240) and
// every sender rank of an observed world, and bounds the context table at
// (ctxLanes+1)*(2+maxAttrs) words whatever lane ids a log is given.
const ctxLanes = 1 << 16

// Packed is an append-only log of intervals keeping the first max of them.
// A record is a lane, an interval [start, end] and the log's fixed number
// of int64 attributes. Each record is coded against the last record of
// its lane: the lane as a uvarint, then as zigzag varints start minus the
// lane's last end, end-start minus the lane's last duration, and each
// attribute minus the lane's last value of it. Lanes at or past ctxLanes
// share one context, the last record among them. The differences wrap in
// int64 arithmetic, so every value round-trips exactly. A record never
// spans two chunks. The log is read back in order only. The zero value is
// an empty log of attribute-free records with no cap. It is not safe for
// concurrent use.
type Packed struct {
	bound
	chunks [][]byte
	ctx    contexts
}

// NewPacked returns an empty packed log that keeps the first max records
// (max <= 0 keeps every record) of attrs attributes each.
func NewPacked(max, attrs int) Packed {
	if attrs < 0 || attrs > maxAttrs {
		panic("reclog: attribute count out of range")
	}
	return Packed{bound: bound{max: max}, ctx: contexts{attrs: attrs}}
}

// contexts holds, per lane below ctxLanes and for the lanes that share
// one, the last record's end, duration and attributes. It grows to the
// highest lane seen below ctxLanes.
type contexts struct {
	attrs int
	tab   []int64
}

// of returns lane's context: slot lane+1 below ctxLanes, slot 0 for the
// shared one.
func (c *contexts) of(lane uint32) []int64 {
	w, k := 2+c.attrs, 0
	if lane < ctxLanes {
		k = int(lane) + 1
	}
	if need := (k + 1) * w; need > len(c.tab) {
		c.tab = append(c.tab, make([]int64, need-len(c.tab))...)
	}
	return c.tab[k*w : (k+1)*w]
}

// Append adds one record, or counts it as dropped once the log holds max
// records. attrs holds one value per attribute of the log.
func (l *Packed) Append(lane uint32, start, end int64, attrs ...int64) {
	if !l.admit() {
		return
	}
	k := len(l.chunks) - 1
	if k < 0 || cap(l.chunks[k])-len(l.chunks[k]) < maxPacked {
		l.chunks = append(l.chunks, make([]byte, 0, chunkBytes))
		k++
	}
	c := l.ctx.of(lane)
	dur := end - start
	b := binary.AppendUvarint(l.chunks[k], uint64(lane))
	b = binary.AppendVarint(b, start-c[0])
	b = binary.AppendVarint(b, dur-c[1])
	c[0], c[1] = end, dur
	for i, a := range attrs[:l.ctx.attrs] {
		b = binary.AppendVarint(b, a-c[2+i])
		c[2+i] = a
	}
	l.chunks[k] = b
}

// Each calls f on every kept record in append order. attrs is valid only
// during the call.
func (l *Packed) Each(f func(lane uint32, start, end int64, attrs []int64)) {
	ctx := contexts{attrs: l.ctx.attrs}
	d := make([]int64, 2+l.ctx.attrs) // the record's coded differences
	attrs := make([]int64, l.ctx.attrs)
	for _, b := range l.chunks {
		for p := 0; p < len(b); {
			lane, n := binary.Uvarint(b[p:])
			p += n
			for i := range d {
				// binary.Varint, inlined: the log holds only what
				// Append wrote, so no varint is malformed.
				var u uint64
				for s := uint(0); ; s += 7 {
					x := b[p]
					p++
					u |= uint64(x&0x7f) << s
					if x < 0x80 {
						break
					}
				}
				d[i] = int64(u>>1) ^ -int64(u&1)
			}
			c := ctx.of(uint32(lane))
			start := c[0] + d[0]
			c[1] += d[1]
			c[0] = start + c[1]
			for i := range attrs {
				c[2+i] += d[2+i]
				attrs[i] = c[2+i]
			}
			f(uint32(lane), start, c[0], attrs)
		}
	}
}
