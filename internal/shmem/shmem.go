// Package shmem models the intra-node shared-memory channel used between
// MPI ranks on the same SMP node.
//
// A message crosses through a shared segment with two memcpys: the sender
// copies in, the receiver copies out. Copy bandwidth depends on the working
// set: copies whose footprint stays within the Xeon's L2 cache run at cache
// speed; larger ones thrash and fall to memory speed. That single mechanism
// produces Figure 10's shape — shared-memory bandwidth collapsing for large
// messages — and, combined with MVAPICH's switch to NIC loopback at 16 KB,
// InfiniBand's flat 450+ MB/s tail.
package shmem

import (
	"mpinet/internal/metrics"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Config calibrates one host's memory system for intra-node copies.
type Config struct {
	// Handshake is the fixed per-message cost of the channel (flag write,
	// flag poll, queue management), split across sender and receiver.
	Handshake sim.Time
	// CacheBW is the memcpy bandwidth while the footprint fits in cache.
	CacheBW units.BytesPerSecond
	// MemBW is the memcpy bandwidth once copies thrash the cache.
	MemBW units.BytesPerSecond
	// CacheSize is the footprint (bytes copied per message) beyond which
	// thrashing begins; the transition is blended, not a step.
	CacheSize int64
	// SegmentSize is the per-peer shared segment, counted in MemoryUsage.
	SegmentSize int64
}

// DefaultConfig models the paper's dual 2.4 GHz Xeon nodes (512 KB L2).
func DefaultConfig() Config {
	return Config{
		Handshake:   600 * units.Nanosecond,
		CacheBW:     units.MBps(1600),
		MemBW:       units.MBps(260),
		CacheSize:   256 * units.KB,
		SegmentSize: units.MB,
	}
}

// Channel is the shared-memory transport of one node. Ranks on the node
// share it; the copy engine is per-process (each rank's own CPU does its
// copies), so only message handoff serializes.
type Channel struct {
	eng *sim.Engine
	cfg Config

	// accounting, reported when Instrument registers the channel
	msgs      int64
	copies    int64
	copyBytes int64
	copyTime  sim.Time
}

// Instrument registers the channel as a metrics source under
// nodeN/shmem/: its message count, memcpy count, copied bytes and copy
// time. The MPI layer reports each memcpy it charges via CountCopy.
func (c *Channel) Instrument(m *metrics.Registry, node int) {
	if m == nil {
		return
	}
	m.AddSource(metrics.NodePrefix(node)+"shmem/", c)
}

// Report implements metrics.Source.
func (c *Channel) Report(e *metrics.Emitter) {
	e.Count("msgs", c.msgs)
	e.Count("copies", c.copies)
	e.Count("copy_bytes", c.copyBytes)
	e.Time("copy_time", c.copyTime)
}

// CountCopy records one memcpy of n bytes taking d of host time. Callers
// invoke it unconditionally.
func (c *Channel) CountCopy(n int64, d sim.Time) {
	c.copies++
	c.copyBytes += n
	c.copyTime += d
}

// New builds a node-local channel.
func New(eng *sim.Engine, cfg Config) *Channel {
	return &Channel{eng: eng, cfg: cfg}
}

// CopyTime returns the host time for one memcpy of n bytes, with the cache
// model applied.
func (c *Channel) CopyTime(n int64) sim.Time {
	if n <= 0 {
		return 0
	}
	if n <= c.cfg.CacheSize {
		return c.cfg.CacheBW.TimeFor(n)
	}
	// The first CacheSize bytes behave cached, the rest at memory speed;
	// this blends the knee the way measured curves do.
	t := c.cfg.CacheBW.TimeFor(c.cfg.CacheSize)
	t += c.cfg.MemBW.TimeFor(n - c.cfg.CacheSize)
	return t
}

// HalfHandshake is each side's share of the fixed per-message cost.
func (c *Channel) HalfHandshake() sim.Time { return c.cfg.Handshake / 2 }

// SegmentSize reports the shared segment size per peer pair.
func (c *Channel) SegmentSize() int64 { return c.cfg.SegmentSize }

// Deliver schedules the receiver-visible arrival of a message whose
// sender-side copy completed at time now: the data is visible one handshake
// later. (The receiver's copy-out cost is charged by the MPI layer when the
// receiver drains it, using CopyTime.)
func (c *Channel) Deliver(deliver func()) {
	c.msgs++
	c.eng.Schedule(c.HalfHandshake(), deliver)
}
