package dev

import (
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
	"mpinet/internal/units"
)

// InstrumentPinCache registers snapshot-time probes over a pin-down cache's
// public statistics under nodeN/pin/.... Several caches on one node (one
// per endpoint) compose: counts and times sum. The cache itself is
// untouched — no hot-path cost at all.
func InstrumentPinCache(m *metrics.Registry, node int, pc *memreg.PinCache) {
	if m == nil || pc == nil {
		return
	}
	prefix := metrics.NodePrefix(node) + "pin"
	m.ProbeCount(prefix+"/hits", func() int64 { return pc.Hits })
	m.ProbeCount(prefix+"/misses", func() int64 { return pc.Misses })
	m.ProbeCount(prefix+"/evictions", func() int64 { return pc.Evictions })
	m.ProbeTime(prefix+"/reg_time", func() units.Time { return pc.RegTime })
}
