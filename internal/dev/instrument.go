package dev

import (
	"mpinet/internal/memreg"
	"mpinet/internal/metrics"
)

// InstrumentPinCache registers a pin-down cache's public statistics as a
// metrics source under nodeN/pin/. Several caches on one node (one per
// endpoint) compose: counts and times sum. The cache itself is untouched —
// no hot-path cost at all.
func InstrumentPinCache(m *metrics.Registry, node int, pc *memreg.PinCache) {
	if m == nil || pc == nil {
		return
	}
	m.AddSource(metrics.NodePrefix(node)+"pin/", (*pinSource)(pc))
}

// pinSource reports a pin-down cache's statistics at snapshot time.
type pinSource memreg.PinCache

// Report implements metrics.Source.
func (pc *pinSource) Report(e *metrics.Emitter) {
	e.Count("hits", pc.Hits)
	e.Count("misses", pc.Misses)
	e.Count("evictions", pc.Evictions)
	e.Time("reg_time", pc.RegTime)
}
