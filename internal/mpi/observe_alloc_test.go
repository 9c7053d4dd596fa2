package mpi

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
)

// TestBindMetricsNilAllocFree: an unobserved rank builds none of its metric
// names or handles.
func TestBindMetricsNilAllocFree(t *testing.T) {
	ps := &procState{rank: 700, node: 350}
	if allocs := testing.AllocsPerRun(100, func() { ps.bindMetrics(nil) }); allocs != 0 {
		t.Fatalf("bindMetrics(nil) allocates %.0f times, want 0", allocs)
	}
	if ps.met != nil || ps.unexpHW != nil || ps.sendSpans != nil {
		t.Fatalf("bindMetrics(nil) bound a handle")
	}
}

// TestObservedWorldBuildAllocs bounds the allocations of building a 64-rank
// Clos world with metrics and a message recorder wired in. Each bound is
// the count measured when metrics registration became append-only, plus
// under 10%: IBA 4,561, Myri 4,946, QSN 5,010, against 9,161, 9,736 and
// 10,057 before, when every metric name was a map key and every station
// registered one closure per metric.
func TestObservedWorldBuildAllocs(t *testing.T) {
	const ranks = 64
	bound := map[string]float64{"IBA": 5000, "Myri": 5400, "QSN": 5500}
	for _, p := range cluster.OSU() {
		plat := p.With(cluster.Clos(3, 24, 2))
		build := func(observed bool) float64 {
			return testing.AllocsPerRun(3, func() {
				cfg := Config{Net: plat.New(ranks), Procs: ranks}
				if observed {
					cfg.Metrics = metrics.New()
					cfg.MsgTrace = msgtrace.New(16)
				}
				if _, err := NewWorld(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		bare, observed := build(false), build(true)
		t.Logf("%s: %.0f allocations bare, %.0f observed", p.Name, bare, observed)
		if observed > bound[p.Name] {
			t.Errorf("%s: building the observed world allocates %.0f times, want <= %.0f", p.Name, observed, bound[p.Name])
		}
	}
}
