package mpinet

// Ablation benchmarks for the design choices DESIGN.md calls out: protocol
// switch points, registration caching, the hardware-collective and
// connection-management extensions, and the Tports match-walk mechanism.
// Each reports the quantity the choice trades off as custom metrics.

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/microbench"
	"mpinet/internal/mpi"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// BenchmarkAblationEagerThreshold sweeps MVAPICH's eager/rendezvous switch
// point and reports 8 KB message latency under each: the cost of the
// rendezvous handshake, and why the Figure 2 dip sits where it does.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, thr := range []int64{units.KB, 2 * units.KB, 16 * units.KB, 64 * units.KB} {
			p := cluster.IBA().With(cluster.EagerThreshold(thr))
			lat := microbench.Latency(p, []int64{8 * units.KB}).Y[0]
			b.ReportMetric(lat, "us-thr"+units.SizeString(thr))
		}
	}
}

// BenchmarkAblationHWMulticast compares broadcast cost with and without the
// switch-multicast extension across node counts.
func BenchmarkAblationHWMulticast(b *testing.B) {
	measure := func(p cluster.Platform, nodes int) float64 {
		w := mpi.MustWorld(mpi.Config{Net: p.New(nodes), Procs: nodes})
		var per sim.Time
		if err := w.Run(func(r *mpi.Rank) {
			buf := r.Malloc(1024)
			r.Bcast(buf, 0)
			r.Barrier()
			start := r.Wtime()
			for i := 0; i < 8; i++ {
				r.Bcast(buf, 0)
			}
			if r.Rank() == 0 {
				per = (r.Wtime() - start) / 8
			}
		}); err != nil {
			b.Fatal(err)
		}
		return per.Micros()
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(measure(cluster.IBA(), 8), "tree-8n-us")
		b.ReportMetric(measure(cluster.IBA().With(cluster.Multicast()), 8), "mcast-8n-us")
	}
}

// BenchmarkAblationOnDemandConnections reports the memory footprint of a
// nearest-neighbor application under static vs on-demand connection
// management — the fix the paper suggests for Figure 13.
func BenchmarkAblationOnDemandConnections(b *testing.B) {
	measure := func(p cluster.Platform) float64 {
		w := mpi.MustWorld(mpi.Config{Net: p.New(8), Procs: 8})
		if err := w.Run(func(r *mpi.Rank) {
			buf := r.Malloc(256)
			next := (r.Rank() + 1) % r.Size()
			prev := (r.Rank() - 1 + r.Size()) % r.Size()
			r.Sendrecv(buf, next, 0, buf, prev, 0)
		}); err != nil {
			b.Fatal(err)
		}
		return float64(w.MemoryUsage(0)) / float64(units.MB)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(measure(cluster.IBA()), "static-MB")
		b.ReportMetric(measure(cluster.IBA().With(cluster.OnDemand())), "ondemand-MB")
	}
}

// BenchmarkAblationBufferReuse quantifies the pin-down cache's value: 16 KB
// rendezvous latency with full reuse (warm cache) versus none.
func BenchmarkAblationBufferReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		warm := microbench.ReuseLatency(cluster.IBA(), []int64{16 * units.KB}, 100).Y[0]
		cold := microbench.ReuseLatency(cluster.IBA(), []int64{16 * units.KB}, 0).Y[0]
		b.ReportMetric(warm, "warm-us")
		b.ReportMetric(cold, "cold-us")
		b.ReportMetric(cold/warm, "x")
	}
}

// BenchmarkAblationLogP extracts the LogGP characterization of each fabric
// — the model-level summary of every per-network design difference.
func BenchmarkAblationLogP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range cluster.OSU() {
			lp := microbench.LogP(p)
			b.ReportMetric(lp.L, p.Name+"-L-us")
		}
	}
}
