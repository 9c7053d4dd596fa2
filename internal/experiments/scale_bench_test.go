package experiments

import (
	"runtime"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/mpi"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// BenchmarkScaleWorld runs a 1024-rank world on the 3-level Clos with the
// neighbor-exchange pattern that dominates the NAS kernels, and reports the
// two numbers the scale-out work is judged on: event throughput with node
// domains active, and per-rank endpoint memory. It also stamps the
// simulator's own footprint — peak live heap across build+run, read with
// runtime.ReadMemStats after each iteration — so a regression that trades
// model memory for host memory is visible in the same record.
// scripts/bench.sh -engine stamps all of it into BENCH_engine.json; CI's
// scale-smoke job runs a shorter variant. Sub-benchmarks cover the three
// interconnects so the per-rank bytes record the paper's Figure 13 ordering
// at 1k ranks.
func BenchmarkScaleWorld(b *testing.B) {
	const ranks = 1024
	for _, plat := range []cluster.Platform{cluster.IBA(), cluster.Myri(), cluster.QSN()} {
		p := plat.With(cluster.Clos(3, 24, 2))
		b.Run(plat.Name, func(b *testing.B) {
			var perRank int64
			var peakHeap uint64
			var ms runtime.MemStats
			start := sim.TotalDispatched()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				w := mpi.MustWorld(mpi.Config{Net: p.New(ranks), Procs: ranks})
				if err := w.Run(func(r *mpi.Rank) {
					me, sz := r.Rank(), r.Size()
					buf, in := r.Malloc(8<<10), r.Malloc(8<<10)
					for i := 0; i < 4; i++ {
						r.Sendrecv(buf, (me+1)%sz, 1, in, (me-1+sz)%sz, 1)
					}
					r.Allreduce(r.Malloc(8))
				}); err != nil {
					b.Fatal(err)
				}
				perRank = w.EstablishedMemoryUsage(0)
				// Live heap with the world still reachable: build + run
				// footprint, before the iteration's world is collected.
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peakHeap {
					peakHeap = ms.HeapAlloc
				}
			}
			b.StopTimer()
			events := sim.TotalDispatched() - start
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(events)/secs, "events/s")
			}
			b.ReportMetric(float64(perRank), "bytes/rank")
			b.ReportMetric(float64(perRank)/float64(units.MB), "MB/rank")
			b.ReportMetric(float64(peakHeap), "heap-bytes")
		})
	}
}
