package microbench

import (
	"mpinet/internal/cluster"
	"mpinet/internal/mpi"
	"mpinet/internal/units"
)

// Incast measures the hotspot pattern behind the paper's Alltoall analysis
// in isolation: ranks 1..senders of a world on a nodes-node network all
// stream size-byte messages to rank 0, which takes them in arrival order;
// the result is rank 0's aggregate receive rate in MB/s. The receiver's
// down-link (and, for small messages, its per-message processing) is the
// bottleneck — the congestion component of Figure 11. Senders are placed
// from node 1 up, so on a multi-stage fabric they cross leaf boundaries as
// their count grows.
func Incast(p cluster.Platform, nodes, senders int, size int64) float64 {
	const rounds = 4
	w := mpi.MustWorld(mpi.Config{Net: p.New(nodes), Procs: senders + 1})
	mustRun(w, func(r *mpi.Rank) {
		buf := r.Malloc(size)
		if r.Rank() == 0 {
			for i := 0; i < rounds*senders; i++ {
				r.Recv(buf, mpi.AnySource, 3)
			}
			return
		}
		for i := 0; i < rounds; i++ {
			r.Send(buf, 0, 3)
		}
	})
	return float64(rounds) * float64(senders) * float64(size) / float64(units.MB) / w.Elapsed().Seconds()
}
