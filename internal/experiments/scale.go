package experiments

import (
	"mpinet/internal/cluster"
	"mpinet/internal/microbench"
	"mpinet/internal/mpi"
	"mpinet/internal/report"
	"mpinet/internal/units"
)

// ExtScaleMemory extends Figure 13 past the testbed: per-rank library +
// device memory versus rank count on a 3-level radix-24 2:1 Clos, for all
// three interconnects plus the on-demand InfiniBand variant. The paper's
// ordering — VAPI's per-RC-connection cost dominating, GM moderate, Elan's
// global virtual memory nearly flat — is what should survive the extrapolation
// to thousand-rank worlds; on-demand InfiniBand stays flat because ring
// traffic only ever connects two peers.
func (r *Runner) ExtScaleMemory() report.Figure {
	r.logf("Ext H: per-rank memory at scale")
	f := report.Figure{ID: "Ext H", Title: "Memory per Rank on a 3-level Clos (ring traffic)",
		XLabel: "Ranks", YLabel: "Memory Usage (MB)"}
	counts := []int{64, 256}
	if !r.Quick {
		counts = []int{64, 256, 1024}
	}
	plats := []cluster.Platform{
		cluster.IBA(), cluster.IBA().With(cluster.OnDemand()),
		cluster.Myri(), cluster.QSN(),
	}
	for _, p := range plats {
		p = p.With(cluster.Clos(3, 24, 2))
		c := microbench.Curve{Label: p.Name}
		for _, n := range counts {
			w := mpi.MustWorld(mpi.Config{Net: p.New(n), Procs: n})
			if err := w.Run(func(rk *mpi.Rank) {
				buf := rk.Malloc(256)
				next := (rk.Rank() + 1) % rk.Size()
				prev := (rk.Rank() - 1 + rk.Size()) % rk.Size()
				rk.Sendrecv(buf, next, 0, buf, prev, 0)
			}); err != nil {
				panic(err)
			}
			c.X = append(c.X, int64(n))
			c.Y = append(c.Y, float64(w.EstablishedMemoryUsage(0))/float64(units.MB))
		}
		f.Curves = append(f.Curves, c)
	}
	f.Notes = "VAPI RC state grows per established connection; GM per-port state is smaller; Elan and on-demand IBA stay near-flat. Scale worlds account established peers (MODEL.md §18/§20), so ring traffic holds two connections' state per rank, not all-pairs"
	return f
}

// ExtIncast is the congestion-collapse scenario a multi-stage fabric makes
// possible: N senders spread across leaves all stream to one host, so the
// fan-in concentrates first on the spine down-links and then on the one
// destination port. Aggregate goodput versus sender count, per interconnect,
// plus adaptive up-link routing on InfiniBand — which cannot help, because
// the collapse is at the shared destination, not the up-links.
func (r *Runner) ExtIncast() report.Figure {
	r.logf("Ext I: incast on a 2:1 fat-tree")
	f := report.Figure{ID: "Ext I", Title: "Incast Goodput on a Fat-Tree (64 nodes, 256 KB flows)",
		XLabel: "Senders", YLabel: "Aggregate Goodput (MB/s)"}
	senders := []int{4, 16, 48}
	if !r.Quick {
		senders = []int{4, 8, 16, 32, 48, 63}
	}
	plats := []cluster.Platform{
		cluster.IBA(),
		cluster.IBA().With(cluster.WithRouting(cluster.Adaptive)),
		cluster.Myri(),
		cluster.QSN(),
	}
	for _, p := range plats {
		p = p.With(cluster.FatTree(24, 2))
		c := microbench.Curve{Label: p.Name}
		for _, n := range senders {
			c.X = append(c.X, int64(n))
			c.Y = append(c.Y, microbench.Incast(p, 64, n, 256<<10))
		}
		f.Curves = append(f.Curves, c)
	}
	f.Notes = "goodput saturates at the victim's link rate; past it, added senders only deepen queues — adaptive routing moves the congestion, it cannot remove it"
	return f
}
