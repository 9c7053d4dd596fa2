package experiments

import (
	"fmt"
	"io"
	"slices"

	"mpinet/internal/cluster"
	"mpinet/internal/lowlevel"
	"mpinet/internal/microbench"
	"mpinet/internal/mpi"
	"mpinet/internal/report"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// ExtMemory extends Figure 13 with the on-demand connection-management
// variant: memory versus node count for a nearest-neighbor application,
// static versus on-demand.
func (r *Runner) ExtMemory() report.Figure {
	r.logf("Ext A: on-demand connection memory")
	f := report.Figure{ID: "Ext A", Title: "Memory Usage with On-Demand Connections (ring traffic)",
		XLabel: "Nodes", YLabel: "Memory Usage (MB)"}
	counts := []int{2, 4, 8}
	if !r.Quick {
		counts = []int{2, 3, 4, 5, 6, 7, 8}
	}
	for _, p := range []cluster.Platform{cluster.IBA(), cluster.IBA().With(cluster.OnDemand())} {
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
			c.Y = append(c.Y, float64(w.MemoryUsage(0))/float64(units.MB))
		}
		f.Curves = append(f.Curves, c)
	}
	f.Notes = "static RC pre-connects all peers; on-demand pays only for the two ring neighbors"
	return f
}

// ExtBcast extends Figure 12's theme with the hardware-multicast broadcast:
// 1 KB Bcast time versus node count, binomial tree versus switch multicast.
func (r *Runner) ExtBcast() report.Figure {
	r.logf("Ext B: hardware-multicast broadcast")
	f := report.Figure{ID: "Ext B", Title: "MPI_Bcast 1KB: binomial tree vs switch multicast",
		XLabel: "Nodes", YLabel: "Time (us)"}
	counts := []int{2, 4, 8}
	for _, p := range []cluster.Platform{cluster.IBA(), cluster.IBA().With(cluster.Multicast())} {
		label := "tree"
		if p.Name == "IBA-MC" {
			label = "multicast"
		}
		c := microbench.Curve{Label: label}
		for _, n := range counts {
			c.X = append(c.X, int64(n))
			c.Y = append(c.Y, bcastTime(p, n).Micros())
		}
		f.Curves = append(f.Curves, c)
	}
	f.Notes = "the tree costs log2(N) serialized hops; multicast one injection"
	return f
}

func bcastTime(p cluster.Platform, nodes int) sim.Time {
	w := mpi.MustWorld(mpi.Config{Net: p.New(nodes), Procs: nodes})
	// One slot per rank, written only by that rank.
	per := make([]sim.Time, nodes)
	if err := w.Run(func(rk *mpi.Rank) {
		buf := rk.Malloc(1024)
		rk.Bcast(buf, 0)
		rk.Barrier()
		start := rk.Wtime()
		for i := 0; i < 8; i++ {
			rk.Bcast(buf, 0)
		}
		rk.Barrier()
		per[rk.Rank()] = (rk.Wtime() - start) / 8
	}); err != nil {
		panic(err)
	}
	return slices.Max(per)
}

// ExtLogP renders the LogGP characterization table for the three fabrics.
func (r *Runner) ExtLogP() report.Table {
	r.logf("Ext C: LogGP parameters")
	t := report.Table{ID: "Ext C", Title: "LogGP Parameters (Culler et al. model)",
		Header: []string{"Net", "L (us)", "os (us)", "or (us)", "G (us/KB)", "1/G (MB/s)"}}
	for _, p := range cluster.OSU() {
		lp := microbench.LogP(p)
		t.Rows = append(t.Rows, []string{p.Name,
			fmt.Sprintf("%.2f", lp.L), fmt.Sprintf("%.2f", lp.Os),
			fmt.Sprintf("%.2f", lp.Or), fmt.Sprintf("%.4f", lp.G),
			fmt.Sprintf("%.0f", lp.Gm)})
	}
	return t
}

// ExtLowLevel renders the below-MPI comparison: what each MPI
// implementation adds over its messaging layer.
func (r *Runner) ExtLowLevel() report.Table {
	r.logf("Ext D: below-MPI layers")
	t := report.Table{ID: "Ext D", Title: "Messaging Layer vs MPI (protocol cost isolation)",
		Header: []string{"Net", "raw lat us", "MPI lat us", "gap us", "raw bw MB/s", "MPI bw MB/s"}}
	for _, p := range cluster.OSU() {
		rawLat := lowlevel.Latency(p, 8).Micros()
		mpiLat := microbench.Latency(p, []int64{8}).Y[0]
		rawBW := lowlevel.Bandwidth(p, 512*units.KB, 8)
		mpiBW := microbench.Bandwidth(p, []int64{512 * units.KB}, 16).Y[0]
		t.Rows = append(t.Rows, []string{p.Name,
			fmt.Sprintf("%.2f", rawLat), fmt.Sprintf("%.2f", mpiLat),
			fmt.Sprintf("%.2f", mpiLat-rawLat),
			fmt.Sprintf("%.0f", rawBW), fmt.Sprintf("%.0f", mpiBW)})
	}
	t.Notes = "the lat gap is each MPI's protocol cost; Quadrics' is largest (host-heavy Tports library)"
	return t
}

// ExtFatTree renders the fat-tree scale-out table (class B NAS kernels at
// 16-64 processes on the folded-Clos extension).
func (r *Runner) ExtFatTree() report.Table {
	r.logf("Ext E: fat-tree scale-out")
	t := report.Table{ID: "Ext E", Title: "InfiniBand Fat-Tree Scale-Out (class " + r.class().String() + ", s)",
		Header: []string{"App", "16", "32", "64"}}
	counts := []int{16, 32, 64}
	apps := []string{"IS", "CG", "MG", "FT"}
	if r.Quick {
		apps = []string{"IS", "MG"}
	}
	for _, name := range apps {
		row := []string{name}
		for _, procs := range counts {
			res := r.app(name, cluster.IBAFatTree(procs), procs, 1)
			row = append(row, fmt.Sprintf("%.2f", res.Elapsed.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "two-level folded Clos from 24-port elements, 2:1 oversubscribed, deterministic ECMP"
	return t
}

// RunExtensions writes the extension experiments (beyond the paper's
// evaluation) to w, fanning them out over r.Jobs workers.
func (r *Runner) RunExtensions(w io.Writer) {
	r.runTasks(w, []suiteTask{
		figTask(r.ExtMemory),
		figTask(r.ExtBcast),
		tabTask(r.ExtLogP),
		tabTask(r.ExtLowLevel),
		tabTask(r.ExtFatTree),
		figTask(r.ExtFaults),
		figTask(r.ExtRailLatency),
		figTask(r.ExtRailBandwidth),
		figTask(r.ExtScaleMemory),
		figTask(r.ExtIncast),
		figTask(r.ExtSpineFailures),
	})
}
