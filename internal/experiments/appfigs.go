package experiments

import (
	"fmt"

	"mpinet/internal/cluster"
	"mpinet/internal/microbench"
	"mpinet/internal/parallel"
	"mpinet/internal/report"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// appProcs returns the node count an application is reported on in Figures
// 14-17 (8 nodes; SP and BT need a square count and get 4).
func appProcs(name string) int {
	if name == "SP" || name == "BT" {
		return 4
	}
	return 8
}

// Figs14to17 regenerates Figures 14-17: class B execution times on the
// 8-node cluster (SP/BT on 4), all three networks.
func (r *Runner) Figs14to17() report.Table {
	r.logf("Figs 14-17: application times")
	t := report.Table{ID: "Figs 14-17", Title: "Application Execution Time, class " + r.class().String(),
		Header: []string{"App", "Nodes", "IBA (s)", "Myri (s)", "QSN (s)"},
		Notes:  "Figure 14: IS, MG; Figure 15: SP, BT, LU; Figure 16: CG, FT; Figure 17: sweep3D"}
	for _, name := range report.AppOrder {
		procs := appProcs(name)
		row := []string{name, fmt.Sprint(procs)}
		for _, p := range cluster.OSU() {
			res := r.app(name, p, procs, 1)
			row = append(row, fmt.Sprintf("%.2f", res.Elapsed.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Tab1 regenerates Table 1: the per-process message-size distribution.
func (r *Runner) Tab1() report.Table {
	r.logf("Table 1: message size distribution")
	t := report.Table{ID: "Table 1", Title: "Message Size Distribution (calls per process)",
		Header: []string{"App", "<2K", "2K-16K", "16K-1M", ">1M"}}
	for _, name := range report.AppOrder {
		res := r.app(name, cluster.IBA(), appProcs(name), 1)
		h := res.PerRank.SizeHist
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprint(h[trace.Below2K]), fmt.Sprint(h[trace.To16K]),
			fmt.Sprint(h[trace.To1M]), fmt.Sprint(h[trace.Above1M])})
	}
	return t
}

// Tab2 regenerates Table 2: scalability with system size for the three
// networks.
func (r *Runner) Tab2() report.Table {
	r.logf("Table 2: scalability")
	t := report.Table{ID: "Table 2", Title: "Scalability with System Sizes (execution time, s)",
		Header: []string{"App", "IBA 2", "IBA 4", "IBA 8", "Myri 2", "Myri 4", "Myri 8", "QSN 2", "QSN 4", "QSN 8"}}
	for _, name := range []string{"IS", "CG", "MG", "LU", "FT", "S3D-50", "S3D-150"} {
		row := []string{name}
		for _, p := range cluster.OSU() {
			for _, procs := range report.Table2Procs {
				if name == "FT" && procs == 2 {
					row = append(row, "-")
					continue
				}
				res := r.app(name, p, procs, 1)
				row = append(row, fmt.Sprintf("%.2f", res.Elapsed.Seconds()))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Tab3 regenerates Table 3: non-blocking MPI call statistics.
func (r *Runner) Tab3() report.Table {
	r.logf("Table 3: non-blocking calls")
	t := report.Table{ID: "Table 3", Title: "Non-Blocking MPI Calls (per process)",
		Header: []string{"App", "#Isend", "Avg Size", "#Irecv", "Avg Size"}}
	for _, name := range report.AppOrder {
		res := r.app(name, cluster.IBA(), appProcs(name), 1)
		pr := res.PerRank
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprint(pr.IsendCalls), fmt.Sprint(pr.AvgIsendSize()),
			fmt.Sprint(pr.IrecvCalls), fmt.Sprint(pr.AvgIrecvSize())})
	}
	return t
}

// Tab4 regenerates Table 4: buffer-reuse rates.
func (r *Runner) Tab4() report.Table {
	r.logf("Table 4: buffer reuse")
	t := report.Table{ID: "Table 4", Title: "Buffer Reuse Rate",
		Header: []string{"App", "% Reuse", "Wt % Reuse"}}
	for _, name := range report.AppOrder {
		res := r.app(name, cluster.IBA(), appProcs(name), 1)
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.2f", res.PerRank.ReuseRate()*100),
			fmt.Sprintf("%.2f", res.PerRank.WeightedReuseRate()*100)})
	}
	return t
}

// Tab5 regenerates Table 5: collective-call statistics.
func (r *Runner) Tab5() report.Table {
	r.logf("Table 5: collectives")
	t := report.Table{ID: "Table 5", Title: "MPI Collective Calls (per process)",
		Header: []string{"App", "#calls", "% calls", "% Volume"}}
	for _, name := range report.AppOrder {
		res := r.app(name, cluster.IBA(), appProcs(name), 1)
		pr := res.PerRank
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprint(pr.CollCalls),
			fmt.Sprintf("%.2f", pr.CollectiveCallShare()*100),
			fmt.Sprintf("%.2f", pr.CollectiveVolumeShare()*100)})
	}
	return t
}

// Tab6 regenerates Table 6: intra-node point-to-point statistics for 16
// processes on 8 nodes, block mapping.
func (r *Runner) Tab6() report.Table {
	r.logf("Table 6: intra-node communication")
	t := report.Table{ID: "Table 6", Title: "Intra-Node Point-to-Point Communication (16 procs / 8 nodes, block)",
		Header: []string{"App", "#calls", "% calls", "% Volume"}}
	for _, name := range report.AppOrder {
		res := r.app(name, cluster.IBA(), 16, 2)
		ag := res.Profile
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprint(ag.IntraCalls),
			fmt.Sprintf("%.2f", ag.IntraNodeCallShare()*100),
			fmt.Sprintf("%.2f", ag.IntraNodeVolumeShare()*100)})
	}
	return t
}

// speedupApps lists the applications of Figures 18-23 in figure order, and
// speedupIDs maps each to its figure ID.
var (
	speedupApps = []string{"IS", "CG", "MG", "LU", "S3D-50", "S3D-150"}
	speedupIDs  = map[string]string{
		"IS": "Fig 18", "CG": "Fig 19", "MG": "Fig 20",
		"LU": "Fig 21", "S3D-50": "Fig 22", "S3D-150": "Fig 23",
	}
)

// speedupFig regenerates one of Figures 18-23: an application's speedup on
// 2/4/8 nodes, all three networks, 2-node base.
func (r *Runner) speedupFig(name string) report.Figure {
	r.logf("%s: speedup of %s", speedupIDs[name], name)
	f := report.Figure{ID: speedupIDs[name], Title: "Speedup of " + name,
		XLabel: "Nodes", YLabel: "Speedup"}
	for _, p := range cluster.OSU() {
		var times []float64
		for _, procs := range report.Table2Procs {
			times = append(times, r.app(name, p, procs, 1).Elapsed.Seconds())
		}
		c := report.Speedup(report.Table2Procs[:], times)
		c.Label = p.Name
		f.Curves = append(f.Curves, c)
	}
	ideal := microbench.Curve{Label: "Ideal"}
	for _, procs := range report.Table2Procs {
		ideal.X = append(ideal.X, int64(procs))
		ideal.Y = append(ideal.Y, float64(procs))
	}
	f.Curves = append(f.Curves, ideal)
	return f
}

// Figs18to23 regenerates Figures 18-23 as a slice, fanning the six
// applications out over r.Jobs workers.
func (r *Runner) Figs18to23() []report.Figure {
	figs := make([]report.Figure, len(speedupApps))
	parallel.ForEach(r.Jobs, len(speedupApps), func(i int) {
		figs[i] = r.speedupFig(speedupApps[i])
	})
	return figs
}

// Fig24 regenerates Figure 24: InfiniBand scalability on the 16-node
// Topspin cluster.
func (r *Runner) Fig24() report.Table {
	r.logf("Fig 24: Topspin 16-node scalability")
	t := report.Table{ID: "Fig 24", Title: "Scalability on the 16-Node Topspin InfiniBand Cluster (s)",
		Header: []string{"App", "2", "4", "8", "16"},
		Notes:  "SP and BT need square process counts; shown at 4 and 16"}
	for _, name := range report.AppOrder {
		row := []string{name}
		for _, procs := range []int{2, 4, 8, 16} {
			ok := procs >= 2
			if name == "SP" || name == "BT" {
				ok = procs == 4 || procs == 16
			}
			if name == "FT" && procs == 2 {
				ok = false
			}
			if !ok {
				row = append(row, "-")
				continue
			}
			res := r.app(name, cluster.Topspin(), procs, 1)
			row = append(row, fmt.Sprintf("%.2f", res.Elapsed.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig25 regenerates Figure 25: SMP performance, 16 processes on 8 nodes
// with block mapping, all three networks.
func (r *Runner) Fig25() report.Table {
	r.logf("Fig 25: SMP performance")
	t := report.Table{ID: "Fig 25", Title: "SMP Performance (16 processes on 8 nodes, block mapping; s)",
		Header: []string{"App", "IBA", "Myri", "QSN"}}
	for _, name := range report.AppOrder {
		row := []string{name}
		for _, p := range cluster.OSU() {
			res := r.app(name, p, 16, 2)
			row = append(row, fmt.Sprintf("%.2f", res.Elapsed.Seconds()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig28 regenerates Figure 28: NAS performance of InfiniBand on PCI vs
// PCI-X.
func (r *Runner) Fig28() report.Table {
	r.logf("Fig 28: IBA apps PCI vs PCI-X")
	t := report.Table{ID: "Fig 28", Title: "MPI over InfiniBand Application Performance (PCI vs PCI-X; s)",
		Header: []string{"App", "PCI-X", "PCI", "Degradation %"}}
	for _, name := range []string{"IS", "CG", "MG", "LU", "FT", "SP", "BT"} {
		procs := appProcs(name)
		x := r.app(name, cluster.IBA(), procs, 1).Elapsed.Seconds()
		pci := r.app(name, cluster.IBA().With(cluster.PCIBus()), procs, 1).Elapsed.Seconds()
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.2f", x), fmt.Sprintf("%.2f", pci),
			fmt.Sprintf("%.1f", (pci-x)/x*100)})
	}
	return t
}

// Sizes1K is a convenience export for the small-message sweeps used by
// external callers.
var Sizes1K = []int64{4, 16, 64, 256, units.KB, 4 * units.KB}
