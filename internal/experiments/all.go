package experiments

import (
	"fmt"
	"io"

	"mpinet/internal/cluster"
	"mpinet/internal/microbench"
	"mpinet/internal/report"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// RunMicro writes every micro-benchmark figure (1-13, 26, 27) to w, fanning
// the figures out over r.Jobs workers with output committed in figure order.
func (r *Runner) RunMicro(w io.Writer) {
	r.runTasks(w, []suiteTask{
		figTask(r.Fig1), figTask(r.Fig2),
		figTask(r.Fig3), figTask(r.Fig4),
		figTask(r.Fig5), figTask(r.Fig6),
		figTask(r.Fig7), figTask(r.Fig8),
		figTask(r.Fig9), figTask(r.Fig10),
		figTask(r.Fig11), figTask(r.Fig12),
		figTask(r.Fig13), figTask(r.Fig26),
		figTask(r.Fig27),
	})
}

// RunApps writes every application figure and table (Figures 14-25, 28;
// Tables 1-6) to w, fanning them out over r.Jobs workers. The singleflight
// application cache keeps configurations shared between tables from running
// twice even when the tables run concurrently.
func (r *Runner) RunApps(w io.Writer) {
	tasks := []suiteTask{
		tabTask(r.Figs14to17),
		tabTask(r.Tab1), tabTask(r.Tab2),
		tabTask(r.Tab3), tabTask(r.Tab4),
		tabTask(r.Tab5), tabTask(r.Tab6),
	}
	for _, name := range speedupApps {
		name := name
		tasks = append(tasks, figTask(func() report.Figure {
			return r.speedupFig(name)
		}))
	}
	tasks = append(tasks,
		tabTask(r.Fig24),
		tabTask(r.Fig25),
		tabTask(r.Fig28),
	)
	r.runTasks(w, tasks)
}

// MicroComparisons measures the paper's quoted micro-benchmark anchors and
// pairs them with the published values. Anchor groups run concurrently;
// the returned order is fixed.
func (r *Runner) MicroComparisons() []report.Comparison {
	r.logf("micro anchors")
	one := func(name, net string, paper, sim float64, unit string) []report.Comparison {
		return []report.Comparison{{
			Name: fmt.Sprintf("%s %s", name, net), Paper: paper, Sim: sim, Unit: unit}}
	}
	var groups []func() []report.Comparison
	for _, p := range cluster.OSU() {
		p := p
		groups = append(groups, func() []report.Comparison {
			return one("latency 4B", p.Name, report.PaperMicro["latency_4B_us"][p.Name],
				microbench.Latency(p, []int64{4}).Y[0], "us")
		})
	}
	for _, p := range cluster.OSU() {
		p := p
		groups = append(groups, func() []report.Comparison {
			return one("peak bandwidth", p.Name, report.PaperMicro["peak_bw_MBs"][p.Name],
				microbench.Bandwidth(p, []int64{512 * units.KB}, 16).Y[0], "MB/s")
		})
	}
	for _, p := range cluster.OSU() {
		p := p
		groups = append(groups, func() []report.Comparison {
			return one("host overhead", p.Name, report.PaperMicro["overhead_us"][p.Name],
				microbench.HostOverhead(p, []int64{4}).Y[0], "us")
		})
	}
	for _, p := range cluster.OSU() {
		p := p
		groups = append(groups, func() []report.Comparison {
			return one("bi-dir latency 4B", p.Name, report.PaperMicro["bidir_latency_us"][p.Name],
				microbench.BiLatency(p, []int64{4}).Y[0], "us")
		})
	}
	for _, p := range cluster.OSU() {
		p := p
		groups = append(groups, func() []report.Comparison {
			size := int64(256 * units.KB)
			if p.Name == "Myri" {
				size = 64 * units.KB // the Myrinet peak sits below the SRAM collapse
			}
			return one("bi-dir bandwidth", p.Name, report.PaperMicro["bidir_bw_MBs"][p.Name],
				microbench.BiBandwidth(p, []int64{size}).Y[0], "MB/s")
		})
	}
	for _, p := range []cluster.Platform{cluster.IBA(), cluster.Myri()} {
		p := p
		groups = append(groups, func() []report.Comparison {
			return one("intra-node latency", p.Name, report.PaperMicro["intra_latency_us"][p.Name],
				microbench.IntraLatency(p, []int64{4}).Y[0], "us")
		})
	}
	for _, p := range cluster.OSU() {
		p := p
		groups = append(groups, func() []report.Comparison {
			return one("alltoall 4B 8n", p.Name, report.PaperMicro["alltoall_small_us"][p.Name],
				microbench.Alltoall(p, 8, []int64{4}).Y[0], "us")
		})
	}
	for _, p := range cluster.OSU() {
		p := p
		groups = append(groups, func() []report.Comparison {
			return one("allreduce 4B 8n", p.Name, report.PaperMicro["allreduce_small_us"][p.Name],
				microbench.Allreduce(p, 8, []int64{4}).Y[0], "us")
		})
	}
	groups = append(groups, func() []report.Comparison {
		return one("peak bandwidth", "IBA-PCI", report.PaperMicro["iba_pci_bw_MBs"]["IBA-PCI"],
			microbench.Bandwidth(cluster.IBA().With(cluster.PCIBus()), []int64{512 * units.KB}, 16).Y[0], "MB/s")
	})
	return r.gatherComparisons(groups)
}

// Table2Comparisons pairs simulated class B times with the paper's Table 2,
// fanning the (application, network) cells out over r.Jobs workers.
func (r *Runner) Table2Comparisons() []report.Comparison {
	var groups []func() []report.Comparison
	for _, name := range []string{"IS", "CG", "MG", "LU", "FT", "S3D-50", "S3D-150"} {
		for _, p := range cluster.OSU() {
			name, p := name, p
			groups = append(groups, func() []report.Comparison {
				var comps []report.Comparison
				for i, procs := range report.Table2Procs {
					paper := report.PaperTable2[name][p.Name][i]
					if paper == 0 {
						continue
					}
					res := r.app(name, p, procs, 1)
					comps = append(comps, report.Comparison{
						Name:  fmt.Sprintf("%s %s %dn", name, p.Name, procs),
						Paper: paper, Sim: res.Elapsed.Seconds(), Unit: "s",
					})
				}
				return comps
			})
		}
	}
	return r.gatherComparisons(groups)
}

// Table1Comparisons pairs simulated per-rank size histograms with Table 1,
// one worker task per application.
func (r *Runner) Table1Comparisons() []report.Comparison {
	var groups []func() []report.Comparison
	for _, name := range report.AppOrder {
		name := name
		groups = append(groups, func() []report.Comparison {
			var comps []report.Comparison
			res := r.app(name, cluster.IBA(), appProcs(name), 1)
			h := res.PerRank.SizeHist
			paper := report.PaperTable1[name]
			for cls := trace.Below2K; cls < trace.NumSizeClasses; cls++ {
				if paper[cls] == 0 && h[cls] == 0 {
					continue
				}
				comps = append(comps, report.Comparison{
					Name:  fmt.Sprintf("%s %s", name, cls),
					Paper: float64(paper[cls]), Sim: float64(h[cls]), Unit: "calls",
				})
			}
			return comps
		})
	}
	return r.gatherComparisons(groups)
}
