// Package experiments maps every figure and table of the paper's evaluation
// to a function that regenerates it on the simulated testbeds. It is the
// engine behind cmd/mpibench (micro-benchmarks), cmd/nasbench
// (applications) and cmd/paperrepro (everything, plus the paper-vs-
// simulated record in EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"sync"

	"mpinet/internal/apps"
	"mpinet/internal/cluster"
	"mpinet/internal/microbench"
	"mpinet/internal/report"
	"mpinet/internal/units"
)

// Runner executes experiments, caching application runs that several
// figures/tables share (Table 2 feeds Figures 18-23, for example).
//
// Every figure and table is an independent simulation — each one builds its
// own testbed with its own sim.Engine — so the suite drivers (RunMicro,
// RunApps, RunExtensions, the comparison builders) fan tasks out over Jobs
// host workers through internal/parallel and commit output in submission
// order. Output is byte-identical for every Jobs value; see
// docs/MODEL.md §11 for the contract.
type Runner struct {
	// Quick shrinks sweeps and uses class S workloads — a smoke-test mode.
	Quick bool
	// Jobs bounds how many experiments run concurrently on host cores:
	// 0 (the default) means one per core (GOMAXPROCS), 1 forces the serial
	// path. Any value produces identical output.
	Jobs int
	// Log, when non-nil, receives progress lines. Under parallel execution
	// lines stay whole but their order follows task completion.
	Log io.Writer

	logMu    sync.Mutex
	cacheMu  sync.Mutex
	appCache map[appKey]*appEntry
}

// appEntry is one singleflight cache slot: the first task to need a
// configuration runs it inside once; concurrent tasks needing the same
// configuration block on once instead of duplicating the simulation.
type appEntry struct {
	once sync.Once
	res  apps.Result
}

type appKey struct {
	app   string
	net   string
	procs int
	ppn   int
	class apps.Class
}

// NewRunner returns a Runner.
func NewRunner(quick bool, log io.Writer) *Runner {
	return &Runner{Quick: quick, Log: log, appCache: make(map[appKey]*appEntry)}
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Log != nil {
		r.logMu.Lock()
		fmt.Fprintf(r.Log, format+"\n", args...)
		r.logMu.Unlock()
	}
}

func (r *Runner) class() apps.Class {
	if r.Quick {
		return apps.ClassS
	}
	return apps.ClassB
}

// app runs (or recalls) one application configuration. Concurrent callers
// needing the same configuration share one simulation: the first claims the
// cache slot and runs, the rest block on its sync.Once. Results are pure
// functions of the key, so which task runs a configuration never affects
// the output.
func (r *Runner) app(name string, p cluster.Platform, procs, ppn int) apps.Result {
	key := appKey{app: name, net: p.Name, procs: procs, ppn: ppn, class: r.class()}
	r.cacheMu.Lock()
	e, ok := r.appCache[key]
	if !ok {
		e = &appEntry{}
		r.appCache[key] = e
	}
	r.cacheMu.Unlock()
	e.once.Do(func() {
		a, err := apps.ByName(name)
		if err != nil {
			panic(err)
		}
		r.logf("  running %s class %s on %s, %d procs (%d/node)", name, r.class(), p.Name, procs, maxInt(ppn, 1))
		res, err := a.Run(apps.RunConfig{Platform: p, Class: r.class(), Procs: procs, ProcsPerNode: ppn})
		if err != nil {
			panic(err)
		}
		e.res = res
	})
	return e.res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// sizes returns a power-of-two sweep, thinned in quick mode.
func (r *Runner) sizes(lo, hi int64) []int64 {
	var out []int64
	step := int64(2)
	if r.Quick {
		step = 8
	}
	for s := lo; s <= hi; s *= step {
		out = append(out, s)
	}
	return out
}

// Fig1 regenerates Figure 1: MPI latency across the three interconnects.
func (r *Runner) Fig1() report.Figure {
	r.logf("Fig 1: latency")
	f := report.Figure{ID: "Fig 1", Title: "MPI Latency across Three Interconnects",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.Latency(p, r.sizes(4, 16*units.KB)))
	}
	return f
}

// Fig2 regenerates Figure 2: uni-directional bandwidth at window sizes 4
// and 16.
func (r *Runner) Fig2() report.Figure {
	r.logf("Fig 2: bandwidth")
	f := report.Figure{ID: "Fig 2", Title: "MPI Bandwidth (windows 4 and 16)",
		XLabel: "Message Size (Bytes)", YLabel: "Bandwidth (MB/s)"}
	for _, p := range cluster.OSU() {
		for _, w := range []int{4, 16} {
			c := microbench.Bandwidth(p, r.sizes(4, units.MB), w)
			c.Label = fmt.Sprintf("%s %d", p.Name, w)
			f.Curves = append(f.Curves, c)
		}
	}
	return f
}

// Fig3 regenerates Figure 3: host overhead in the latency test.
func (r *Runner) Fig3() report.Figure {
	r.logf("Fig 3: host overhead")
	f := report.Figure{ID: "Fig 3", Title: "MPI Host Overhead in Latency Test",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.HostOverhead(p, r.sizes(2, units.KB)))
	}
	return f
}

// Fig4 regenerates Figure 4: bi-directional latency.
func (r *Runner) Fig4() report.Figure {
	r.logf("Fig 4: bi-directional latency")
	f := report.Figure{ID: "Fig 4", Title: "MPI Bi-Directional Latency",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.BiLatency(p, r.sizes(4, 4*units.KB)))
	}
	return f
}

// Fig5 regenerates Figure 5: bi-directional bandwidth.
func (r *Runner) Fig5() report.Figure {
	r.logf("Fig 5: bi-directional bandwidth")
	f := report.Figure{ID: "Fig 5", Title: "MPI Bi-Directional Bandwidth (window 16)",
		XLabel: "Message Size (Bytes)", YLabel: "Bandwidth (MB/s)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.BiBandwidth(p, r.sizes(4, units.MB)))
	}
	return f
}

// Fig6 regenerates Figure 6: communication/computation overlap potential.
func (r *Runner) Fig6() report.Figure {
	r.logf("Fig 6: overlap potential")
	f := report.Figure{ID: "Fig 6", Title: "Overlap Potential",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.Overlap(p, r.sizes(4, 64*units.KB)))
	}
	return f
}

// Fig7 regenerates Figure 7: latency under buffer-reuse percentages 0, 50
// and 100.
func (r *Runner) Fig7() report.Figure {
	r.logf("Fig 7: latency vs buffer reuse")
	f := report.Figure{ID: "Fig 7", Title: "MPI Latency with Buffer Reuse (0/50/100%)",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	for _, p := range cluster.OSU() {
		for _, pct := range []int{0, 50, 100} {
			c := microbench.ReuseLatency(p, r.sizes(64, 16*units.KB), pct)
			c.Label = fmt.Sprintf("%s %d", p.Name, pct)
			f.Curves = append(f.Curves, c)
		}
	}
	return f
}

// Fig8 regenerates Figure 8: bandwidth under buffer-reuse percentages.
func (r *Runner) Fig8() report.Figure {
	r.logf("Fig 8: bandwidth vs buffer reuse")
	f := report.Figure{ID: "Fig 8", Title: "MPI Bandwidth with Buffer Reuse (0/50/100%)",
		XLabel: "Message Size (Bytes)", YLabel: "Bandwidth (MB/s)"}
	for _, p := range cluster.OSU() {
		for _, pct := range []int{0, 50, 100} {
			c := microbench.ReuseBandwidth(p, r.sizes(4, 64*units.KB), pct)
			c.Label = fmt.Sprintf("%s %d", p.Name, pct)
			f.Curves = append(f.Curves, c)
		}
	}
	return f
}

// Fig9 regenerates Figure 9: intra-node latency.
func (r *Runner) Fig9() report.Figure {
	r.logf("Fig 9: intra-node latency")
	f := report.Figure{ID: "Fig 9", Title: "MPI Intra-Node Latency",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.IntraLatency(p, r.sizes(4, 4*units.KB)))
	}
	return f
}

// Fig10 regenerates Figure 10: intra-node bandwidth.
func (r *Runner) Fig10() report.Figure {
	r.logf("Fig 10: intra-node bandwidth")
	f := report.Figure{ID: "Fig 10", Title: "MPI Intra-Node Bandwidth",
		XLabel: "Message Size (Bytes)", YLabel: "Bandwidth (MB/s)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.IntraBandwidth(p, r.sizes(4, units.MB)))
	}
	return f
}

// Fig11 regenerates Figure 11: MPI_Alltoall on 8 nodes.
func (r *Runner) Fig11() report.Figure {
	r.logf("Fig 11: alltoall")
	f := report.Figure{ID: "Fig 11", Title: "MPI Alltoall (8 nodes)",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.Alltoall(p, 8, r.sizes(4, 4*units.KB)))
	}
	return f
}

// Fig12 regenerates Figure 12: MPI_Allreduce on 8 nodes.
func (r *Runner) Fig12() report.Figure {
	r.logf("Fig 12: allreduce")
	f := report.Figure{ID: "Fig 12", Title: "MPI Allreduce (8 nodes)",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.Allreduce(p, 8, r.sizes(4, 4*units.KB)))
	}
	return f
}

// Fig13 regenerates Figure 13: MPI memory consumption vs node count.
func (r *Runner) Fig13() report.Figure {
	r.logf("Fig 13: memory usage")
	f := report.Figure{ID: "Fig 13", Title: "MPI Memory Consumption",
		XLabel: "Nodes", YLabel: "Memory Usage (MB)"}
	counts := []int{2, 3, 4, 5, 6, 7, 8}
	if r.Quick {
		counts = []int{2, 8}
	}
	for _, p := range cluster.OSU() {
		f.Curves = append(f.Curves, microbench.MemoryUsage(p, counts))
	}
	return f
}

// Fig26 regenerates Figure 26: InfiniBand latency, PCI vs PCI-X.
func (r *Runner) Fig26() report.Figure {
	r.logf("Fig 26: IBA latency PCI vs PCI-X")
	f := report.Figure{ID: "Fig 26", Title: "MPI over InfiniBand Latency (PCI vs PCI-X)",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	cx := microbench.Latency(cluster.IBA(), r.sizes(4, 4*units.KB))
	cx.Label = "PCI-X"
	ci := microbench.Latency(cluster.IBA().With(cluster.PCIBus()), r.sizes(4, 4*units.KB))
	ci.Label = "PCI"
	f.Curves = []microbench.Curve{cx, ci}
	return f
}

// Fig27 regenerates Figure 27: InfiniBand bandwidth, PCI vs PCI-X.
func (r *Runner) Fig27() report.Figure {
	r.logf("Fig 27: IBA bandwidth PCI vs PCI-X")
	f := report.Figure{ID: "Fig 27", Title: "MPI over InfiniBand Bandwidth (PCI vs PCI-X)",
		XLabel: "Message Size (Bytes)", YLabel: "Bandwidth (MB/s)"}
	cx := microbench.Bandwidth(cluster.IBA(), r.sizes(4, units.MB), 16)
	cx.Label = "PCI-X"
	ci := microbench.Bandwidth(cluster.IBA().With(cluster.PCIBus()), r.sizes(4, units.MB), 16)
	ci.Label = "PCI"
	f.Curves = []microbench.Curve{cx, ci}
	return f
}
