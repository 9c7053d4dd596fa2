// Command paperrepro runs the complete reproduction — every figure and
// table of the paper's evaluation — and writes a results document with
// paper-vs-simulated comparisons.
//
// Usage:
//
//	paperrepro [-o EXPERIMENTS.md] [-quick] [-j N] [-csv DIR]
//	paperrepro [-metrics FILE] [-tracefile FILE] [-blame FILE] [-tracemsgs N] [-obsnet IBA|Myri|QSN]
//	paperrepro -postmortem [-obsnet IBA|Myri|QSN] [-droprate P] [-seed N]
//	paperrepro -faults [-droprate P] [-seed N] [-faultnet IBA|Myri|QSN]
//	paperrepro -railfail [-railpair IBA+Myri] [-railpolicy failover|stripe] [-seed N]
//	paperrepro -chaos [-faultnet IBA|Myri|QSN] [-routing deterministic|adaptive] [-seed N]
//
// With -o - the document goes to stdout. A full (class B) run simulates
// several hundred cluster executions and takes a few minutes of wall-clock
// time; -quick produces the same document from class S workloads and
// thinned sweeps in seconds (for smoke-testing the harness, not for
// comparisons).
//
// Each figure and table is an independent simulation, so the suite fans out
// over -j worker goroutines (default: one per core) with output committed
// in figure order — the document is byte-identical for every -j value.
// Host performance is measured by the benchmark, not by this command: run
// bash bench/run.sh (its workloads are declared in BENCHMARK.json).
//
// The second form runs the instrumented observability demo workload
// instead of the reproduction: -metrics writes the cross-layer metrics
// snapshot, -tracefile writes a Chrome trace_event JSON (open in
// chrome://tracing or https://ui.perfetto.dev), -blame writes the
// per-message critical-path blame report as machine-readable JSON, and
// -obsnet picks the interconnect (default IBA). -tracemsgs N enables
// per-message span tracing at 1-in-N sampling (-blame implies N=1 when
// unset) and adds message-flow arrows to the Chrome trace. Any output
// flag can be - for stdout. -postmortem runs the fault-injected tracing
// demo instead: LU class S under -droprate drops plus a rail kill at 50%
// of the healthy run, dumping the flight recorder and the blame report
// that names the failing rank and stage.
//
// The third form runs the fault-injection smoke instead: a seeded latency
// probe plus LU class S under -droprate uniform packet loss (default 1%),
// reporting injector and NIC recovery counters. Runs are deterministic in
// -seed (0 = the committed experiment seed); the same seed always drops
// the same packets. See docs/MODEL.md §12.
//
// The fourth form runs the multi-rail failover smoke: LU class S on a
// bonded pair of interconnects, once healthy to calibrate, once with the
// primary rail killed at 50% of the healthy elapsed (must complete via
// failover), and once on the solo primary under the same plan (must fail
// with a typed error). See docs/MODEL.md §13.
//
// The fifth form runs the chaos soak: the kill-storm matrix on a 64-node
// 3-level Clos — a spine plane killed and repaired, a multi-element storm,
// a host crash with and without ULFM-style fault tolerance, and a full
// partition — verifying each scenario completes or fails with a typed
// error, never hangs. -faultnet empty runs all three interconnects;
// -routing picks the fabric's path policy. See docs/MODEL.md §19.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"mpinet/internal/experiments"
	"mpinet/internal/profiling"
	"mpinet/internal/report"
)

func main() {
	out := flag.String("o", "-", "output file (- = stdout)")
	quick := flag.Bool("quick", false, "class S smoke mode")
	jobs := flag.Int("j", runtime.NumCPU(), "experiments to run concurrently (output is identical for any value)")
	csvDir := flag.String("csv", "", "also write each figure/table as CSV into this directory")
	metricsOut := flag.String("metrics", "", "run the observability demo, write its metrics snapshot here (- = stdout), and exit")
	traceOut := flag.String("tracefile", "", "run the observability demo, write a Chrome trace_event JSON here (- = stdout), and exit")
	obsNet := flag.String("obsnet", "IBA", "interconnect for the observability demo (IBA, Myri or QSN)")
	traceMsgs := flag.Int("tracemsgs", 0, "per-message tracing for the observability demo: trace 1 in N messages (0 = off, 1 = all); adds flow arrows to -tracefile")
	blameOut := flag.String("blame", "", "run the traced observability demo, write the critical-path blame report JSON here (- = stdout), and exit")
	postmortem := flag.Bool("postmortem", false, "run the fault-injected postmortem demo (LU class S under drops + a rail kill) and print its flight-recorder dump and blame report")
	faultsRun := flag.Bool("faults", false, "run the fault-injection smoke (latency probe + LU class S under -droprate) and exit")
	dropRate := flag.Float64("droprate", 0.01, "per-packet drop probability for -faults (0 = healthy control)")
	seed := flag.Uint64("seed", 0, "fault-plan seed for -faults (0 = the committed experiment seed)")
	faultNet := flag.String("faultnet", "", "interconnect for -faults (IBA, Myri or QSN; empty = all three)")
	chaosRun := flag.Bool("chaos", false, "run the chaos soak (kill storms on a 3-level Clos: spine death, host crash, partition) and exit")
	routing := flag.String("routing", "deterministic", "fabric routing policy for -chaos (deterministic or adaptive)")
	railRun := flag.Bool("railfail", false, "run the rail-failover smoke (LU class S on a bonded pair, primary killed mid-run) and exit")
	railPair := flag.String("railpair", "IBA+Myri", "bonded pair for -railfail (2-3 of IBA, Myri, QSN joined by +)")
	railPolicy := flag.String("railpolicy", "failover", "bond policy for -railfail (failover or stripe)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	flag.Parse()

	os.Exit(profiling.Run(*cpuProfile, *memProfile, "paperrepro", func() int {
		return run(runOpts{
			out: *out, quick: *quick, jobs: *jobs,
			csvDir: *csvDir, metricsOut: *metricsOut, traceOut: *traceOut,
			obsNet: *obsNet, traceMsgs: *traceMsgs, blameOut: *blameOut,
			postmortem: *postmortem, faultsRun: *faultsRun, dropRate: *dropRate,
			seed: *seed, faultNet: *faultNet, railRun: *railRun,
			railPair: *railPair, railPolicy: *railPolicy,
			chaosRun: *chaosRun, routing: *routing,
		})
	}))
}

type runOpts struct {
	out        string
	quick      bool
	jobs       int
	csvDir     string
	metricsOut string
	traceOut   string
	obsNet     string
	traceMsgs  int
	blameOut   string
	postmortem bool
	faultsRun  bool
	dropRate   float64
	seed       uint64
	faultNet   string
	railRun    bool
	railPair   string
	railPolicy string
	chaosRun   bool
	routing    string
}

func run(o runOpts) int {
	if o.chaosRun {
		nets := []string{"IBA", "Myri", "QSN"}
		if o.faultNet != "" {
			nets = []string{o.faultNet}
		}
		for _, net := range nets {
			if err := experiments.ChaosSoak(os.Stdout, net, o.routing, o.seed, 0); err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro:", err)
				return 1
			}
		}
		return 0
	}

	if o.railRun {
		if err := experiments.RailFailSmoke(os.Stdout, o.railPair, o.railPolicy, o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			return 1
		}
		return 0
	}

	if o.postmortem {
		if err := experiments.Postmortem(os.Stdout, o.obsNet, o.dropRate, o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			return 1
		}
		return 0
	}

	if o.faultsRun {
		nets := []string{"IBA", "Myri", "QSN"}
		if o.faultNet != "" {
			nets = []string{o.faultNet}
		}
		for _, net := range nets {
			if err := experiments.FaultSmoke(os.Stdout, net, o.dropRate, o.seed); err != nil {
				fmt.Fprintln(os.Stderr, "paperrepro:", err)
				return 1
			}
		}
		return 0
	}

	if o.metricsOut != "" || o.traceOut != "" || o.blameOut != "" {
		if err := experiments.RunObserved(o.obsNet, o.metricsOut, o.traceOut, o.blameOut, o.traceMsgs, writeOut); err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			return 1
		}
		return 0
	}

	r := experiments.NewRunner(o.quick, os.Stderr)
	r.Jobs = o.jobs

	if o.csvDir != "" {
		if err := writeCSVs(r, o.csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "paperrepro:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "paperrepro: wrote CSVs to %s\n", o.csvDir)
	}

	var b bytes.Buffer
	write(&b, r, o.quick)

	if o.out == "-" {
		fmt.Print(b.String())
	} else if err := os.WriteFile(o.out, b.Bytes(), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		return 1
	} else {
		fmt.Fprintf(os.Stderr, "paperrepro: wrote %s\n", o.out)
	}
	return 0
}

// writeOut writes data to path, with - meaning stdout.
func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "paperrepro: wrote %s\n", path)
	return nil
}

// writeCSVs regenerates every figure and table as machine-readable files
// (the Runner's cache makes this nearly free once the document has run).
func writeCSVs(r *experiments.Runner, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	figs := map[string]func() report.Figure{
		"fig01": r.Fig1, "fig02": r.Fig2, "fig03": r.Fig3, "fig04": r.Fig4,
		"fig05": r.Fig5, "fig06": r.Fig6, "fig07": r.Fig7, "fig08": r.Fig8,
		"fig09": r.Fig9, "fig10": r.Fig10, "fig11": r.Fig11, "fig12": r.Fig12,
		"fig13": r.Fig13, "fig26": r.Fig26, "fig27": r.Fig27,
	}
	names := make([]string, 0, len(figs))
	for name := range figs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(figs[name]().CSV()), 0o644); err != nil {
			return err
		}
	}
	tables := map[string]func() report.Table{
		"figs14-17": r.Figs14to17, "table1": r.Tab1, "table2": r.Tab2,
		"table3": r.Tab3, "table4": r.Tab4, "table5": r.Tab5, "table6": r.Tab6,
		"fig24": r.Fig24, "fig25": r.Fig25, "fig28": r.Fig28,
	}
	tnames := make([]string, 0, len(tables))
	for name := range tables {
		tnames = append(tnames, name)
	}
	sort.Strings(tnames)
	for _, name := range tnames {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(tables[name]().CSV()), 0o644); err != nil {
			return err
		}
	}
	for i, f := range r.Figs18to23() {
		name := fmt.Sprintf("fig%d", 18+i)
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(f.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func write(b *bytes.Buffer, r *experiments.Runner, quick bool) {
	fmt.Fprintf(b, "# EXPERIMENTS — paper vs. simulation\n\n")
	fmt.Fprintf(b, "Reproduction record for every figure and table of Liu et al.,\n")
	fmt.Fprintf(b, "\"Performance Comparison of MPI Implementations over InfiniBand, Myrinet\n")
	fmt.Fprintf(b, "and Quadrics\" (SC'03). Generated by `go run ./cmd/paperrepro -o EXPERIMENTS.md`.\n")
	if quick {
		fmt.Fprintf(b, "\n**QUICK MODE** — class S workloads, thinned sweeps; not for comparison.\n")
	}
	fmt.Fprintf(b, "\nAbsolute numbers are simulated; the paper's testbed was physical hardware.\n")
	fmt.Fprintf(b, "The contract (DESIGN.md §5) is: anchor values the paper quotes are matched\n")
	fmt.Fprintf(b, "by calibration, and every *comparison* — which network wins, by what\n")
	fmt.Fprintf(b, "factor, where curves cross — emerges from the interconnect mechanisms.\n\n")

	fmt.Fprintf(b, "## Micro-benchmark anchors (Section 3)\n\n```\n")
	b.WriteString(report.RenderComparisons("Anchors quoted in the paper's text", r.MicroComparisons(), 0.15))
	fmt.Fprintf(b, "```\n\n")

	fmt.Fprintf(b, "## Micro-benchmark figures\n\n```\n")
	r.RunMicro(b)
	fmt.Fprintf(b, "```\n\n")

	fmt.Fprintf(b, "## Application results (Section 4)\n\n")
	fmt.Fprintf(b, "### Table 2: execution times, paper vs simulated\n\n```\n")
	b.WriteString(report.RenderComparisons("Class B times (s)", r.Table2Comparisons(), 0.10))
	fmt.Fprintf(b, "```\n\n")

	fmt.Fprintf(b, "### Table 1: per-process message-size profile, paper vs simulated\n\n```\n")
	b.WriteString(report.RenderComparisons("Calls per size class", r.Table1Comparisons(), 0.25))
	fmt.Fprintf(b, "```\n\n")

	fmt.Fprintf(b, "### Full application figures and tables\n\n```\n")
	r.RunApps(b)
	fmt.Fprintf(b, "```\n\n")

	fmt.Fprintf(b, "## Extensions beyond the paper (DESIGN.md §6)\n\n```\n")
	r.RunExtensions(b)
	fmt.Fprintf(b, "```\n\n")

	b.WriteString(deviations)
}

var deviations = strings.TrimLeft(`
## Known deviations

These are the places where the simulation reproduces the paper's direction
but not its magnitude, with the reason:

1. **Bi-directional latency degradation (Fig 4).** Paper: Myri 6.7→10.1 us,
   QSN 4.6→7.4 us. Simulated degradations are ~1.5 us — the GM-ACK and
   shared-bus mechanisms capture the direction (IBA nearly flat, the other
   two visibly worse) but not the full magnitude of the vendors' firmware
   behaviour.
2. **IS network gap (Fig 14/Table 2).** Paper: InfiniBand beats Myrinet by
   38% and Quadrics by 28% on 8 nodes; simulated gaps are ~15-21%. The
   remaining spread likely came from alltoallv congestion pathologies our
   switch model smooths over.
3. **Quadrics on sweep3D-50 (Fig 17).** The paper measures QSN 22% slower
   than the others at the small problem size; per-message cost accounting
   cannot reproduce a gap that large, and the simulation shows rough parity
   (it does reproduce the S3D-150 ordering).
4. **Quadrics window >16 (Fig 2 text).** The figure's window-4-vs-16 data
   reproduces; the text's claim that deeper windows degrade shows only
   weakly, because in our model the NIC (not the command queue) is the
   streaming bottleneck at those sizes.
5. **Small-message collective magnitudes (Figs 11-12).** The orderings the
   paper stresses reproduce exactly (Alltoall: IBA < Myri << QSN;
   Allreduce: QSN < IBA), and Quadrics' Allreduce matches to a few percent,
   but absolute Alltoall times run low (IBA 13 vs 31 us) — MPICH 1.2.x
   evidently paid per-request overheads beyond our per-message model —
   and Myrinet's Allreduce runs ~20% high.
6. **The 4-node CG anomaly (Table 2).** The paper's CG is *slower* on 4
   InfiniBand nodes than on 4 Myrinet/Quadrics nodes (81.6 vs 74.4/73.1 s)
   — an IBA-specific effect on that one configuration. The shared compute
   model pins the IBA column, so the emergent Myri/QSN 4-node cells inherit
   the anomaly and read ~13-16% high.
7. **MG profile details (Tables 1, 3).** Counts and classes are close
   (mid-size calls +50% on a 630-call row); the paper's 270 KB average
   Irecv suggests wider ghost faces than the canonical class B
   decomposition implies, and we kept the canonical sizes.
`, "\n")
