// Command mpibench runs the paper's MPI micro-benchmark suite (Section 3)
// on the simulated testbeds and prints each figure's data.
//
// Usage:
//
//	mpibench [-fig N [-plot | -csv]] [-quick] [-j N] [-v]
//	mpibench -logp
//
// Without -fig it runs the whole suite: Figures 1-13 plus the PCI
// comparison Figures 26-27. -quick thins the size sweeps for a fast smoke
// run. Figures are independent simulations and fan out over -j worker
// goroutines (default: one per core); output order and bytes are identical
// for every -j value. -logp prints each interconnect's LogGP parameters
// instead. The instrumented observability demo (-metrics, -tracefile,
// -blame) is paperrepro's.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"mpinet/internal/cluster"
	"mpinet/internal/experiments"
	"mpinet/internal/microbench"
	"mpinet/internal/profiling"
	"mpinet/internal/report"
)

func main() {
	fig := flag.Int("fig", 0, "run a single figure (1-13, 26, 27); 0 = all")
	plot := flag.Bool("plot", false, "with -fig: render an ASCII chart instead of the data table")
	csv := flag.Bool("csv", false, "with -fig: emit CSV instead of the data table")
	quick := flag.Bool("quick", false, "thin sweeps for a fast smoke run")
	jobs := flag.Int("j", runtime.NumCPU(), "figures to run concurrently (output is identical for any value)")
	logp := flag.Bool("logp", false, "extract LogGP parameters per interconnect and exit")
	verbose := flag.Bool("v", false, "print progress to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile at exit to this file (go tool pprof)")
	flag.Parse()

	os.Exit(profiling.Run(*cpuProfile, *memProfile, "mpibench", func() int {
		if *logp {
			fmt.Println("LogGP parameters (Culler et al. model, extracted per the")
			fmt.Println("paper's related-work methodology):")
			for _, p := range cluster.OSU() {
				fmt.Println(" ", microbench.LogP(p))
			}
			return 0
		}

		var log *os.File
		if *verbose {
			log = os.Stderr
		}
		r := experiments.NewRunner(*quick, log)
		r.Jobs = *jobs

		if *fig == 0 {
			r.RunMicro(os.Stdout)
			fmt.Println(report.RenderComparisons(
				"Paper-vs-simulated anchors (Section 3 quotes)", r.MicroComparisons(), 0.15))
			return 0
		}
		figs := map[int]func() report.Figure{
			1: r.Fig1, 2: r.Fig2, 3: r.Fig3, 4: r.Fig4, 5: r.Fig5, 6: r.Fig6,
			7: r.Fig7, 8: r.Fig8, 9: r.Fig9, 10: r.Fig10, 11: r.Fig11,
			12: r.Fig12, 13: r.Fig13, 26: r.Fig26, 27: r.Fig27,
		}
		f, ok := figs[*fig]
		if !ok {
			fmt.Fprintf(os.Stderr, "mpibench: no micro-benchmark figure %d\n", *fig)
			return 2
		}
		if *plot {
			fmt.Println(f().Plot(64, 18))
			return 0
		}
		if *csv {
			fmt.Print(f().CSV())
			return 0
		}
		fmt.Println(f().Render())
		return 0
	}))
}
