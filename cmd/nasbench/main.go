// Command nasbench runs the paper's application workloads — the NAS
// Parallel Benchmarks and sweep3D (Section 4) — on the simulated testbeds.
//
// Usage:
//
//	nasbench                          # Figures 14-25, 28 and Tables 1-6
//	nasbench -app LU -net QSN -procs 8
//	nasbench -quick                   # class S smoke run
//	nasbench -app LU -procs 1024 -topo clos:3:24:2
//
// Single-app mode prints the execution time and the per-process
// communication profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"mpinet/internal/apps"
	"mpinet/internal/cluster"
	"mpinet/internal/experiments"
	"mpinet/internal/trace"
)

// topoOptions translates the -topo/-routing flags into platform options.
// An empty -topo keeps the classic auto-sized crossbar.
func topoOptions(topo, routing string) ([]cluster.Option, error) {
	var opts []cluster.Option
	if topo != "" {
		parts := strings.Split(topo, ":")
		ints := make([]int, 0, len(parts)-1)
		for _, s := range parts[1:] {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("bad -topo %q: %v", topo, err)
			}
			ints = append(ints, v)
		}
		switch {
		case parts[0] == "crossbar" && len(ints) == 0:
			opts = append(opts, cluster.Crossbar())
		case parts[0] == "fattree" && len(ints) == 2:
			opts = append(opts, cluster.FatTree(ints[0], ints[1]))
		case parts[0] == "clos" && len(ints) == 3:
			opts = append(opts, cluster.Clos(ints[0], ints[1], ints[2]))
		default:
			return nil, fmt.Errorf("bad -topo %q: want crossbar, fattree:RADIX:OVERSUB or clos:LEVELS:RADIX:OVERSUB", topo)
		}
	}
	switch routing {
	case "":
	case "deterministic":
		opts = append(opts, cluster.WithRouting(cluster.Deterministic))
	case "adaptive":
		opts = append(opts, cluster.WithRouting(cluster.Adaptive))
	default:
		return nil, fmt.Errorf("bad -routing %q: want deterministic or adaptive", routing)
	}
	return opts, nil
}

func main() {
	app := flag.String("app", "", "run one workload (IS CG MG LU FT SP BT S3D-50 S3D-150)")
	net := flag.String("net", "IBA", "interconnect: IBA, Myri, QSN, IBA-PCI, IBA-Topspin")
	procs := flag.Int("procs", 8, "number of MPI processes")
	perNode := flag.Int("ppn", 1, "processes per node (2 = the paper's SMP mode)")
	classB := flag.Bool("classB", true, "use the paper's class B size (false = class S)")
	quick := flag.Bool("quick", false, "full suite in class S smoke mode")
	topo := flag.String("topo", "", "fabric topology: crossbar, fattree:RADIX:OVERSUB, clos:LEVELS:RADIX:OVERSUB")
	routing := flag.String("routing", "", "up-link routing on a multi-stage topology: deterministic, adaptive")
	timeline := flag.Int("timeline", 0, "with -app: dump the first N message events")
	util := flag.Bool("util", false, "with -app: print the busiest hardware resources")
	verbose := flag.Bool("v", false, "print progress to stderr")
	flag.Parse()

	var log *os.File
	if *verbose {
		log = os.Stderr
	}

	if *app == "" {
		r := experiments.NewRunner(*quick, log)
		r.RunApps(os.Stdout)
		return
	}

	platforms := map[string]cluster.Platform{
		"IBA": cluster.IBA(), "Myri": cluster.Myri(), "QSN": cluster.QSN(),
		"IBA-PCI": cluster.IBA().With(cluster.PCIBus()), "IBA-Topspin": cluster.Topspin(),
	}
	p, ok := platforms[*net]
	if !ok {
		fmt.Fprintf(os.Stderr, "nasbench: unknown network %q\n", *net)
		os.Exit(2)
	}
	opts, err := topoOptions(*topo, *routing)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(2)
	}
	p = p.With(opts...)
	a, err := apps.ByName(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(2)
	}
	class := apps.ClassS
	if *classB {
		class = apps.ClassB
	}
	var tl *trace.Timeline
	if *timeline > 0 {
		tl = trace.NewTimeline(*timeline)
	}
	res, err := a.Run(apps.RunConfig{Platform: p, Class: class, Procs: *procs, ProcsPerNode: *perNode, Timeline: tl, Utilization: *util})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nasbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s class %s on %s, %d procs (%d/node): %.3f s\n",
		res.App, res.Class, res.Net, res.Procs, *perNode, res.Elapsed.Seconds())
	pr := res.PerRank
	fmt.Printf("per-process profile (rank 0):\n")
	fmt.Printf("  size classes <2K/2K-16K/16K-1M/>1M: %d / %d / %d / %d\n",
		pr.SizeHist[0], pr.SizeHist[1], pr.SizeHist[2], pr.SizeHist[3])
	fmt.Printf("  non-blocking: %d isend (avg %d B), %d irecv (avg %d B)\n",
		pr.IsendCalls, pr.AvgIsendSize(), pr.IrecvCalls, pr.AvgIrecvSize())
	fmt.Printf("  collectives: %d calls, %.2f%% of calls, %.2f%% of volume\n",
		pr.CollCalls, pr.CollectiveCallShare()*100, pr.CollectiveVolumeShare()*100)
	fmt.Printf("  buffer reuse: %.2f%% (%.2f%% weighted)\n",
		pr.ReuseRate()*100, pr.WeightedReuseRate()*100)
	ag := res.Profile
	fmt.Printf("cluster-wide: %d MPI calls, intra-node %.2f%% of pt2pt calls, %.2f%% of volume\n",
		ag.TotalCalls, ag.IntraNodeCallShare()*100, ag.IntraNodeVolumeShare()*100)
	if tl != nil {
		fmt.Printf("\nmessage timeline (first %d events):\n", *timeline)
		tl.Render(os.Stdout)
		counts, meanWait := tl.Stats()
		fmt.Printf("\nevent counts: %v\nmean recv post-to-complete: %v\n", counts, meanWait)
	}
	if *util && len(res.Utilizations) > 0 {
		fmt.Printf("\nbusiest hardware resources (of %v elapsed):\n", res.Elapsed)
		us := res.Utilizations
		sort.Slice(us, func(i, j int) bool { return us[i].Busy > us[j].Busy })
		for i, u := range us {
			if i == 10 {
				break
			}
			fmt.Printf("  %-22s busy %10v  (%5.1f%%)  %d jobs\n",
				u.Resource, u.Busy, float64(u.Busy)/float64(res.Elapsed)*100, u.Jobs)
		}
	}
}
