package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"mpinet/internal/apps"
	"mpinet/internal/cluster"
	"mpinet/internal/experiments"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
	"mpinet/internal/rail"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Workload sizes. They are constants, not flags, so every run measures the
// same work.
const (
	// luRanks is the world size of clos1k_lu and observed_1k. LU class B is
	// not used at this size: one 1024-rank class B run did not finish in
	// nine minutes on a 2-CPU host.
	luRanks = 1024
	// luShards caps the PDES shard count at the reference host's 2 CPUs.
	luShards = 2
	// traceEvery samples one message in 16 in observed_1k.
	traceEvery = 16
	// blameTopK is the slowest-message count observed_1k asks Analyze for.
	blameTopK = 10
	// paperAnchors is the number of micro-benchmark anchors
	// MicroComparisons pairs with the paper.
	paperAnchors = 24
	// chaosRanks is the world size ChaosSoak runs.
	chaosRanks = 64
	// chaosShards is the shard count handed to ChaosSoak, the CLI default.
	chaosShards = 1
)

// workload is one set of inputs: the ops one iteration runs and the worlds
// those ops build, which the setup probe constructs without running.
type workload struct {
	name string
	// ops returns a fresh iteration; seed reaches only the ops that draw
	// randomness.
	ops func(seed uint64) []op
	// worlds lists the worlds one iteration builds.
	worlds func(seed uint64) []worldSpec
	// unobserved, set on a workload that observes its runs, returns the
	// same ops with observation off; the skew gauge compares their
	// simulated times.
	unobserved func() []op
	// nominal is one iteration's wall time on the reference host (2 CPUs,
	// go1.24.0); it sizes the measured phase.
	nominal time.Duration
}

// iterations is how many measured iterations fill seconds on the reference
// host. The count, not the clock, ends the measured phase, so every run
// with the same --seconds does the same work. That matters for peak RSS:
// each aborted chaos_soak job leaves its rank goroutines parked, so memory
// grows with every iteration.
func (w workload) iterations(seconds time.Duration) int {
	return max(minIters, int(math.Round(float64(seconds)/float64(w.nominal))))
}

// workloads is the benchmark's workload table, in run order.
func workloads() []workload {
	return []workload{
		{
			name:    "paper_quick",
			nominal: 4500 * time.Millisecond,
			ops:     func(uint64) []op { return paperOps() },
			worlds:  func(uint64) []worldSpec { return paperWorlds() },
		},
		{
			name:    "clos1k_lu",
			nominal: 7500 * time.Millisecond,
			ops:     func(uint64) []op { return luOps(luRanks, false) },
			worlds:  func(uint64) []worldSpec { return luWorlds(luRanks, false) },
		},
		{
			name:    "chaos_soak",
			nominal: 5500 * time.Millisecond,
			ops:     chaosOps,
			worlds:  chaosWorlds,
		},
		{
			name:       "observed_1k",
			nominal:    10500 * time.Millisecond,
			ops:        func(uint64) []op { return luOps(luRanks, true) },
			worlds:     func(uint64) []worldSpec { return luWorlds(luRanks, true) },
			unobserved: func() []op { return luOps(luRanks, false) },
		},
	}
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// op is the unit the benchmark counts. It fails when it returns an error,
// panics, or produces output that differs from the warm-up iteration's.
type op struct {
	name string
	run  func(tr *tracer, parent int) (outcome, error)
}

// outcome is what one op produced.
type outcome struct {
	digest   string        // sha256 of the op's output, hex
	events   uint64        // simulation events the op dispatched
	elapsed  units.Time    // simulated run time of an LU op
	paperErr float64       // mean |sim-paper|/paper in percent, MicroComparisons only
	analyze  time.Duration // in Recorder.Analyze, observed LU ops only
	snapshot time.Duration // in Registry.Snapshot and Render, observed LU ops only
}

// runOp runs o, recovering a panic into an error so one broken op is
// counted and reported instead of ending the run.
func runOp(o op, tr *tracer, parent int) (out outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	ev0 := sim.TotalDispatched()
	out, err = o.run(tr, parent)
	out.events = sim.TotalDispatched() - ev0
	return out, err
}

// digest hashes an op's output.
func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// paperOps is one paper_quick iteration: the quick reproduction suite on a
// fresh runner, serial (Jobs = 1), as paperrepro -quick runs it.
func paperOps() []op {
	r := experiments.NewRunner(true, nil)
	r.Jobs = 1
	suite := func(name string, f func(io.Writer)) op {
		return op{name: name, run: func(*tracer, int) (outcome, error) {
			var buf bytes.Buffer
			f(&buf)
			return outcome{digest: digest(buf.Bytes())}, nil
		}}
	}
	return []op{
		suite("RunMicro", r.RunMicro),
		suite("RunApps", r.RunApps),
		suite("RunExtensions", r.RunExtensions),
		{name: "MicroComparisons", run: func(*tracer, int) (outcome, error) {
			return microComparisons(r)
		}},
	}
}

// microComparisons measures the paper's micro-benchmark anchors and returns
// their mean relative error against the published values.
func microComparisons(r *experiments.Runner) (outcome, error) {
	comps := r.MicroComparisons()
	if len(comps) != paperAnchors {
		return outcome{}, fmt.Errorf("MicroComparisons returned %d anchors, want %d", len(comps), paperAnchors)
	}
	var buf bytes.Buffer
	sum := 0.0
	for _, c := range comps {
		if !(c.Sim > 0) || math.IsInf(c.Sim, 0) {
			return outcome{}, fmt.Errorf("anchor %q: simulated value %v", c.Name, c.Sim)
		}
		fmt.Fprintf(&buf, "%s %g %g %s\n", c.Name, c.Paper, c.Sim, c.Unit)
		sum += math.Abs(c.Delta())
	}
	return outcome{digest: digest(buf.Bytes()), paperErr: 100 * sum / float64(len(comps))}, nil
}

// luPlatform is p on the thousand-rank fabric: a 3-level Clos of 24-port
// elements, 2:1 oversubscribed, run on luShards PDES shards.
func luPlatform(p cluster.Platform) cluster.Platform {
	return p.With(cluster.Clos(3, 24, 2), cluster.WithShards(luShards))
}

// luOps runs LU class S once per interconnect on the Clos fabric.
func luOps(ranks int, observed bool) []op {
	var ops []op
	for _, p := range cluster.OSU() {
		ops = append(ops, luOp(luPlatform(p), ranks, observed))
	}
	return ops
}

// luOp runs LU class S on p. When observed, the run carries a metrics
// registry and a message recorder, and the op then analyzes the recorder
// and renders the snapshot, as a user of -metrics and -blame would.
func luOp(p cluster.Platform, ranks int, observed bool) op {
	return op{name: "LU/" + p.Name, run: func(tr *tracer, parent int) (outcome, error) {
		lu, err := apps.ByName("LU")
		if err != nil {
			return outcome{}, err
		}
		cfg := apps.RunConfig{Platform: p, Class: apps.ClassS, Procs: ranks}
		if observed {
			cfg.Metrics = metrics.New()
			cfg.MsgTrace = msgtrace.New(traceEvery)
		}
		res, err := lu.Run(cfg)
		if err != nil {
			return outcome{}, err
		}
		if res.Elapsed <= 0 {
			return outcome{}, fmt.Errorf("LU on %s: elapsed %v", p.Name, res.Elapsed)
		}
		var buf bytes.Buffer
		pr := res.Profile
		fmt.Fprintf(&buf, "%s %d %d %d %d %d %v\n", res.Net, res.Elapsed,
			pr.TotalCalls, pr.TotalBytes, pr.PtPCalls, pr.CollCalls, pr.SizeHist)
		out := outcome{elapsed: res.Elapsed}
		if observed {
			id := tr.begin("msgtrace.analyze", parent)
			t0 := time.Now()
			b := cfg.MsgTrace.Analyze(blameTopK)
			out.analyze = time.Since(t0)
			tr.end(id)
			if b.Messages < 1 {
				return outcome{}, errors.New("Analyze saw no messages")
			}
			fmt.Fprintf(&buf, "blame %d %d %d %d %v\n", b.Messages, b.Spans, b.Completed, b.Total, b.Cats)
			id = tr.begin("metrics.snapshot", parent)
			t0 = time.Now()
			cfg.Metrics.Snapshot().Render(&buf)
			out.snapshot = time.Since(t0)
			tr.end(id)
		}
		out.digest = digest(buf.Bytes())
		return out, nil
	}}
}

// chaosRoutings are the routing policies chaos_soak runs under.
var chaosRoutings = []string{"deterministic", "adaptive"}

// chaosOps is one chaos_soak iteration: ChaosSoak on every interconnect and
// routing policy, at seed and seed+1.
func chaosOps(seed uint64) []op {
	var ops []op
	for _, p := range cluster.OSU() {
		for _, routing := range chaosRoutings {
			for _, s := range []uint64{seed, seed + 1} {
				ops = append(ops, chaosOp(p.Name, routing, s))
			}
		}
	}
	return ops
}

// chaosOp runs one ChaosSoak call; its transcript is the op's output.
func chaosOp(net, routing string, seed uint64) op {
	return op{name: fmt.Sprintf("ChaosSoak/%s/%s/%d", net, routing, seed), run: func(*tracer, int) (outcome, error) {
		var buf bytes.Buffer
		if err := experiments.ChaosSoak(&buf, net, routing, seed, chaosShards); err != nil {
			return outcome{}, err
		}
		return outcome{digest: digest(buf.Bytes())}, nil
	}}
}

// worldSpec is one world an iteration builds: a platform wired at a node
// count and the MPI job placed on it.
type worldSpec struct {
	plat  cluster.Platform
	nodes int
	// procs is the MPI job's size; 0 wires the network alone, as the
	// messaging-layer benchmarks do.
	procs int
	ppn   int
	// opts are world-side options (cluster.ApplyWorld).
	opts []cluster.Option
	// observed attaches a metrics registry and a message recorder.
	observed bool
}

// build wires the network and the MPI world, timing each call and
// recording a span around each. The world is nil when s has no procs.
func (s worldSpec) build(tr *tracer, parent int) (w *mpi.World, net, world time.Duration, err error) {
	id := tr.begin("cluster.build", parent)
	t0 := time.Now()
	n := s.plat.New(s.nodes)
	t1 := time.Now()
	tr.end(id)
	if s.procs == 0 {
		return nil, t1.Sub(t0), 0, nil
	}
	id = tr.begin("mpi.new_world", parent)
	t2 := time.Now()
	cfg := mpi.Config{Net: n, Procs: s.procs, ProcsPerNode: s.ppn}
	cluster.ApplyWorld(&cfg, s.opts...)
	if s.observed {
		cfg.Metrics = metrics.New()
		cfg.MsgTrace = msgtrace.New(traceEvery)
	}
	w, err = mpi.NewWorld(cfg)
	t3 := time.Now()
	tr.end(id)
	return w, t1.Sub(t0), t3.Sub(t2), err
}

// overlapWorlds is how many worlds Fig 6 builds per interconnect. It
// bisects the overlap threshold at each of its 5 message sizes, one world
// per probe, so the count depends on the simulated round trips rather than
// on a loop bound.
var overlapWorlds = map[string]int{"IBA": 48, "Myri": 50, "QSN": 48}

// paperWorlds are the worlds one paper_quick iteration builds, each as
// often as the quick suite builds it: 691 network builds, 685 of them with
// an MPI world. The suite runs inside the experiments package, out of the
// benchmark's reach, so the counts below restate its loops at quick size,
// where sweeps step by 8 (Fig 1's 4 B to 16 KB is 5 sizes, for example).
// The application figures build one world per distinct (app, platform
// name, procs, procs per node), because the runner caches runs; the app
// counts below count those. The table was checked against a log of every
// Platform.New and mpi.NewWorld call in one quick-suite run. A change to
// the suite's loops must be mirrored here.
func paperWorlds() []worldSpec {
	var ws []worldSpec
	add := func(n int, s worldSpec) {
		for i := 0; i < n; i++ {
			ws = append(ws, s)
		}
	}
	job := func(p cluster.Platform, nodes int) worldSpec {
		return worldSpec{plat: p, nodes: nodes, procs: nodes}
	}
	for _, p := range cluster.OSU() {
		// Two-node pairs, one world per message size: Fig 1 (5 sizes),
		// Fig 2 (7 sizes x 2 windows), Fig 3 (4), Fig 4 (4), Fig 5 (7),
		// Fig 7 (3 sizes x 3 reuse rates), Fig 8 (5 x 3), Fig 13's 2-node
		// point, Ext C (LogP's 2 worlds and 1 streaming run), Ext D's MPI
		// latency and bandwidth, Ext F's healthy curve (4 sizes), the 5
		// two-node MicroComparisons anchors, and Table 2's 2-process
		// column (6 apps; FT needs 4).
		add(5+14+4+4+7+9+15+1+3+2+4+5+6, job(p, 2))
		add(overlapWorlds[p.Name], job(p, 2))
		// Two ranks on one node: Fig 9 (4 sizes), Fig 10 (7), and the
		// intra-node anchor, which MicroComparisons takes on IBA and Myri.
		intra := 4 + 7
		if p.Name != "QSN" {
			intra++
		}
		add(intra, worldSpec{plat: p, nodes: 1, procs: 2, ppn: 2})
		// The 8-node testbed: Fig 11 and Fig 12 (4 sizes each), Fig 13's
		// 8-node point, the alltoall and allreduce anchors, and the 7 apps
		// Figs 14-17 run on 8 nodes (Table 2's 8-process column reuses them).
		add(4+4+1+2+7, job(p, 8))
		// Four nodes: SP and BT in Figs 14-17, Table 2's 4-process column
		// (7 apps).
		add(2+7, job(p, 4))
		// SMP, 16 ranks on 8 nodes: Table 6 on IBA, Fig 25 on Myri and
		// QSN, 9 apps each.
		add(9, worldSpec{plat: p, nodes: 8, procs: 16, ppn: 2})
		// Ext F under 0.1% and 1% packet loss, 4 sizes each.
		for _, drop := range []float64{0.001, 0.01} {
			add(4, job(experiments.Faulty(p, drop), 2))
		}
		// Ext D's messaging-layer latency and bandwidth wire a network
		// without an MPI world.
		add(2, worldSpec{plat: p, nodes: 2})
	}

	iba := cluster.IBA()
	// Fig 26 (4 sizes) and Fig 27 (7 sizes) on IBA.
	add(4+7, job(iba, 2))
	// Ext A and Ext B at 2, 4 and 8 nodes: each on plain IBA, Ext A on
	// on-demand connections, Ext B on multicast.
	for _, p := range []cluster.Platform{iba, iba, iba.With(cluster.OnDemand()), iba.With(cluster.Multicast())} {
		for _, n := range []int{2, 4, 8} {
			add(1, job(p, n))
		}
	}
	// IBA on PCI: Fig 26, Fig 27 and the PCI bandwidth anchor; Fig 28's
	// SP and BT on 4 nodes and its other 5 apps on 8.
	pci := iba.With(cluster.PCIBus())
	add(4+7+1, job(pci, 2))
	add(2, job(pci, 4))
	add(5, job(pci, 8))
	// Fig 24 on the 16-node Topspin cluster: the apps each process count
	// admits (SP and BT need a square count, FT at least 4).
	topspin := cluster.Topspin()
	add(6, job(topspin, 2))
	add(9, job(topspin, 4))
	add(7, job(topspin, 8))
	add(9, job(topspin, 16))
	// Ext E: IS and MG on the automatic fat tree at 16, 32 and 64 ranks.
	for _, n := range []int{16, 32, 64} {
		add(2, job(cluster.IBAFatTree(n), n))
	}
	// Ext G1 (4 sizes) and Ext G2 (3 sizes) on the IBA+Myri bond: healthy,
	// with the primary rail killed mid-run, and the Myri survivor alone.
	// The kill instant is calibrated per point; a nominal one builds the
	// same network.
	bond := cluster.Bond(cluster.IBA(), cluster.Myri())
	stripe := bond.With(cluster.WithRailPolicy(rail.Stripe))
	railKilled := func(p cluster.Platform) cluster.Platform {
		return p.With(cluster.WithFaults(&faults.Plan{Seed: experiments.FaultSeed,
			RailKills: []faults.RailKill{{Rail: 0, At: units.Millisecond}}}))
	}
	add(4+3, job(bond, 2))
	add(4, job(railKilled(bond), 2))
	add(3, job(stripe, 2))
	add(3, job(railKilled(stripe), 2))
	add(4+3, job(cluster.Myri(), 2))
	// Ext H: ring traffic on the 3-level Clos at 64 and 256 ranks.
	for _, p := range []cluster.Platform{iba, iba.With(cluster.OnDemand()), cluster.Myri(), cluster.QSN()} {
		for _, n := range []int{64, 256} {
			add(1, job(p.With(cluster.Clos(3, 24, 2)), n))
		}
	}
	// Ext I and Ext J run IBA with both routings, Myri and QSN.
	routed := []cluster.Platform{iba, iba.With(cluster.WithRouting(cluster.Adaptive)), cluster.Myri(), cluster.QSN()}
	// Ext I: 4, 16 and 48 senders into one host of a 64-node fat tree.
	for _, p := range routed {
		for _, senders := range []int{4, 16, 48} {
			add(1, worldSpec{plat: p.With(cluster.FatTree(24, 2)), nodes: 64, procs: senders + 1})
		}
	}
	// Ext J: LU on 32 ranks of Clos(3, 8, 1), healthy and with 1 and 2
	// spine planes killed at a quarter of the healthy run.
	for _, p := range routed {
		p = p.With(cluster.Clos(3, 8, 1))
		add(1, worldSpec{plat: p, nodes: 32, procs: 32, ppn: 1})
		for _, k := range []int{1, 2} {
			var kills []faults.SwitchKill
			for i := 0; i < k; i++ {
				kills = append(kills, faults.SwitchKill{Level: 1, Index: i, At: units.Millisecond})
			}
			pk := p.With(cluster.WithSwitchKills(kills...), cluster.WithSeed(experiments.FaultSeed))
			add(1, worldSpec{plat: pk, nodes: 32, procs: 32, ppn: 1})
		}
	}
	return ws
}

// luWorlds are the worlds luOps builds.
func luWorlds(ranks int, observed bool) []worldSpec {
	var ws []worldSpec
	for _, p := range cluster.OSU() {
		ws = append(ws, worldSpec{plat: luPlatform(p), nodes: ranks, procs: ranks, ppn: 1, observed: observed})
	}
	return ws
}

// chaosWorlds are the worlds chaosOps builds: per ChaosSoak call, the
// healthy LU baseline, the two survivable storms, the node crash, the
// fault-tolerant ring healthy and crashed, and the partition. ChaosSoak
// times its faults from the healthy run; the probe uses a nominal instant,
// since the fault times do not change what is built.
func chaosWorlds(seed uint64) []worldSpec {
	const at = units.Millisecond
	tolerant := []cluster.Option{cluster.WithFaultTolerant()}
	crash := cluster.WithNodeCrashes(faults.NodeCrash{Node: 5, At: at})
	var ws []worldSpec
	for _, base := range cluster.OSU() {
		for _, routing := range chaosRoutings {
			p := base.With(cluster.Clos(3, 8, 1))
			if routing == "adaptive" {
				p = p.With(cluster.WithRouting(cluster.Adaptive))
			}
			for _, s := range []uint64{seed, seed + 1} {
				for _, w := range []struct {
					plat cluster.Platform
					opts []cluster.Option
				}{
					{p, nil},
					{p.With(cluster.WithSwitchKills(faults.SwitchKill{Level: 1, Index: 1, At: at, RepairAt: 2 * at}), cluster.WithSeed(s)), nil},
					{p.With(
						cluster.WithSwitchKills(
							faults.SwitchKill{Level: 1, Index: 0, At: at},
							faults.SwitchKill{Level: 1, Index: 2, At: 2 * at, RepairAt: 4 * at}),
						cluster.WithLinecardDegrades(faults.LinecardDegrade{Level: 1, Index: 3, From: at, Until: 4 * at, Drop: 0.05}),
						cluster.WithSeed(s)), nil},
					{p.With(crash, cluster.WithSeed(s)), nil},
					{p, tolerant},
					{p.With(crash, cluster.WithSeed(s)), tolerant},
					{p.With(cluster.WithSwitchKills(
						faults.SwitchKill{Level: 1, Index: 0, At: at}, faults.SwitchKill{Level: 1, Index: 1, At: at},
						faults.SwitchKill{Level: 1, Index: 2, At: at}, faults.SwitchKill{Level: 1, Index: 3, At: at}),
						cluster.WithSeed(s)), nil},
				} {
					ws = append(ws, worldSpec{plat: w.plat, nodes: chaosRanks, procs: chaosRanks, ppn: 1, opts: w.opts})
				}
			}
		}
	}
	return ws
}
