package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// Run-shape constants. The measured phase runs workload.iterations
// iterations, at least minIters. Before each iteration the setup probe
// runs for setupBurst: spread over the run instead of done in one block,
// its samples see the host at several moments, which steadies their median
// on a host whose speed drifts.
const (
	warmupIters = 1
	minIters    = 2
	setupBurst  = 250 * time.Millisecond
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed with --trace 1.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count"},
		{"sim.events_per_s", "1/s"},
		{"sim.ns_per_event", "ns"},
		{"go.cpu_s", "s"},
		{"go.allocs_per_event", "count"},
		{"go.gc_cpu_share", "ratio"},
		{"go.gc_cycles", "count"},
		{"go.leaked_goroutines", "count"},
		{"go.sched_latency_p50_us", "us"},
		{"cluster.build_s", "s"},
		{"mpi.new_world_s", "s"},
		{"mpi.domain_split_share", "ratio"},
		{"msgtrace.analyze_share", "ratio"},
		{"metrics.snapshot_share", "ratio"},
		{"mpi.observe_skew_ns", "sim_ns"},
		{"paper_err_pct", "%"},
		{"bench.trace_overhead_pct", "%"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "%"})
	}
	for _, p := range probes() {
		defs = append(defs, metricDef{p.name, "ns"})
	}
	return defs
}()

// metric is one measured value. Timings taken over several samples carry
// their quartiles and sample count.
type metric struct {
	Name  string  `json:"name"`         // as declared in BENCHMARK.json
	Value float64 `json:"value"`        // the median, for timings
	Unit  string  `json:"unit"`         // as declared in BENCHMARK.json
	Q1    float64 `json:"q1,omitempty"` // first quartile of the samples
	Q3    float64 `json:"q3,omitempty"` // third quartile of the samples
	N     int     `json:"n,omitempty"`  // sample count
}

// record is everything one workload run measured.
type record struct {
	Workload  string            `json:"workload"`         // workload name
	Seed      uint64            `json:"seed"`             // --seed
	Host      host              `json:"host"`             // where it ran
	Attempted int               `json:"attempted"`        // ops run
	Failed    int               `json:"failed"`           // ops that failed
	Errors    []string          `json:"errors,omitempty"` // one line per failure
	Digests   map[string]string `json:"digests"`          // op name -> sha256 of its output
	Metrics   []metric          `json:"metrics"`          // sorted by name
}

// host identifies the machine and toolchain a record was measured on.
type host struct {
	NProc      int    `json:"nproc"`      // runtime.NumCPU
	GOMAXPROCS int    `json:"gomaxprocs"` // runtime.GOMAXPROCS(0)
	GoVersion  string `json:"go_version"` // runtime.Version
	OS         string `json:"os"`         // runtime.GOOS
	Arch       string `json:"arch"`       // runtime.GOARCH
}

// metric looks a measured metric up by name.
func (r record) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func thisHost() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}
}

// runConfig is one workload run's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	// outDir, when set, receives the record and the traced pass's spans.
	outDir string
	log    io.Writer
}

// session runs one workload and accumulates what it measured.
type session struct {
	w   workload
	cfg runConfig
	rec record
	// ref holds the warm-up iteration's outcomes, which every later
	// iteration must reproduce.
	ref []outcome
	// outcomes of the measured iterations, and their wall times.
	measured [][]outcome
	walls    []time.Duration
	// setup probe samples, one per repetition of the workload's world set,
	// and how many of its worlds run domain-split.
	specs              []worldSpec
	setupNet, setupMPI []float64
	split              int
	setupErr           error
}

// measure runs workload w: with cfg.trace the layer probes, then the
// warm-up and the measured iterations, each after a burst of the setup
// probe, and with cfg.trace the skew gauge and the traced pass.
func measure(w workload, cfg runConfig) record {
	s := &session{
		w:   w,
		cfg: cfg,
		rec: record{Workload: w.name, Seed: cfg.seed, Host: thisHost(), Digests: map[string]string{}},
	}
	s.specs = w.worlds(cfg.seed)
	if cfg.trace {
		// First, while the heap is small, so every workload's probes see
		// the same process state.
		s.layerProbes()
	}
	s.logf("warm-up")
	for i := 0; i < warmupIters; i++ {
		s.setupBurst()
		_, s.ref = s.iteration(nil, nil)
	}
	s.runMeasured()
	s.setupMetrics()
	if cfg.trace {
		s.skew()
		s.traced()
	}
	sort.Slice(s.rec.Metrics, func(i, j int) bool { return s.rec.Metrics[i].Name < s.rec.Metrics[j].Name })
	return s.rec
}

func (s *session) logf(format string, args ...any) {
	fmt.Fprintf(s.cfg.log, "bench: %s: "+format+"\n", append([]any{s.w.name}, args...)...)
}

// set records a metric; a value that is not a finite number is a failure.
func (s *session) set(m metric) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		s.fail(m.Name, fmt.Errorf("measured %v", m.Value))
		m.Value = 0
	}
	s.rec.Metrics = append(s.rec.Metrics, m)
}

// fail records a failed op.
func (s *session) fail(name string, err error) {
	s.rec.Failed++
	s.rec.Errors = append(s.rec.Errors, fmt.Sprintf("%s: %v", name, err))
	s.logf("FAILED %s: %v", name, err)
}

// iteration runs one iteration's ops in order, checking each against the
// reference when there is one, and returns its wall time and outcomes.
// With use non-nil it adds the iteration's Go runtime work to it.
func (s *session) iteration(tr *tracer, use *runtimeUse) (time.Duration, []outcome) {
	// Start every iteration from a collected heap, so the GC work an
	// iteration pays does not depend on what ran before it.
	runtime.GC()
	var r0 runtimeRead
	if use != nil {
		r0 = readRuntime()
	}
	ops := s.w.ops(s.cfg.seed)
	outs := make([]outcome, len(ops))
	root := tr.begin("iteration", 0)
	t0 := time.Now()
	for i, o := range ops {
		id := tr.begin(o.name, root)
		out, err := runOp(o, tr, id)
		tr.end(id)
		s.rec.Attempted++
		if err == nil && s.ref != nil && (out.digest != s.ref[i].digest || out.events != s.ref[i].events) {
			err = fmt.Errorf("output differs from the warm-up iteration (digest %.12s events %d, want %.12s events %d)",
				out.digest, out.events, s.ref[i].digest, s.ref[i].events)
		}
		if err != nil {
			s.fail(o.name, err)
			continue
		}
		outs[i] = out
		s.rec.Digests[o.name] = out.digest
	}
	wall := time.Since(t0)
	tr.end(root)
	if use != nil {
		use.add(r0, readRuntime())
	}
	return wall, outs
}

// setupBurst runs the build-only probe for setupBurst, at least once: the
// workload's worlds are wired and discarded without Run, and each
// repetition of the whole set is one sample.
func (s *session) setupBurst() {
	runtime.GC() // the previous iteration's garbage is not set-up work
	for start := time.Now(); s.setupErr == nil; {
		var net, world time.Duration
		for _, spec := range s.specs {
			w, dn, dw, err := spec.build(nil, 0)
			if err != nil {
				s.setupErr = err
				s.fail("setup", err)
				return
			}
			net += dn
			world += dw
			if len(s.setupNet) == 0 && w != nil && w.ScaleMode() {
				s.split++
			}
		}
		s.setupNet = append(s.setupNet, net.Seconds())
		s.setupMPI = append(s.setupMPI, world.Seconds())
		if time.Since(start) >= setupBurst {
			return
		}
	}
}

// setupMetrics reduces the setup probe's samples.
func (s *session) setupMetrics() {
	if s.setupErr != nil {
		return
	}
	total := make([]float64, len(s.setupNet))
	for i := range total {
		total[i] = s.setupNet[i] + s.setupMPI[i]
	}
	worlds := 0
	for _, spec := range s.specs {
		if spec.procs > 0 {
			worlds++
		}
	}
	s.logf("setup: %d builds x %d reps", len(s.specs), len(total))
	s.set(summary("setup_s", "s", total))
	s.set(summary("cluster.build_s", "s", s.setupNet))
	s.set(summary("mpi.new_world_s", "s", s.setupMPI))
	s.set(metric{Name: "mpi.domain_split_share", Value: float64(s.split) / float64(worlds), Unit: "ratio"})
}

// runtimeRead is one read of the Go runtime state an iteration differences.
type runtimeRead struct {
	ms  []metrics.Sample
	cpu time.Duration // process user + system time
}

func readRuntime() runtimeRead {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeRead{ms: ms, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

// runtimeUse is the Go runtime work of the measured iterations, summed.
type runtimeUse struct {
	cpu     time.Duration
	allocs  uint64  // heap objects allocated
	cycles  uint64  // GC cycles
	gcCPU   float64 // GC CPU seconds, the runtime's estimate
	busyCPU float64 // CPU seconds of every class but idle, the runtime's estimate
	sched   []uint64
	buckets []float64 // bounds of the scheduling-latency histogram sched counts
}

// add accumulates the work done between two reads.
func (u *runtimeUse) add(a, b runtimeRead) {
	u.cpu += b.cpu - a.cpu
	u.allocs += b.ms[0].Value.Uint64() - a.ms[0].Value.Uint64()
	u.cycles += b.ms[1].Value.Uint64() - a.ms[1].Value.Uint64()
	u.gcCPU += b.ms[2].Value.Float64() - a.ms[2].Value.Float64()
	u.busyCPU += (b.ms[3].Value.Float64() - b.ms[4].Value.Float64()) - (a.ms[3].Value.Float64() - a.ms[4].Value.Float64())
	hb, ha := b.ms[5].Value.Float64Histogram(), a.ms[5].Value.Float64Histogram()
	if u.sched == nil {
		u.sched, u.buckets = make([]uint64, len(hb.Counts)), hb.Buckets
	}
	for i := range hb.Counts {
		u.sched[i] += hb.Counts[i] - ha.Counts[i]
	}
}

// peakRSSMB is the process's peak resident set (Linux reports Maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// runMeasured runs the measured iterations with tracing off.
func (s *session) runMeasured() {
	var use runtimeUse
	// Collect first, so goroutines that are exiting (a finished sharded
	// run's workers) do not count on either side.
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	for i := s.w.iterations(s.cfg.seconds); i > 0; i-- {
		s.setupBurst()
		wall, outs := s.iteration(nil, &use)
		s.logf("iteration %d: %.3fs", len(s.walls)+1, wall.Seconds())
		s.walls = append(s.walls, wall)
		s.measured = append(s.measured, outs)
	}
	runtime.GC()
	leaked := runtime.NumGoroutine() - goroutines
	s.set(metric{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB"})

	secs := make([]float64, len(s.walls))
	var wallSum float64
	for i, w := range s.walls {
		secs[i] = w.Seconds()
		wallSum += secs[i]
	}
	run := summary("run_s", "s", secs)
	s.set(run)
	s.logf("run_s median %.4f over %d iterations", run.Value, run.N)

	var events uint64
	var analyze, snapshot time.Duration
	paperErr := 0.0
	for _, o := range s.ref {
		events += o.events
		paperErr += o.paperErr
	}
	for _, outs := range s.measured {
		for _, o := range outs {
			analyze += o.analyze
			snapshot += o.snapshot
		}
	}
	n := float64(len(s.walls))
	s.set(metric{Name: "sim.events", Value: float64(events), Unit: "count"})
	s.set(metric{Name: "sim.events_per_s", Value: float64(events) / run.Value, Unit: "1/s"})
	s.set(metric{Name: "sim.ns_per_event", Value: run.Value * 1e9 / float64(events), Unit: "ns"})
	s.set(metric{Name: "go.cpu_s", Value: use.cpu.Seconds() / n, Unit: "s"})
	s.set(metric{Name: "go.allocs_per_event", Value: float64(use.allocs) / (float64(events) * n), Unit: "count"})
	s.set(metric{Name: "go.gc_cpu_share", Value: use.gcCPU / use.busyCPU, Unit: "ratio"})
	s.set(metric{Name: "go.gc_cycles", Value: float64(use.cycles) / n, Unit: "count"})
	s.set(metric{Name: "go.leaked_goroutines", Value: float64(leaked) / n, Unit: "count"})
	s.set(metric{Name: "go.sched_latency_p50_us", Value: histMedian(use.sched, use.buckets) * 1e6, Unit: "us"})
	s.set(metric{Name: "msgtrace.analyze_share", Value: analyze.Seconds() / wallSum, Unit: "ratio"})
	s.set(metric{Name: "metrics.snapshot_share", Value: snapshot.Seconds() / wallSum, Unit: "ratio"})
	s.set(metric{Name: "paper_err_pct", Value: paperErr, Unit: "%"})
}

// layerProbes times the public calls of single layers.
func (s *session) layerProbes() {
	for _, p := range probes() {
		runtime.GC()
		ns, err := runProbe(p)
		s.rec.Attempted++
		if err != nil {
			s.fail(p.name, err)
		}
		s.set(metric{Name: p.name, Value: ns, Unit: "ns"})
	}
}

// skew runs an observing workload's ops once with observation off and sums
// the difference in simulated time between each observed run and its
// unobserved twin: a contract gauge (observation must not change a run),
// not a speed. Other workloads report 0.
func (s *session) skew() {
	total := 0.0
	if s.w.unobserved != nil {
		s.logf("skew: running the ops once unobserved")
		for i, o := range s.w.unobserved() {
			out, err := runOp(o, nil, 0)
			s.rec.Attempted++
			if err != nil {
				s.fail(o.name, err)
				continue
			}
			total += math.Abs(float64(out.elapsed - s.ref[i].elapsed))
		}
	}
	s.set(metric{Name: "mpi.observe_skew_ns", Value: total / 1e3, Unit: "sim_ns"})
}

// traced runs one more iteration under the CPU profiler with spans on,
// checks it reproduces the untraced outputs, and charges the profile to the
// layers.
func (s *session) traced() {
	tr := newTracer()
	s.tracedSetup(tr)

	f, err := os.CreateTemp("", "bench-cpu-*.pprof")
	if err != nil {
		s.fail("traced pass", err)
		return
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		s.fail("traced pass", err)
		return
	}
	wall, _ := s.iteration(tr, nil)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		s.fail("traced pass", err)
		return
	}
	run, _ := s.rec.metric("run_s")
	s.set(metric{Name: "bench.trace_overhead_pct", Value: 100 * (wall.Seconds() - run.Value) / run.Value, Unit: "%"})

	byLayer, err := profileLayers(f.Name())
	if err != nil {
		s.fail("traced pass", err)
		byLayer = map[string]float64{}
	}
	total := 0.0
	for _, v := range byLayer {
		total += v
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * byLayer[l] / total
		}
		s.set(metric{Name: l + ".cpu_share", Value: share, Unit: "%"})
	}
	s.logf("traced pass: %.2fs, %.2fs of CPU samples", wall.Seconds(), total)

	if s.cfg.outDir != "" {
		if err := writeFile(filepath.Join(s.cfg.outDir, "trace_"+s.w.name+".json"), tr.writeChrome); err != nil {
			s.fail("traced pass", err)
		}
	}
}

// tracedSetup builds the workload's worlds once more with spans around
// each layer call, so the span file shows set-up beside the run.
func (s *session) tracedSetup(tr *tracer) {
	root := tr.begin("setup", 0)
	for _, spec := range s.specs {
		if _, _, _, err := spec.build(tr, root); err != nil {
			s.fail("traced setup", err)
		}
	}
	tr.end(root)
}

// summary reduces samples to their median, with quartiles and count.
func summary(name, unit string, samples []float64) metric {
	q1, med, q3 := quartiles(samples)
	return metric{Name: name, Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
}

// quartiles returns the quartiles of samples by the exclusive method
// (Python's statistics.quantiles default).
func quartiles(samples []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), samples...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// histMedian is the median of a histogram's samples, interpolated linearly
// inside its bucket.
func histMedian(counts []uint64, buckets []float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	half, seen := float64(total)/2, 0.0
	for i, c := range counts {
		if c > 0 && seen+float64(c) >= half {
			lo, hi := buckets[i], buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return lo + (hi-lo)*(half-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
