// Package apps implements communication skeletons of the paper's
// application workloads: the NAS Parallel Benchmarks IS, CG, MG, LU, FT, SP
// and BT (class B, as in the paper, plus a tiny class S for tests) and the
// ASCI sweep3D wavefront benchmark at problem sizes 50 and 150.
//
// A skeleton executes the real communication structure of the benchmark —
// the same MPI calls, message sizes, counts, partners and ordering the
// paper's profiles report (Tables 1, 3, 5, 6) — while computation phases
// advance simulated time through a calibrated work model instead of
// numerics. Per-process computation is calibrated once against the paper's
// InfiniBand column of Table 2 (see DESIGN.md §5); everything the paper
// *compares* — network-to-network deltas, speedups, SMP and PCI effects —
// is emergent from the interconnect models.
package apps

import (
	"errors"
	"fmt"
	"sort"

	"mpinet/internal/cluster"
	"mpinet/internal/dev"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// Class selects the problem size.
type Class int

// Problem classes: B is what the paper runs; S is a scaled-down version for
// fast tests.
const (
	ClassS Class = iota
	ClassB
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == ClassS {
		return "S"
	}
	return "B"
}

// App is one runnable workload.
type App struct {
	// Name as the paper spells it (IS, CG, ..., S3D-50).
	Name string
	// SquareProcs requires a perfect-square process count (SP, BT).
	SquareProcs bool
	// MinProcs is the smallest supported world size.
	MinProcs int
	// run executes the skeleton on one rank.
	run func(r *mpi.Rank, class Class, cal calibration)
	// cal returns the computation model for a class.
	cal func(class Class) calibration
}

// calibration is the computation model of one workload: total serial work
// (in rank-seconds on the testbed's 2.4 GHz Xeon) plus per-configuration
// work factors. The factors encode how partition shape and per-rank cache
// residency change the cost of a work unit — they are what make CG and MG
// speed up superlinearly from 4 to 8 processes (and CG sublinearly from 2
// to 4) exactly as Table 2 records. They are calibrated once, against the
// paper's InfiniBand column only; every network-to-network comparison is
// emergent from the interconnect models.
type calibration struct {
	workSeconds float64
	// shape maps a process count to its work factor; missing counts use
	// the nearest smaller calibrated count (1.0 if none).
	shape map[int]float64
}

// perRankCompute is the total computation one of procs ranks performs.
func (c calibration) perRankCompute(procs int) sim.Time {
	return units.FromSeconds(c.workSeconds / float64(procs) * c.shapeFor(procs))
}

func (c calibration) shapeFor(procs int) float64 {
	if f, ok := c.shape[procs]; ok {
		return f
	}
	best, bestP := 1.0, 0
	for p, f := range c.shape {
		if p <= procs && p > bestP {
			best, bestP = f, p
		}
	}
	return best
}

// Result of one application run.
type Result struct {
	App     string
	Net     string
	Class   Class
	Procs   int
	Elapsed sim.Time
	Profile *trace.Profile // aggregate over ranks
	PerRank *trace.Profile // rank 0's profile (the paper's per-rank tables)
	// Utilizations holds per-resource busy accounting when requested.
	Utilizations []dev.Utilization
}

// Registry returns the paper's workloads in its reporting order.
func Registry() []*App {
	return []*App{IS(), CG(), MG(), LU(), FT(), SP(), BT(), Sweep3D(50), Sweep3D(150)}
}

// ErrUnknownApp is the sentinel wrapped by ByName for workload names not
// in the registry; match with errors.Is.
var ErrUnknownApp = errors.New("unknown workload")

// ByName finds a workload.
func ByName(name string) (*App, error) {
	for _, a := range Registry() {
		if a.Name == name {
			return a, nil
		}
	}
	names := make([]string, 0)
	for _, a := range Registry() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("apps: %w %q (have %v)", ErrUnknownApp, name, names)
}

// RunConfig controls one execution.
type RunConfig struct {
	Platform     cluster.Platform
	Class        Class
	Procs        int
	ProcsPerNode int                // default 1; the paper's SMP runs use 2
	Nodes        int                // default Procs/ProcsPerNode
	Timeline     *trace.Timeline    // optional message-event collection
	Metrics      *metrics.Registry  // optional cross-layer instrument registry
	MsgTrace     *msgtrace.Recorder // optional per-message span tracing
	Utilization  bool               // collect per-resource busy accounting
}

// Run executes the workload on a freshly wired testbed and reports timing
// and profile.
func (a *App) Run(cfg RunConfig) (Result, error) {
	if cfg.Procs < a.MinProcs {
		return Result{}, fmt.Errorf("apps: %s needs at least %d processes", a.Name, a.MinProcs)
	}
	if a.SquareProcs && !isSquare(cfg.Procs) {
		return Result{}, fmt.Errorf("apps: %s requires a square number of processes", a.Name)
	}
	ppn := cfg.ProcsPerNode
	if ppn == 0 {
		ppn = 1
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = (cfg.Procs + ppn - 1) / ppn
	}
	w, err := mpi.NewWorld(mpi.Config{
		Net:          cfg.Platform.New(nodes),
		Procs:        cfg.Procs,
		ProcsPerNode: ppn,
		Timeline:     cfg.Timeline,
		Metrics:      cfg.Metrics,
		MsgTrace:     cfg.MsgTrace,
	})
	if err != nil {
		return Result{}, fmt.Errorf("apps: %s on %s: %w", a.Name, cfg.Platform.Name, err)
	}
	cal := a.cal(cfg.Class)
	if err := w.Run(func(r *mpi.Rank) { a.run(r, cfg.Class, cal) }); err != nil {
		return Result{}, fmt.Errorf("apps: %s on %s: %w", a.Name, cfg.Platform.Name, err)
	}
	res := Result{
		App:     a.Name,
		Net:     cfg.Platform.Name,
		Class:   cfg.Class,
		Procs:   cfg.Procs,
		Elapsed: w.Elapsed(),
		Profile: w.AggregateProfile(),
		PerRank: w.Profile(0),
	}
	if cfg.Utilization {
		res.Utilizations = w.Utilizations()
	}
	return res, nil
}

func isSquare(n int) bool {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return true
		}
	}
	return false
}

// grid2 splits procs into a rows x cols grid with cols >= rows, both powers
// of two when procs is (the NPB convention).
func grid2(procs int) (rows, cols int) {
	rows = 1
	cols = procs
	for r := 2; r*r <= procs; r++ {
		if procs%r == 0 {
			rows, cols = r, procs/r
		}
	}
	return rows, cols
}

// grid3 splits procs into a 3D decomposition nx x ny x nz, as even as
// possible (MG's convention).
func grid3(procs int) (nx, ny, nz int) {
	nx, ny, nz = 1, 1, 1
	dims := []*int{&nx, &ny, &nz}
	d := 0
	for p := procs; p > 1; {
		f := smallestFactor(p)
		*dims[d%3] *= f
		p /= f
		d++
	}
	return
}

func smallestFactor(n int) int {
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return f
		}
	}
	return n
}

// ceilDiv is integer division rounding up.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
