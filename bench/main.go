// Command bench is mpinet's end-to-end benchmark. It drives the simulator
// through the public functions of its packages, times each call from the
// outside, checks that every op reproduces its output, and prints every
// metric by name with its unit.
//
// Usage:
//
//	go run . [-o DIR] [--seed N] [--seconds S] [--trace 0|1]
//	go run . --workload NAME [...]
//
// Without --workload every workload runs in a child process of its own, so
// peak RSS and GC state are per workload. Each run builds the workload's
// worlds without running them (setup), runs one warm-up iteration, then
// measured iterations with tracing off for --seconds. With --trace 1 it
// also times the layer probes and runs one traced iteration under the CPU
// profiler. The last line of standard output is a JSON summary: with
// --trace 0 it carries the end-to-end metrics, with --trace 1 the per-layer
// ones. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"mpinet/internal/experiments"
)

// defaultSeconds is the measured time per workload; BENCHMARK.json's
// run_seconds matches it.
const defaultSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags and runs one workload, or every workload in child
// processes, returning the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", experiments.FaultSeed, "seed of the workloads that draw randomness (chaos_soak)")
	seconds := fs.Int("seconds", defaultSeconds, "seconds of measured iterations per workload")
	traceFlag := fs.Int("trace", 1, "1 adds the layer probes and a traced iteration; 0 measures end to end only")
	out := fs.String("o", "", "directory for results and span files (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [--workload NAME] [--seed N] [--seconds S>=1] [--trace 0|1] [-o DIR]")
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traceFlag == 1,
		outDir:  *out,
		log:     stderr,
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if *name == "" {
		return runAll(cfg, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rec := measure(w, cfg)
	if cfg.outDir != "" {
		path := filepath.Join(cfg.outDir, "results_"+w.name+".json")
		if err := writeFile(path, func(f io.Writer) error { return writeJSON(f, rec) }); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			rec.Failed++
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	printMetrics(stdout, rec, defs)
	sum, ok := summarize(rec, cfg.trace)
	if err := json.NewEncoder(stdout).Encode(sum); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// printMetrics writes one line per metric: workload, name, value, unit, and
// for timings over several samples their quartiles and count.
func printMetrics(w io.Writer, rec record, defs []metricDef) {
	for _, d := range defs {
		m, ok := rec.metric(d.name)
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %s %s", rec.Workload, m.Name, num(m.Value), m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" q1=%s q3=%s n=%d", num(m.Q1), num(m.Q3), m.N)
		}
		fmt.Fprintln(w, line)
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// result is the JSON object the last line of standard output carries.
type result struct {
	Correct   bool                 `json:"correct"`   // no op failed, every metric measured
	Attempted int                  `json:"attempted"` // ops run
	Failed    int                  `json:"failed"`    // ops that failed
	Metrics   map[string]valueUnit `json:"metrics"`   // by metric name
}

// valueUnit is one metric of the JSON line.
type valueUnit struct {
	Value float64 `json:"value"` // as measured, all digits
	Unit  string  `json:"unit"`  // as declared in BENCHMARK.json
}

// summarize builds the final JSON line: the end-to-end metrics, or with
// trace the per-layer ones. It is correct only when no op failed and every
// metric was measured.
func summarize(rec record, trace bool) (result, bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	s := result{Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]valueUnit{}}
	ok := rec.Failed == 0
	for _, d := range defs {
		m, found := rec.metric(d.name)
		if !found {
			ok = false
			m.Value = 0
		}
		s.Metrics[d.name] = valueUnit{m.Value, d.unit}
	}
	if s.Attempted < 1 {
		s.Attempted = 1
		ok = false
	}
	s.Correct = ok
	return s, ok
}

// runAll runs every workload in a child process of this binary, streaming
// the children's output, and with -o merges their records into
// DIR/results.json.
func runAll(cfg runConfig, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	status := 0
	var recs []record
	for _, w := range workloads() {
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.Itoa(int(cfg.seconds / time.Second)), "--trace", trace}
		if cfg.outDir != "" {
			args = append(args, "-o", cfg.outDir)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			status = 1
		}
		if cfg.outDir == "" {
			continue
		}
		var rec record
		if err := readJSON(filepath.Join(cfg.outDir, "results_"+w.name+".json"), &rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			status = 1
			continue
		}
		recs = append(recs, rec)
	}
	if cfg.outDir != "" {
		all := map[string]any{"host": thisHost(), "seed": cfg.seed, "workloads": recs}
		if err := writeFile(filepath.Join(cfg.outDir, "results.json"), func(f io.Writer) error { return writeJSON(f, all) }); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			status = 1
		}
	}
	return status
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
