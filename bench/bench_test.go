package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"mpinet/internal/cluster"
	"mpinet/internal/experiments"
)

// testRanks sizes the LU worlds of the tests.
const testRanks = 64

func mustRun(t *testing.T, o op) outcome {
	t.Helper()
	out, err := runOp(o, nil, 0)
	if err != nil {
		t.Fatalf("%s: %v", o.name, err)
	}
	if len(out.digest) != 64 || out.events == 0 {
		t.Fatalf("%s: digest %q, %d events", o.name, out.digest, out.events)
	}
	return out
}

// TestOpsPassChecks runs each kind of op at a test size: plain and
// observed LU on the sharded Clos, and the paper's micro anchors.
func TestOpsPassChecks(t *testing.T) {
	mustRun(t, luOp(luPlatform(cluster.IBA()), testRanks, false))
	obs := mustRun(t, luOp(luPlatform(cluster.Myri()), testRanks, true))
	if obs.analyze <= 0 || obs.snapshot <= 0 {
		t.Errorf("observed LU: analyze %v, snapshot %v", obs.analyze, obs.snapshot)
	}
	r := experiments.NewRunner(true, nil)
	r.Jobs = 1
	paper := mustRun(t, op{name: "MicroComparisons", run: func(*tracer, int) (outcome, error) { return microComparisons(r) }})
	if paper.paperErr < 1 || paper.paperErr > 20 {
		t.Errorf("paper error %.2f%%, want a few percent", paper.paperErr)
	}
}

// TestOpRepeats checks that two runs of one op give the same digest and
// event count, the property every iteration is checked against.
func TestOpRepeats(t *testing.T) {
	o := luOp(luPlatform(cluster.QSN()), testRanks, false)
	a, b := mustRun(t, o), mustRun(t, o)
	if a.digest != b.digest || a.events != b.events {
		t.Errorf("repeat differs: %s/%d vs %s/%d", a.digest, a.events, b.digest, b.events)
	}
}

// TestShardCountInvariant runs a 256-rank Clos LU at one and two shards;
// the shard count is an execution knob and must not change the output.
func TestShardCountInvariant(t *testing.T) {
	var digests []string
	for _, shards := range []int{1, 2} {
		p := cluster.IBA().With(cluster.Clos(3, 24, 2), cluster.WithShards(shards))
		digests = append(digests, mustRun(t, luOp(p, 256, false)).digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("1 shard %s, 2 shards %s", digests[0], digests[1])
	}
}

// TestChaosSoakSeeds runs one chaos net at the default seed and at seed+7:
// both must pass their contract, and the seed must reach the transcript.
func TestChaosSoakSeeds(t *testing.T) {
	seed := experiments.FaultSeed
	a := mustRun(t, chaosOp("IBA", "deterministic", seed))
	b := mustRun(t, chaosOp("IBA", "deterministic", seed+7))
	if a.digest == b.digest {
		t.Errorf("seed %d and %d give the same transcript", seed, seed+7)
	}
}

// TestPaperWorldsBuild builds paper_quick's setup-probe worlds once: each
// must wire without error, and the table must keep the counts its comment
// documents.
func TestPaperWorldsBuild(t *testing.T) {
	specs := paperWorlds()
	worlds := 0
	for _, s := range specs {
		w, _, _, err := s.build(nil, 0)
		if err != nil {
			t.Fatalf("%s on %d nodes: %v", s.plat.Name, s.nodes, err)
		}
		if w != nil {
			worlds++
		}
	}
	if len(specs) != 691 || worlds != 685 {
		t.Errorf("%d builds, %d worlds; want 691 and 685", len(specs), worlds)
	}
}

// TestPanicIsCountedFailure checks that a panicking op is recovered at the
// op boundary, counted, reported with its text, and makes the run
// incorrect.
func TestPanicIsCountedFailure(t *testing.T) {
	w := workload{
		name:    "panics",
		nominal: time.Second,
		ops: func(uint64) []op {
			return []op{{name: "boom", run: func(*tracer, int) (outcome, error) { panic("kaboom") }}}
		},
		worlds: func(uint64) []worldSpec { return []worldSpec{{plat: cluster.IBA(), nodes: 2, procs: 2}} },
	}
	rec := measure(w, runConfig{seconds: time.Second, log: io.Discard})
	if rec.Failed < warmupIters+minIters || !strings.Contains(strings.Join(rec.Errors, "\n"), "panic: kaboom") {
		t.Fatalf("failed %d, errors %q", rec.Failed, rec.Errors)
	}
	if _, ok := summarize(rec, false); ok {
		t.Error("a run with failed ops summarized as correct")
	}
}

// TestParseTraces checks the attribution parser against a committed
// `go tool pprof -traces` excerpt: each sample goes to its innermost
// mpinet/internal package, unlisted packages and benchmark frames to
// "other", and samples without module frames to "go.background".
func TestParseTraces(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "traces.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 0.02, "go.background": 0.02, "fabric": 0.01, "mpi": 0.01, "gm": 0.01,
		"bus": 0.01, "apps": 0.01, "other": 0.03, "msgtrace": 1.2,
	}
	for _, l := range layers {
		if math.Abs(got[l]-want[l]) > 1e-9 {
			t.Errorf("%s: got %gs, want %gs", l, got[l], want[l])
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
}

// benchmarkDecl is the part of BENCHMARK.json the name check reads.
type benchmarkDecl struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestPrintedMetricsMatchDeclaration runs a small traced workload and
// checks that the printed metrics and the JSON line name exactly the
// metrics BENCHMARK.json declares, with the declared units, and that the
// layer CPU shares sum to 100%.
func TestPrintedMetricsMatchDeclaration(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, d := range append(decl.EndToEnd, decl.PerLayer...) {
		declared[d.Name] = d.Unit
	}

	p := luPlatform(cluster.IBA())
	w := workload{
		name:    "small_lu",
		nominal: time.Second,
		ops:     func(uint64) []op { return []op{luOp(p, testRanks, false)} },
		worlds:  func(uint64) []worldSpec { return []worldSpec{{plat: p, nodes: testRanks, procs: testRanks, ppn: 1}} },
	}
	dir := t.TempDir()
	rec := measure(w, runConfig{seed: experiments.FaultSeed, seconds: time.Second, trace: true, outDir: dir, log: io.Discard})
	if rec.Failed != 0 {
		t.Fatalf("traced run failed: %q", rec.Errors)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace_small_lu.json")); err != nil {
		t.Error(err)
	}

	var out bytes.Buffer
	printMetrics(&out, rec, append(append([]metricDef(nil), endToEnd...), perLayer...))
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	printed := map[string]bool{}
	shares := 0.0
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "small_lu" {
			t.Fatalf("malformed line %q", line)
		}
		name, unit := f[1], f[3]
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q", name)
		}
		if u, ok := declared[name]; !ok || u != unit {
			t.Errorf("printed %s %s, declared unit %q (declared: %v)", name, unit, u, ok)
		}
		printed[name] = true
		if strings.HasSuffix(name, ".cpu_share") {
			for _, m := range rec.Metrics {
				if m.Name == name {
					shares += m.Value
				}
			}
		}
	}
	for name := range declared {
		if !printed[name] {
			t.Errorf("declared metric %s not printed", name)
		}
	}
	if math.Abs(shares-100) > 1 {
		t.Errorf("cpu shares sum to %.2f%%", shares)
	}
	for _, trace := range []bool{false, true} {
		res, ok := summarize(rec, trace)
		want := decl.EndToEnd
		if trace {
			want = decl.PerLayer
		}
		if !ok || len(res.Metrics) != len(want) {
			t.Errorf("trace %v: correct %v, %d metrics, want %d", trace, ok, len(res.Metrics), len(want))
		}
		for _, d := range want {
			if m, found := res.Metrics[d.Name]; !found || m.Unit != d.Unit {
				t.Errorf("trace %v: JSON line lacks %s %s", trace, d.Name, d.Unit)
			}
		}
	}
}
