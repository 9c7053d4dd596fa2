package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/mpi"
	"mpinet/internal/sim"
)

// runObserve runs the demo and fails the test on simulation error.
func runObserve(t *testing.T, p cluster.Platform) *mpi.World {
	t.Helper()
	w, err := ObserveTraced(p, 0)
	if err != nil {
		t.Fatalf("ObserveTraced(%s, 0): %v", p.Name, err)
	}
	return w
}

// TestObserveDeterministic runs the instrumented demo twice and requires the
// rendered snapshot and the Chrome trace to be byte-identical — the
// registry's determinism contract, end to end.
func TestObserveDeterministic(t *testing.T) {
	render := func() (string, string) {
		w := runObserve(t, cluster.IBA())
		var snap, chrome bytes.Buffer
		w.Metrics().Snapshot().RenderGrouped(&snap)
		if err := w.WriteChromeTrace(&chrome); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		return snap.String(), chrome.String()
	}
	s1, c1 := render()
	s2, c2 := render()
	if s1 != s2 {
		t.Error("two identical instrumented runs rendered different snapshots")
	}
	if c1 != c2 {
		t.Error("two identical instrumented runs emitted different Chrome traces")
	}
}

// TestObserveNeutral requires that enabling instrumentation does not change
// simulated time: the same workload with metrics off must finish at the
// identical picosecond.
func TestObserveNeutral(t *testing.T) {
	for _, p := range cluster.OSU() {
		instrumented := runObserve(t, p).Elapsed()

		bare := mpi.MustWorld(mpi.Config{
			Net:          p.New(observeNodes),
			Procs:        observeNodes * observePPN,
			ProcsPerNode: observePPN,
		})
		if err := bare.Run(func(r *Rank) { observeBody(r) }); err != nil {
			t.Fatalf("%s bare run: %v", p.Name, err)
		}
		if bare.Elapsed() != instrumented {
			t.Errorf("%s: instrumentation perturbed the run: %v with metrics vs %v without",
				p.Name, instrumented, bare.Elapsed())
		}
	}
}

// TestObserveChromeTrace checks the exported trace is valid JSON with spans
// from at least three model layers and per-rank message instants.
func TestObserveChromeTrace(t *testing.T) {
	w := runObserve(t, cluster.QSN())
	var b bytes.Buffer
	if err := w.WriteChromeTrace(&b); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	instants := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			cats[e.Cat] = true
		case "i":
			instants++
		}
	}
	if len(cats) < 3 {
		t.Errorf("want spans from >= 3 layers, got %v", cats)
	}
	if instants == 0 {
		t.Error("no timeline instants in the trace")
	}
}

// TestObserveGMPinCache checks the Figure 7/8 quantity: a Myrinet run with
// buffer reuse must show both pin-down cache misses (first touch) and hits
// (reuse), and registration must have cost NIC time.
func TestObserveGMPinCache(t *testing.T) {
	w := runObserve(t, cluster.Myri())
	snap := w.Metrics().Snapshot().Merged()
	hits, _ := snap.Get("pin/hits")
	misses, _ := snap.Get("pin/misses")
	if hits == 0 || misses == 0 {
		t.Errorf("GM run: want nonzero pin-cache hits and misses, got hits=%d misses=%d", hits, misses)
	}
	if rt, _ := snap.Get("pin/reg_time"); rt == 0 {
		t.Error("GM run: registration time not accounted")
	}
}

// TestObserveCrossLayerCounters spot-checks that every instrumented layer
// actually recorded traffic during the demo.
func TestObserveCrossLayerCounters(t *testing.T) {
	w := runObserve(t, cluster.IBA())
	snap := w.Metrics().Snapshot().Merged()
	for _, name := range []string{
		"engine/events_dispatched", // sim core
		"bus/dma_bytes",            // I/O bus
		"nic/eager_msgs",           // NIC protocol
		"nic/rndv_msgs",            // NIC protocol (1 MB pong forces rendezvous)
		"link/up/bytes",            // fabric
		"shmem/copies",             // intra-node channel
		"mpi/req{<2K}/count",       // MPI request accounting
	} {
		if v, ok := snap.Get(name); !ok || v == 0 {
			t.Errorf("%s: want nonzero (ok=%v v=%d)", name, ok, v)
		}
	}
	if hw, _ := snap.Get("mpi/posted_depth"); hw == 0 {
		t.Error("posted-queue high water never moved")
	}
	if d, ok := w.Metrics().Snapshot().Get("metrics/spans_dropped"); ok {
		t.Errorf("span log overflowed: %d dropped", d)
	}
	if elapsed := w.Elapsed(); elapsed <= 0 {
		t.Errorf("demo elapsed %v", sim.Time(elapsed))
	}
}

// TestPlatformByName resolves the commands' interconnect names in any case
// and rejects anything else.
func TestPlatformByName(t *testing.T) {
	for in, want := range map[string]string{"IBA": "IBA", "myri": "Myri", "Qsn": "QSN", "nope": ""} {
		p, err := PlatformByName(in)
		if (err != nil) != (want == "") || p.Name != want {
			t.Errorf("PlatformByName(%q) = (%q, %v), want %q", in, p.Name, err, want)
		}
	}
}
