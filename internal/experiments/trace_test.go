package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
	"mpinet/internal/rail"
	"mpinet/internal/report"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// TestTraceLatencyDecomposition is the healthy-path acceptance check: a
// traced Figure-1 ping-pong decomposes every message's end-to-end latency
// into stages that sum to it exactly (no residual mystery time beyond the
// explicit "other" bucket), and the aggregate matches the total.
func TestTraceLatencyDecomposition(t *testing.T) {
	for _, p := range cluster.OSU() {
		b, err := traceLatency(p, 1024, 16, 8)
		if err != nil {
			t.Fatalf("%s: traced ping-pong failed: %v", p.Name, err)
		}
		if b.Completed == 0 || len(b.TopK) == 0 {
			t.Fatalf("%s: no completed traced messages (completed=%d)", p.Name, b.Completed)
		}
		var catSum units.Time
		for _, v := range b.Cats {
			catSum += v
		}
		if catSum != b.Total {
			t.Errorf("%s: aggregate categories sum to %v, want total %v", p.Name, catSum, b.Total)
		}
		for _, m := range b.TopK {
			var s units.Time
			for _, v := range m.Cats {
				s += v
			}
			if s != m.E2E() {
				t.Errorf("%s: message %v stages sum to %v, want e2e %v", p.Name, m.ID, s, m.E2E())
			}
		}
		if b.Cats[msgtrace.CatWire] == 0 {
			t.Errorf("%s: no wire time attributed in a cross-node ping-pong", p.Name)
		}
	}
}

// TestTraceBlameDeterministic re-runs the same traced workload and requires
// byte-identical blame JSON — the per-run half of the report's "identical
// at any -j" contract (each world is single-threaded; parallelism across
// experiments cannot touch a world's recorder).
func TestTraceBlameDeterministic(t *testing.T) {
	render := func() string {
		b, err := traceLatency(cluster.IBA(), 4096, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteBlameJSON(&buf, b); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, bb := render(), render()
	if a != bb {
		t.Fatalf("blame JSON not deterministic:\n%s\n---\n%s", a, bb)
	}
	if !strings.Contains(a, "\"category\": \"wire\"") {
		t.Fatalf("blame JSON missing category decomposition:\n%s", a)
	}
}

// TestTraceRetransmitKeepsContext drives a traced ping-pong under seeded
// packet loss and requires the recovery work to stay attached to its
// message: retry wire attempts and backoff spans carry the original
// message ID (Attempt > 0), and no span is an orphan — every recorded span
// belongs to a recorded message root.
func TestTraceRetransmitKeepsContext(t *testing.T) {
	p := Faulty(cluster.IBA(), 0.05)
	rec := msgtrace.New(1)
	w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2, MsgTrace: rec})
	if err := w.Run(func(r *Rank) {
		buf := r.Malloc(1024)
		peer := 1 - r.Rank()
		for i := 0; i < 64; i++ {
			if r.Rank() == 0 {
				r.Send(buf, peer, 0)
				r.Recv(buf, peer, 1)
			} else {
				r.Recv(buf, peer, 0)
				r.Send(buf, peer, 1)
			}
		}
	}); err != nil {
		t.Fatalf("faulty ping-pong failed: %v", err)
	}
	assertNoOrphans(t, rec)
	retries := 0
	for _, s := range rec.Spans() {
		if (s.Stage == msgtrace.StageWire || s.Stage == msgtrace.StageBackoff) && s.Attempt > 0 {
			retries++
		}
	}
	if retries == 0 {
		t.Fatal("5% drop over 128 messages produced no attempt>0 wire/backoff spans")
	}
}

// TestTraceFailoverKeepsContext is satellite coverage for the bond: a
// traced ping-pong across a mid-run RailKill must re-issue the in-flight
// operation with its original trace ID (a StageRail span with Attempt > 0
// whose ID has a recorded root), leave no orphan spans, and stamp the
// failover into the always-on flight ring.
func TestTraceFailoverKeepsContext(t *testing.T) {
	bond := cluster.Bond(cluster.IBA(), cluster.Myri())
	iters := 64

	// Calibrate the kill point from a healthy traced run's midpoint.
	var mid sim.Time
	body := func(r *Rank) {
		buf := r.Malloc(4096)
		peer := 1 - r.Rank()
		start := r.Wtime()
		for i := 0; i < iters; i++ {
			if r.Rank() == 0 {
				r.Send(buf, peer, 0)
				r.Recv(buf, peer, 1)
			} else {
				r.Recv(buf, peer, 0)
				r.Send(buf, peer, 1)
			}
		}
		if r.Rank() == 0 {
			mid = start + (r.Wtime()-start)/2
		}
	}
	w := mpi.MustWorld(mpi.Config{Net: bond.New(2), Procs: 2})
	if err := w.Run(body); err != nil {
		t.Fatalf("healthy bonded ping-pong failed: %v", err)
	}

	killed := railKilled(bond, 0, mid)
	rec := msgtrace.New(1)
	w = mpi.MustWorld(mpi.Config{Net: killed.New(2), Procs: 2, MsgTrace: rec})
	if err := w.Run(body); err != nil {
		t.Fatalf("bonded ping-pong did not survive the rail kill: %v", err)
	}

	assertNoOrphans(t, rec)
	reissued := false
	for _, s := range rec.Spans() {
		if s.Stage == msgtrace.StageRail && s.Attempt > 0 {
			reissued = true
			break
		}
	}
	failovers, railDeaths := 0, 0
	for _, e := range rec.FlightEntries() {
		switch e.Kind {
		case msgtrace.FlightFailover:
			failovers++
			if e.ID == 0 {
				t.Error("failover flight entry carries no message ID")
			}
		case msgtrace.FlightRailDown:
			railDeaths++
		}
	}
	if railDeaths == 0 {
		t.Error("rail kill left no FlightRailDown entry in the flight ring")
	}
	if failovers > 0 && !reissued {
		t.Error("bond failed over but no re-issued StageRail span (attempt > 0) was recorded")
	}
	if failovers == 0 && reissued {
		t.Error("re-issued StageRail span without a FlightFailover entry")
	}
	// The kill must have been detected one way or the other: either an op
	// was in flight (failover + re-issue) or the monitor declared the rail
	// dead between operations and the bond simply routed around it.
	if w.MsgTrace() != rec {
		t.Fatal("world is not using the test's recorder")
	}
}

// TestBondedSpansCarryRail checks NIC span attribution on a bond: on a
// 3-rail Stripe bond whose primary rail is killed mid-run (so later
// messages ride only the other two), every wire, hop and backoff
// span names a member rail, and each message's wire rails are among the
// rails its StageRail dispatch spans name; on a solo network every such
// span carries rail -1.
func TestBondedSpansCarryRail(t *testing.T) {
	const nodes, iters = 4, 24
	var mid sim.Time
	body := func(r *Rank) {
		n := r.Size()
		dst, src := (r.Rank()+1)%n, (r.Rank()+n-1)%n
		start := r.Wtime()
		for i := 0; i < iters; i++ {
			size := int64(256 * units.KB) // striped bulk
			if i%2 == 1 {
				size = 1 * units.KB // eager
			}
			r.Sendrecv(r.Malloc(size), dst, i, r.Malloc(size), src, i)
		}
		if r.Rank() == 0 {
			mid = start + (r.Wtime()-start)/2
		}
	}
	bond := cluster.Bond(cluster.IBA(), cluster.Myri(), cluster.QSN()).
		With(cluster.WithRailPolicy(rail.Stripe))
	if err := mpi.MustWorld(mpi.Config{Net: bond.New(nodes), Procs: nodes}).Run(body); err != nil {
		t.Fatalf("healthy striped run failed: %v", err)
	}
	nicStage := func(st msgtrace.Stage) bool {
		return st == msgtrace.StageWire || st == msgtrace.StageHop || st == msgtrace.StageBackoff
	}

	rec, m := msgtrace.New(1), metrics.New()
	w := mpi.MustWorld(mpi.Config{Net: railKilled(bond, 0, mid).New(nodes), Procs: nodes, MsgTrace: rec, Metrics: m})
	if err := w.Run(body); err != nil {
		t.Fatalf("striped run did not survive the rail kill: %v", err)
	}
	if m.Counter("rail/deaths").Value() == 0 {
		t.Error("the rail kill was never detected (rail/deaths = 0)")
	}
	dispatched := map[msgtrace.ID]map[int8]bool{}
	for _, s := range rec.Spans() {
		if s.Stage == msgtrace.StageRail {
			if dispatched[s.ID] == nil {
				dispatched[s.ID] = map[int8]bool{}
			}
			dispatched[s.ID][s.Rail] = true
		}
	}
	wireRails := map[int8]bool{}
	for _, s := range rec.Spans() {
		if !nicStage(s.Stage) {
			continue
		}
		if s.Rail < 0 || s.Rail >= 3 {
			t.Fatalf("%v span of %v has rail %d, want one of the bond's 3 rails", s.Stage, s.ID, s.Rail)
		}
		if !dispatched[s.ID][s.Rail] {
			t.Fatalf("%v span of %v rode rail %d, which no StageRail span of the message names", s.Stage, s.ID, s.Rail)
		}
		wireRails[s.Rail] = true
	}
	if len(wireRails) < 2 {
		t.Errorf("wire spans rode rails %v, want the stripe spread over several", wireRails)
	}

	rec = msgtrace.New(1)
	if err := mpi.MustWorld(mpi.Config{Net: cluster.IBA().New(nodes), Procs: nodes, MsgTrace: rec}).Run(body); err != nil {
		t.Fatalf("solo run failed: %v", err)
	}
	seen := 0
	for _, s := range rec.Spans() {
		if nicStage(s.Stage) {
			seen++
			if s.Rail != -1 {
				t.Fatalf("solo %v span of %v has rail %d, want -1", s.Stage, s.ID, s.Rail)
			}
		}
	}
	if seen == 0 {
		t.Error("solo run recorded no wire spans")
	}
}

// assertNoOrphans checks the parent/child invariant: every span's ID has a
// recorded message root (sampling is a pure function of the ID, so a
// sampled span implies a sampled Begin).
func assertNoOrphans(t *testing.T, rec *msgtrace.Recorder) {
	t.Helper()
	roots := make(map[msgtrace.ID]bool, len(rec.Msgs()))
	for _, m := range rec.Msgs() {
		roots[m.ID] = true
	}
	for _, s := range rec.Spans() {
		if !roots[s.ID] {
			t.Fatalf("orphan span: stage %v for message %v has no root", s.Stage, s.ID)
		}
	}
}

// TestPostmortem runs the acceptance scenario end to end: the doomed LU
// run fails typed, and the dump + blame report name the failing rank,
// stage and message.
func TestPostmortem(t *testing.T) {
	var buf bytes.Buffer
	if err := Postmortem(&buf, "IBA", 0.01, 0); err != nil {
		t.Fatalf("postmortem: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"job failed typed", "FAILURE", "blamed rank"} {
		if !strings.Contains(out, want) {
			t.Errorf("postmortem output missing %q:\n%s", want, out)
		}
	}
}

// TestObserveTracedOverheadShape guards the sampling contract: the traced
// observability demo and the untraced one simulate the identical workload
// (same simulated elapsed — tracing is observation only, it must never
// perturb virtual time).
func TestObserveTracedOverheadShape(t *testing.T) {
	base, err := ObserveTraced(cluster.IBA(), 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := ObserveTraced(cluster.IBA(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Elapsed() != traced.Elapsed() {
		t.Fatalf("tracing perturbed simulated time: untraced %v, traced %v",
			base.Elapsed(), traced.Elapsed())
	}
	if len(traced.MsgTrace().Spans()) == 0 {
		t.Fatal("traced demo recorded no spans")
	}
	if rails := traced.MsgTrace(); rails == nil {
		t.Fatal("traced world lost its recorder")
	}
}

// traceLatency runs a healthy Figure-1-style cross-node ping-pong with
// every message traced, and returns the blame analysis. The analysis
// decomposes each message's end-to-end latency into stages that sum to it
// exactly — the per-stage view of the paper's latency curves.
func traceLatency(p cluster.Platform, size int64, iters, topK int) (*msgtrace.Blame, error) {
	rec := msgtrace.New(1)
	w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2, MsgTrace: rec})
	err := w.Run(func(r *Rank) {
		buf := r.Malloc(size)
		peer := 1 - r.Rank()
		for i := 0; i < iters; i++ {
			if r.Rank() == 0 {
				r.Send(buf, peer, 0)
				r.Recv(buf, peer, 1)
			} else {
				r.Recv(buf, peer, 0)
				r.Send(buf, peer, 1)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return rec.Analyze(topK), nil
}
