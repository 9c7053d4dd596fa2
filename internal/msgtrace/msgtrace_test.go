package msgtrace

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mpinet/internal/reclog"
	"mpinet/internal/units"
)

// TestIDRoundTrip pins the ID packing: rank and sequence survive the
// round trip, the zero ID stays reserved, and rendering matches the
// "s<rank>.<seq>" convention the dumps use.
func TestIDRoundTrip(t *testing.T) {
	for _, c := range []struct {
		rank int
		seq  int64
	}{{0, 1}, {0, 2}, {7, 1}, {1023, 1 << 30}} {
		id := MakeID(c.rank, c.seq)
		if id == 0 {
			t.Fatalf("MakeID(%d, %d) collides with the reserved zero ID", c.rank, c.seq)
		}
		if id.Rank() != c.rank || id.Seq() != c.seq {
			t.Errorf("MakeID(%d, %d) round-trips to (%d, %d)", c.rank, c.seq, id.Rank(), id.Seq())
		}
	}
	if got := MakeID(3, 7).String(); got != "s3.7" {
		t.Errorf("ID string = %q, want s3.7", got)
	}
	if got := ID(0).String(); got != "-" {
		t.Errorf("zero ID string = %q, want -", got)
	}
}

// TestSampledIsPureFunctionOfID is the no-coordination contract: any two
// recorders built with the same rate agree on every ID, the zero ID is
// never sampled, and 1-in-N sampling picks exactly the 1st, N+1st, ...
// send of each rank.
func TestSampledIsPureFunctionOfID(t *testing.T) {
	a, b := New(4), New(4)
	sampled := 0
	for rank := 0; rank < 3; rank++ {
		for seq := int64(1); seq <= 16; seq++ {
			id := MakeID(rank, seq)
			if a.Sampled(id) != b.Sampled(id) {
				t.Fatalf("recorders disagree on %v", id)
			}
			if want := (seq-1)%4 == 0; a.Sampled(id) != want {
				t.Errorf("Sampled(%v) = %v at 1-in-4, want %v", id, a.Sampled(id), want)
			}
			if a.Sampled(id) {
				sampled++
			}
		}
	}
	if sampled != 12 {
		t.Errorf("sampled %d of 48 at 1-in-4, want 12", sampled)
	}
	if a.Sampled(0) {
		t.Error("the zero ID must never be sampled")
	}
	if Disabled().Sampled(MakeID(0, 1)) {
		t.Error("a disabled recorder must sample nothing")
	}
}

// TestNilRecorderIsSafe drives the whole surface through a nil receiver:
// every method the model layers call unconditionally must be a no-op.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	id := MakeID(0, 1)
	r.Begin(id, 0, 1, 0, 64, KindEager, 0)
	r.Span(id, StageWire, 0, 0, 0, -1, 0, 10, 64)
	r.Finish(id, 10)
	r.Flight(FlightRetransmit, 5, 0, id, StageWire, 1, 0)
	r.Freeze("boom", 5, 0, StageWire, id)
	if r.Sampled(id) {
		t.Error("nil recorder claims to record")
	}
	if r.Msgs() != nil || r.Spans() != nil || r.FlightEntries() != nil {
		t.Error("nil recorder returned records")
	}
	var sb strings.Builder
	r.DumpFlight(&sb)
	if !strings.Contains(sb.String(), "off") {
		t.Errorf("nil DumpFlight = %q, want an 'off' notice", sb.String())
	}
}

// TestFlightRingWraps overfills the ring and checks it keeps exactly the
// newest FlightSize entries in order.
func TestFlightRingWraps(t *testing.T) {
	r := New(1)
	n := FlightSize + 50
	for i := 0; i < n; i++ {
		r.Flight(FlightSend, units.Time(i), 0, MakeID(0, int64(i+1)), StageSend, 0, 0)
	}
	got := r.FlightEntries()
	if len(got) != FlightSize {
		t.Fatalf("ring holds %d entries, want %d", len(got), FlightSize)
	}
	for i, e := range got {
		if want := units.Time(n - FlightSize + i); e.At != want {
			t.Fatalf("entry %d at %v, want %v (oldest-first order)", i, e.At, want)
		}
	}
}

// TestFreezeFirstWinsAndFallsBack pins the incident semantics: the first
// freeze owns the postmortem (later ones are ignored), and a freeze with
// no message in hand falls back to the ring's last incident — which a
// plain send must not clobber.
func TestFreezeFirstWinsAndFallsBack(t *testing.T) {
	r := New(1)
	incident := MakeID(2, 9)
	r.Flight(FlightRetransmit, 10, 2, incident, StageWire, 1, 0)
	r.Flight(FlightSend, 11, 0, MakeID(0, 1), StageSend, 0, 0) // must not steal the blame
	r.Freeze("watchdog", 20, -1, NumStages, 0)
	rank, st, id := r.FailSite()
	if rank != 2 || st != StageWire || id != incident {
		t.Fatalf("fallback FailSite = (%d, %v, %v), want (2, wire, %v)", rank, st, id, incident)
	}
	r.Freeze("second fault", 30, 5, StageRail, MakeID(5, 1))
	if why, ok := r.Frozen(); !ok || why != "watchdog" {
		t.Errorf("Frozen = (%q, %v) after a second freeze, want the first (watchdog)", why, ok)
	}
	var sb strings.Builder
	r.DumpFlight(&sb)
	for _, want := range []string{"frozen", "watchdog", "rank 2", "s2.9"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("frozen dump missing %q:\n%s", want, sb.String())
		}
	}
}

// TestAnalyzeDecomposesExactly hand-builds one message with overlapping
// and gapped spans and checks the category split: overlap charges the
// higher-priority category once, gaps go to "other", and the categories
// sum exactly to the end-to-end time.
func TestAnalyzeDecomposesExactly(t *testing.T) {
	r := New(1)
	id := MakeID(0, 1)
	r.Begin(id, 0, 1, 0, 1024, KindRndv, 0)
	r.Span(id, StageSend, 0, -1, 0, -1, 0, 10, 1024)    // host: [0,10)
	r.Span(id, StageWire, 0, 0, 0, -1, 10, 40, 1024)    // wire: [10,40)
	r.Span(id, StageBackoff, 0, 0, 1, -1, 30, 50, 1024) // retry overlaps wire [30,40) and runs to 50
	r.Span(id, StageDeliver, 1, 0, 0, -1, 60, 70, 1024) // host again, after a [50,60) gap
	r.Finish(id, 70)
	b := r.Analyze(1)
	if b.Completed != 1 || len(b.TopK) != 1 {
		t.Fatalf("Analyze saw %d completed messages, want 1", b.Completed)
	}
	m := b.TopK[0]
	want := map[Category]units.Time{
		CatHost:  20, // [0,10) + [60,70)
		CatWire:  20, // [10,30): the rest of the attempt lost to the overlapping retry
		CatRetry: 20, // [30,50): backoff outranks wire where they overlap
		CatOther: 10, // [50,60): uncovered gap
	}
	for cat, ps := range want {
		if m.Cats[cat] != ps {
			t.Errorf("%v = %v, want %v", cat, m.Cats[cat], ps)
		}
	}
	var sum units.Time
	for _, v := range m.Cats {
		sum += v
	}
	if sum != m.E2E() || m.E2E() != 70 {
		t.Errorf("categories sum to %v over e2e %v, want exact 70", sum, m.E2E())
	}
}

// TestAnalyzeMatchesReference interleaves the spans of many messages out
// of message order, with tied end-to-end times, messages still in flight
// and spans whose roots were dropped at the cap. Analyze's per-category
// totals and top k must equal a reference that filters the span log per
// message and sorts every decomposition.
func TestAnalyzeMatchesReference(t *testing.T) {
	const ranks, perRank, k = 6, 40, 10
	r := New(1)
	r.msgs = reclog.New[MsgRec](ranks*perRank - 7)
	rng := rand.New(rand.NewSource(3))
	var ids []ID
	for seq := 1; seq <= perRank; seq++ {
		for src := 0; src < ranks; src++ {
			id := MakeID(src, int64(seq))
			ids = append(ids, id)
			r.Begin(id, int32(src), int32((src+1)%ranks), 0, 64, KindEager, units.Time(10*seq))
		}
	}
	stages := []Stage{StageSend, StageWire, StageHop, StageBackoff, StageWait, StageDeliver}
	for i := 0; i < 20*len(ids); i++ {
		id := ids[rng.Intn(len(ids))]
		at := units.Time(10*id.Seq()) + units.Time(rng.Intn(40))
		r.Span(id, stages[rng.Intn(len(stages))], id.Rank(), int8(rng.Intn(2)), uint8(rng.Intn(2)), -1,
			at, at+units.Time(rng.Intn(30)), 64)
	}
	for i, id := range ids {
		if i%9 != 4 { // every ninth message stays in flight
			r.Finish(id, units.Time(10*id.Seq()+30+int64(i%4)*5)) // four e2e values: many ties
		}
	}
	b := r.Analyze(k)

	var all []MsgBlame
	var cats [NumCategories]units.Time
	for i := 0; i < r.msgs.Len(); i++ {
		m := r.msgs.At(i)
		if m.End == 0 {
			continue
		}
		var idx []int32
		for j := 0; j < r.spans.Len(); j++ {
			if r.spans.At(j).ID == m.ID {
				idx = append(idx, int32(j))
			}
		}
		var edges []edge
		d := decompose(*m, &r.spans, idx, &edges)
		all = append(all, d)
		for c := range cats {
			cats[c] += d.Cats[c]
		}
	}
	sort.Slice(all, func(i, j int) bool { return slower(all[i], all[j]) })
	if b.Completed != len(all) || b.Cats != cats {
		t.Fatalf("Analyze: %d completed, categories %v; reference: %d, %v", b.Completed, b.Cats, len(all), cats)
	}
	if !reflect.DeepEqual(b.TopK, all[:k]) {
		t.Fatalf("top %d:\n got %v\nwant %v", k, b.TopK, all[:k])
	}
}

// TestCapsCountDrops lowers both caps and checks that the records past
// them are counted, not silently lost, and that Analyze reports the counts.
func TestCapsCountDrops(t *testing.T) {
	r := New(1)
	r.spans, r.msgs = reclog.New[SpanRec](2), reclog.New[MsgRec](1)
	kept, lost := MakeID(0, 1), MakeID(1, 1)
	r.Begin(kept, 0, 1, 0, 64, KindEager, 0)
	r.Begin(lost, 1, 0, 0, 64, KindEager, 0)
	for i := 0; i < 5; i++ {
		r.Span(kept, StageWire, 0, -1, 0, -1, units.Time(i), units.Time(i+1), 64)
	}
	r.Finish(kept, 10)
	b := r.Analyze(1)
	if b.Messages != 1 || b.Spans != 2 {
		t.Fatalf("kept %d roots and %d spans, want 1 and 2", b.Messages, b.Spans)
	}
	if b.DroppedMsgs != 1 || b.DroppedSpans != 3 {
		t.Fatalf("Analyze reports %d roots and %d spans dropped, want 1 and 3", b.DroppedMsgs, b.DroppedSpans)
	}
}

// TestDumpNamesDeadElements: an element death, and a rail death it caused,
// name the culprit element in the postmortem dump.
func TestDumpNamesDeadElements(t *testing.T) {
	r := New(1)
	r.Flight(FlightElementDown, 10, -1, 0, StageWire, ElemCode(ElemLeaf, 2), 0)
	r.Flight(FlightElementDown, 11, -1, 0, StageWire, ElemCode(ElemNode, 5), 0)
	r.Flight(FlightRailDown, 12, -1, 0, StageRail, 0, ElemCode(ElemPlane, 3))
	var sb strings.Builder
	r.DumpFlight(&sb)
	for _, want := range []string{"leaf 2", "node 5", "spine plane 3"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("dump does not name %q:\n%s", want, sb.String())
		}
	}
}

// TestSpanLogBytesPerSpan holds the span log to its allocation contract:
// recording costs the fixed-size records and nothing else — no regrowth
// copies of the log.
func TestSpanLogBytesPerSpan(t *testing.T) {
	const n = 1 << 18
	r := New(1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.Span(MakeID(i%64, int64(i/64+1)), StageWire, i%64, 0, 0, -1, units.Time(i), units.Time(i+1), 64)
	}
	runtime.ReadMemStats(&after)
	perSpan := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f B/span in %d allocations", perSpan, after.Mallocs-before.Mallocs)
	if r.spans.Len() != n {
		t.Fatalf("logged %d of %d spans", r.spans.Len(), n)
	}
	if perSpan > 56 {
		t.Fatalf("span log allocated %.1f B/span, want <= 56 (a record is 48 B)", perSpan)
	}
}
