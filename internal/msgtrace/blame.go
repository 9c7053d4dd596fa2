// Causal critical-path analysis over the span stream: per-message stage
// decomposition, aggregate blame by category, top-k slowest messages, and
// a back-chained critical path. Everything here is pure post-processing —
// deterministic given the recorded spans, which are themselves
// deterministic given the run.
package msgtrace

import (
	"mpinet/internal/reclog"
	"mpinet/internal/units"
)

// Category is the blame bucket a span charges: the "who made this message
// slow" axis of the report (host vs NIC vs wire vs contention vs retry).
type Category uint8

// Blame categories.
const (
	CatHost       Category = iota // sender/receiver CPU work: overhead, copies, registration
	CatNIC                        // protocol work on the NIC: handshakes, match walks
	CatWire                       // the successful transfer attempt, issue to delivery
	CatRetry                      // failed attempts and retransmit backoff
	CatRail                       // bond dispatch and failover re-issue
	CatContention                 // waiting: receive posted but message not yet matched
	CatOther                      // uncovered end-to-end time (scheduling gaps)
	NumCategories
)

var catNames = [NumCategories]string{
	"host", "nic", "wire", "retry", "rail", "contention", "other",
}

// String implements fmt.Stringer.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "?"
}

// MsgBlame is one message's decomposition: the envelope plus per-category
// time. The categories plus Other sum exactly to End-Start, so a healthy
// latency run decomposes without residual mystery.
type MsgBlame struct {
	ID       ID
	Src, Dst int32
	Tag      int32
	Bytes    int64
	Kind     MsgKind
	Start    units.Time
	End      units.Time
	Cats     [NumCategories]units.Time
}

// E2E returns the message's end-to-end time.
func (m MsgBlame) E2E() units.Time { return m.End - m.Start }

// Blame is the run-level report.
type Blame struct {
	Messages  int // roots recorded
	Completed int // roots whose receive completed
	Spans     int
	// DroppedSpans and DroppedMsgs count the spans and roots discarded
	// once the logs reached their caps.
	DroppedSpans, DroppedMsgs int64
	// Cats accumulates the per-message decompositions; Total is the sum of
	// end-to-end times, so Cats sums exactly to Total.
	Cats  [NumCategories]units.Time
	Total units.Time
	// TopK holds the k slowest completed messages, slowest first.
	TopK []MsgBlame
	// Critical is the back-chained causal path ending at the last message
	// to complete: each entry's sender previously completed a receive from
	// the next entry, last link first.
	Critical []MsgBlame
	// Failure is non-nil when the flight recorder froze: the trigger and
	// the blamed rank/stage/message.
	Failure *FailureInfo
}

// FailureInfo names a frozen failure.
type FailureInfo struct {
	Why   string
	At    units.Time
	Rank  int
	Stage Stage
	MsgID ID
}

// category maps one span to its blame bucket. Wire attempts past the first
// are recovery work; a wire attempt on a different rail than the bond
// first chose is failover work. Hop spans are detail within a wire attempt
// and charge nothing here.
func category(s SpanRec, firstRail int8) (Category, bool) {
	switch s.Stage {
	case StageSend, StageCopy, StageRegister, StageDeliver:
		return CatHost, true
	case StageHandshake, StageMatch:
		return CatNIC, true
	case StageWire:
		if s.Attempt > 0 {
			if s.Rail >= 0 && firstRail >= 0 && s.Rail != firstRail {
				return CatRail, true
			}
			return CatRetry, true
		}
		return CatWire, true
	case StageBackoff:
		return CatRetry, true
	case StageRail:
		return CatRail, true
	case StageWait:
		return CatContention, true
	default:
		return CatOther, false
	}
}

// catPriority orders categories for overlap attribution: when two spans
// cover the same instant, the instant charges the category that best
// explains it — recovery first (it is the anomaly), then protocol and
// wire, then plain host work, then waiting.
var catPriority = [NumCategories]int{
	CatRetry: 6, CatRail: 5, CatNIC: 4, CatWire: 3, CatHost: 2, CatContention: 1, CatOther: 0,
}

// edge is one boundary of a clipped span in decompose's sweep.
type edge struct {
	at    units.Time
	cat   Category
	delta int
}

// decompose attributes a message's [Start, End] interval across categories
// by a boundary sweep: at every instant the covering span with the highest
// category priority wins; uncovered time is CatOther. The buckets sum to
// E2E exactly. idx lists the message's spans in the log, in recording
// order. edges is scratch space reused across calls.
func decompose(m MsgRec, spans *reclog.Log[SpanRec], idx []int32, edges *[]edge) MsgBlame {
	out := MsgBlame{ID: m.ID, Src: m.Src, Dst: m.Dst, Tag: m.Tag,
		Bytes: m.Bytes, Kind: m.Kind, Start: m.Start, End: m.End}
	if m.End <= m.Start {
		return out
	}
	firstRail := int8(-1)
	for _, i := range idx {
		if s := spans.At(int(i)); s.Stage == StageWire {
			firstRail = s.Rail
			break
		}
	}
	// Boundary sweep over clipped spans. Hop spans are sub-detail of wire
	// attempts and are excluded so wire time is not double-counted.
	es := (*edges)[:0]
	for _, i := range idx {
		s := spans.At(int(i))
		if s.Stage == StageHop {
			continue
		}
		cat, ok := category(*s, firstRail)
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < m.Start {
			lo = m.Start
		}
		if hi > m.End {
			hi = m.End
		}
		if hi <= lo {
			continue
		}
		es = append(es, edge{lo, cat, +1}, edge{hi, cat, -1})
	}
	*edges = es
	// Insertion sort by time (span counts are small); -1 edges before +1
	// at equal times does not matter — zero-length segments charge nothing.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].at < es[j-1].at; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
	var active [NumCategories]int
	prev := m.Start
	ei := 0
	charge := func(upto units.Time) {
		if upto <= prev {
			return
		}
		best, found := CatOther, false
		for c := Category(0); c < NumCategories; c++ {
			if active[c] > 0 && (!found || catPriority[c] > catPriority[best]) {
				best, found = c, true
			}
		}
		out.Cats[best] += upto - prev
		prev = upto
	}
	for ei < len(es) {
		at := es[ei].at
		charge(at)
		for ei < len(es) && es[ei].at == at {
			active[es[ei].cat] += es[ei].delta
			ei++
		}
	}
	charge(m.End)
	return out
}

// Analyze builds the blame report: per-message decompositions aggregated
// by category, the k slowest messages, the back-chained critical path, and
// the frozen failure if any.
func (r *Recorder) Analyze(k int) *Blame {
	b := &Blame{}
	if r == nil {
		return b
	}
	if why, ok := r.Frozen(); ok {
		rank, st, id := r.FailSite()
		b.Failure = &FailureInfo{Why: why, At: r.freezeAt, Rank: rank, Stage: st, MsgID: id}
	}
	b.Messages, b.Spans = r.msgs.Len(), r.spans.Len()
	b.DroppedSpans, b.DroppedMsgs = r.spans.Dropped(), r.msgs.Dropped()
	if b.Messages == 0 {
		return b
	}
	// Group span indexes by message, copying no span (spans are appended
	// roughly in time order, but grouping must not rely on it). The
	// grouping is compressed sparse rows: message i's spans are
	// idx[off[i]:off[i+1]], in recording order. A span whose root was
	// dropped at the cap belongs to no message.
	off := make([]int32, b.Messages+1)
	for i := 0; i < b.Spans; i++ {
		if m, ok := r.midx[r.spans.At(i).ID]; ok {
			off[m+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	// Fill each message's rows through off[m] as its cursor, which leaves
	// off[m] at the start of message m+1; shift it back afterwards.
	idx := make([]int32, off[b.Messages])
	for i := 0; i < b.Spans; i++ {
		if m, ok := r.midx[r.spans.At(i).ID]; ok {
			idx[off[m]] = int32(i)
			off[m]++
		}
	}
	copy(off[1:], off)
	off[0] = 0
	all := make([]MsgBlame, 0, b.Messages)
	var edges []edge
	for i := 0; i < b.Messages; i++ {
		m := r.msgs.At(i)
		if m.End == 0 {
			continue // in flight at the end of the run (or aborted)
		}
		d := decompose(*m, &r.spans, idx[off[i]:off[i+1]], &edges)
		all = append(all, d)
		b.Completed++
		b.Total += d.E2E()
		for c := range d.Cats {
			b.Cats[c] += d.Cats[c]
		}
	}
	if len(all) == 0 {
		return b
	}
	// Top-k slowest, ties broken by ID for determinism: one bounded
	// insertion pass, slowest first.
	if k > len(all) {
		k = len(all)
	}
	b.TopK = make([]MsgBlame, 0, k)
	for _, d := range all {
		if len(b.TopK) < k {
			b.TopK = append(b.TopK, d)
		} else if k > 0 && slower(d, b.TopK[k-1]) {
			b.TopK[k-1] = d
		} else {
			continue
		}
		for j := len(b.TopK) - 1; j > 0 && slower(b.TopK[j], b.TopK[j-1]); j-- {
			b.TopK[j], b.TopK[j-1] = b.TopK[j-1], b.TopK[j]
		}
	}
	// Critical path: start from the last completion and walk backwards —
	// the predecessor of a message is the latest-completing message that
	// was received by the current sender before the current send started.
	last := all[0]
	for _, m := range all[1:] {
		if m.End > last.End || (m.End == last.End && m.ID < last.ID) {
			last = m
		}
	}
	onPath := map[ID]bool{}
	cur := last
	for len(b.Critical) < 64 {
		b.Critical = append(b.Critical, cur)
		onPath[cur.ID] = true
		var pred *MsgBlame
		for i := range all {
			m := &all[i]
			if onPath[m.ID] || m.Dst != cur.Src || m.End > cur.Start {
				continue
			}
			if pred == nil || m.End > pred.End || (m.End == pred.End && m.ID < pred.ID) {
				pred = m
			}
		}
		if pred == nil {
			break
		}
		cur = *pred
	}
	return b
}

// slower orders messages by descending end-to-end time, ties by ID.
func slower(a, z MsgBlame) bool {
	if a.E2E() != z.E2E() {
		return a.E2E() > z.E2E()
	}
	return a.ID < z.ID
}
