// Package msgtrace is the per-message causal tracing layer of the
// simulated cluster: every MPI send (and every point-to-point operation a
// collective decomposes into) is assigned a trace ID at entry, and the ID
// rides the message through the MPI library, the rail bond, the NIC model
// and the fabric to the receiver. Each stage a sampled message passes
// through appends one typed span record — eager copy,
// rendezvous handshake, registration hit/miss, rail selection and failover,
// retransmit attempts, per-hop fabric transfer, receive-side completion,
// park/wake wait — so a run can be decomposed causally instead of only in
// aggregate (the stage breakdown the paper argues from: host overhead vs
// wire time vs pin-down misses vs handshakes).
//
// Design rules, inherited from internal/metrics:
//
//   - Nil-safe and off by default. Every method on a nil *Recorder is a
//     no-op; model code traces unconditionally and pays one nil check.
//   - Observation only. Recording never schedules events or charges
//     simulated time, so tracing cannot perturb the simulation: a run
//     produces bit-identical results with tracing on or off.
//   - Deterministic. Trace IDs derive from (sender rank, per-rank send
//     sequence), sampling is a pure function of the ID, and no map order
//     ever reaches an output — identical runs trace byte-identically at
//     any -j.
//   - Bounded. The span log is a reclog.Packed log, each span coded
//     against its sender's last one in about 14 bytes, and the message
//     log a reclog.Log; both keep the first records up to a cap and count
//     the rest. The flight recorder is a fixed ring of the last
//     FlightSize entries that never allocates.
//
// The flight recorder is always on, even when span tracing is disabled: a
// fixed-size ring of the most recent message-level incidents (send starts,
// retransmits, failovers, timeouts) that is frozen at the first failure so
// every fault-injected abort ships with its own postmortem.
package msgtrace

import (
	"fmt"
	"io"

	"mpinet/internal/reclog"
	"mpinet/internal/units"
)

// ID is one message's trace identity: the sender's world rank packed with
// the sender's per-rank send sequence number. Both are deterministic
// simulation quantities, so IDs are stable across runs and across -j. ID 0
// means "untraced".
type ID uint64

const seqBits = 40

// MakeID packs a sender rank and its (1-based) send sequence number.
func MakeID(rank int, seq int64) ID {
	return ID(uint64(rank+1)<<seqBits | uint64(seq)&(1<<seqBits-1))
}

// Rank returns the sender rank the ID was minted by (-1 for ID 0).
func (id ID) Rank() int { return int(id>>seqBits) - 1 }

// Seq returns the sender-local send sequence number.
func (id ID) Seq() int64 { return int64(id & (1<<seqBits - 1)) }

// String renders "s<rank>.<seq>" ("-" for the zero ID).
func (id ID) String() string {
	if id == 0 {
		return "-"
	}
	return fmt.Sprintf("s%d.%d", id.Rank(), id.Seq())
}

// Stage classifies one span of a message's life. The taxonomy follows the
// paper's causal vocabulary: host work, protocol handshakes, registration,
// wire time, recovery.
type Stage uint8

// Span stages.
const (
	StageSend      Stage = iota // sender host work: issue stall, send overhead
	StageCopy                   // eager staging copy on the host
	StageRegister               // registration acquire (pin-down / MMU walk)
	StageHandshake              // rendezvous RTS->CTS round trip at the sender
	StageWire                   // one device transfer attempt, issue to delivery
	StageHop                    // one fabric path stage within a wire attempt
	StageBackoff                // retransmit backoff wait between attempts
	StageRail                   // bond dispatch or failover re-issue
	StageMatch                  // NIC-side match-queue walk (Elan)
	StageDeliver                // receive-side completion work
	StageWait                   // receive posted -> message matched
	NumStages
)

var stageNames = [NumStages]string{
	"send", "copy", "register", "handshake", "wire", "hop",
	"backoff", "rail", "match", "deliver", "wait",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "?"
}

// MsgKind classifies the protocol a message took.
type MsgKind uint8

// Message kinds.
const (
	KindEager MsgKind = iota
	KindRndv
	KindShmem
)

// String implements fmt.Stringer.
func (k MsgKind) String() string {
	switch k {
	case KindEager:
		return "eager"
	case KindRndv:
		return "rndv"
	case KindShmem:
		return "shmem"
	default:
		return "?"
	}
}

// MsgRec is the root record of one traced message: the envelope plus the
// end-to-end interval (End is zero until the receive completes).
type MsgRec struct {
	ID       ID
	Src, Dst int32
	Tag      int32
	Bytes    int64
	Kind     MsgKind
	Start    units.Time
	End      units.Time
}

// SpanRec is one typed span: a stage of one message's life. Attempt counts
// device-level (re)issues of the same payload — retransmits and rail
// failover re-issues keep the message's ID and bump Attempt, which is what
// links a re-issued in-flight op back to its parent. Hop indexes the fabric
// path stage for StageHop spans (-1 otherwise). The span log stores it
// packed (see newSpanLog); Spans decodes it.
type SpanRec struct {
	ID         ID
	Stage      Stage
	Rank       int32 // rank that observed the span (sender or receiver side)
	Rail       int8  // bond rail the span rode (-1 when not applicable)
	Attempt    uint8
	Hop        int16
	Start, End units.Time
	Bytes      int64
}

// FlightKind classifies a flight-recorder entry.
type FlightKind uint8

// Flight-recorder entry kinds.
const (
	FlightSend        FlightKind = iota // message entered the library
	FlightRetransmit                    // a NIC recovery attempt fired
	FlightFailover                      // the bond re-issued on another rail
	FlightRailDown                      // a rail was declared dead
	FlightTimeout                       // the MPI watchdog fired
	FlightAbort                         // the job aborted
	FlightElementDown                   // a fabric element or node died (A = packed element code)
)

var flightNames = [...]string{
	"send", "retransmit", "failover", "rail-down", "timeout", "abort",
	"element-down",
}

// String implements fmt.Stringer.
func (k FlightKind) String() string {
	if int(k) < len(flightNames) {
		return flightNames[k]
	}
	return "?"
}

// Element codes pack the identity of a dead fabric element or node into a
// flight-record argument: kind<<32 | index. FlightElementDown carries one
// in A; a FlightRailDown caused by an element death carries the culprit's
// code in B so the incident names the switch, not just the rail.
const (
	// ElemLeaf is a leaf switching element (index = leaf number).
	ElemLeaf int64 = iota
	// ElemPlane is a spine up-link plane (index = plane number).
	ElemPlane
	// ElemNode is a host node (index = node number).
	ElemNode
)

// ElemCode packs an element kind and index into a flight-record argument.
func ElemCode(kind int64, index int) int64 { return kind<<32 | int64(uint32(index)) }

// ElemName renders a packed element code for the postmortem dump.
func ElemName(code int64) string {
	kind, idx := code>>32, int(uint32(code))
	switch kind {
	case ElemLeaf:
		return fmt.Sprintf("leaf %d", idx)
	case ElemPlane:
		return fmt.Sprintf("spine plane %d", idx)
	default:
		return fmt.Sprintf("node %d", idx)
	}
}

// FlightRec is one fixed-size flight-recorder entry. A and B carry
// kind-specific detail (peer/destination, attempt count, rail index...).
type FlightRec struct {
	At    units.Time
	ID    ID
	Rank  int32
	Kind  FlightKind
	Stage Stage
	A, B  int64
}

// FlightSize is the ring capacity: enough to reconstruct the last moments
// before a failure, small enough to live in every world for free.
const FlightSize = 256

// DefaultSampleEvery is the default sampling period: one message in every
// DefaultSampleEvery per sender rank is span-traced. 1 traces everything.
const DefaultSampleEvery = 1

// DefaultMsgMax caps the root-record log (the span log: reclog.SpanMax).
const DefaultMsgMax = 1 << 18

// Recorder collects one world's trace. Create with New (span tracing on)
// or leave the world to its always-on flight ring; a nil *Recorder ignores
// everything. Like the engine and the metrics registry it relies on the
// cooperative scheduler for mutual exclusion.
type Recorder struct {
	enabled bool
	every   int64

	msgs  reclog.Log[MsgRec]
	midx  map[ID]int32
	spans reclog.Packed // SpanRecs, packed by newSpanLog

	flight  [FlightSize]FlightRec
	flightN uint64
	// lastIncident is the most recent non-send flight entry carrying a
	// message ID — the best guess at "the message that was in trouble" when
	// a failure site cannot name one itself.
	lastIncident FlightRec

	frozen     []FlightRec
	freezeWhy  string
	freezeAt   units.Time
	failRank   int32
	failID     ID
	failStage  Stage
	haveFreeze bool
}

// New returns a recorder with span tracing enabled, sampling one message
// in every per sender rank (every <= 1 traces all).
func New(every int) *Recorder {
	if every < 1 {
		every = 1
	}
	return &Recorder{
		enabled: true,
		every:   int64(every),
		msgs:    reclog.New[MsgRec](DefaultMsgMax),
		midx:    make(map[ID]int32),
		spans:   newSpanLog(reclog.SpanMax),
	}
}

// The span log stores a SpanRec as a reclog.Packed record on the lane of
// its sender rank, the ID's high bits, so each span is coded against the
// sender's last span. These are its attributes; the ID's sequence number
// completes the ID.
const (
	attrSeq = iota
	attrStage
	attrRank
	attrRail
	attrAttempt
	attrHop
	attrBytes
	numAttrs
)

// newSpanLog returns an empty span log keeping the first max spans.
func newSpanLog(max int) reclog.Packed { return reclog.NewPacked(max, numAttrs) }

// spanID rebuilds a span's message ID from its lane and attributes.
func spanID(lane uint32, attrs []int64) ID {
	return ID(uint64(lane)<<seqBits | uint64(attrs[attrSeq]))
}

// Disabled returns a recorder with span tracing off: only the always-on
// flight ring records. This is what every world owns by default.
func Disabled() *Recorder { return &Recorder{} }

// Sampled reports whether the message behind id is span-traced. Sampling
// is a pure function of the ID — (seq-1) % every == 0 — so sender and
// receiver, NIC and rail all agree without coordination, at any -j.
func (r *Recorder) Sampled(id ID) bool {
	return r != nil && r.enabled && id != 0 && (id.Seq()-1)%r.every == 0
}

// Begin records a message root (when sampled) and always stamps the flight
// ring. kindA/B ride into the flight entry.
func (r *Recorder) Begin(id ID, src, dst, tag int32, bytes int64, kind MsgKind, at units.Time) {
	if r == nil {
		return
	}
	r.fly(FlightRec{At: at, ID: id, Rank: src, Kind: FlightSend, A: int64(dst), B: bytes})
	if !r.Sampled(id) {
		return
	}
	n := r.msgs.Len()
	r.msgs.Append(MsgRec{ID: id, Src: src, Dst: dst, Tag: tag, Bytes: bytes, Kind: kind, Start: at})
	if r.msgs.Len() > n {
		r.midx[id] = int32(n)
	}
}

// Finish closes a message root's end-to-end interval.
func (r *Recorder) Finish(id ID, at units.Time) {
	if !r.Sampled(id) {
		return
	}
	if i, ok := r.midx[id]; ok {
		r.msgs.At(int(i)).End = at
	}
}

// Span appends one stage span for a sampled message. Zero-duration spans
// are kept: a registration hit is a real observation (Bytes tells the
// story even when the span is instantaneous). Only the enabled gate is
// inline, so an untraced world pays no call here.
func (r *Recorder) Span(id ID, st Stage, rank int, rail int8, attempt uint8, hop int16, start, end units.Time, bytes int64) {
	if r != nil && r.enabled {
		r.span(id, st, rank, rail, attempt, hop, start, end, bytes)
	}
}

// span is Span's out-of-line body.
func (r *Recorder) span(id ID, st Stage, rank int, rail int8, attempt uint8, hop int16, start, end units.Time, bytes int64) {
	if r.Sampled(id) {
		r.spans.Append(uint32(id>>seqBits), int64(start), int64(end),
			id.Seq(), int64(st), int64(int32(rank)), int64(rail), int64(attempt), int64(hop), bytes)
	}
}

// Msgs returns a fresh copy of the recorded message roots (order of Begin).
func (r *Recorder) Msgs() []MsgRec {
	if r == nil {
		return nil
	}
	return r.msgs.Slice()
}

// Spans decodes the recorded spans (order of recording).
func (r *Recorder) Spans() []SpanRec {
	if r == nil {
		return nil
	}
	out := make([]SpanRec, 0, r.spans.Len())
	r.spans.Each(func(lane uint32, start, end int64, a []int64) {
		out = append(out, SpanRec{
			ID: spanID(lane, a), Stage: Stage(a[attrStage]), Rank: int32(a[attrRank]),
			Rail: int8(a[attrRail]), Attempt: uint8(a[attrAttempt]), Hop: int16(a[attrHop]),
			Start: units.Time(start), End: units.Time(end), Bytes: a[attrBytes],
		})
	})
	return out
}

// fly writes one ring entry; the ring never allocates.
func (r *Recorder) fly(rec FlightRec) {
	r.flight[r.flightN%FlightSize] = rec
	r.flightN++
}

// Flight stamps one flight-recorder entry. Always on, whatever the
// sampling state.
func (r *Recorder) Flight(kind FlightKind, at units.Time, rank int, id ID, st Stage, a, b int64) {
	if r == nil {
		return
	}
	rec := FlightRec{At: at, ID: id, Rank: int32(rank), Kind: kind, Stage: st, A: a, B: b}
	r.fly(rec)
	if kind != FlightSend && id != 0 {
		r.lastIncident = rec
	}
}

// Freeze snapshots the flight ring at the moment of a failure; only the
// first freeze wins, so the snapshot shows the run's original sin rather
// than the last symptom. why names the trigger (watchdog, abort, retry
// exhaustion, all-rails-down); rank/stage/id locate the blame.
func (r *Recorder) Freeze(why string, at units.Time, rank int, st Stage, id ID) {
	if r == nil || r.haveFreeze {
		return
	}
	r.haveFreeze = true
	if id == 0 && r.lastIncident.ID != 0 {
		// The failure site could not name a message; blame the last one the
		// flight ring saw in trouble (retransmitting, failing over...).
		id = r.lastIncident.ID
		if st == NumStages {
			st = r.lastIncident.Stage
		}
		if rank < 0 {
			rank = int(r.lastIncident.Rank)
		}
	}
	r.freezeWhy, r.freezeAt = why, at
	r.failRank, r.failStage, r.failID = int32(rank), st, id
	r.frozen = append(r.frozen, r.FlightEntries()...)
}

// Frozen reports whether a failure froze the ring, and the trigger.
func (r *Recorder) Frozen() (why string, ok bool) {
	if r == nil || !r.haveFreeze {
		return "", false
	}
	return r.freezeWhy, true
}

// FailSite returns the frozen failure's rank, stage and message ID.
func (r *Recorder) FailSite() (rank int, st Stage, id ID) {
	if r == nil || !r.haveFreeze {
		return -1, NumStages, 0
	}
	return int(r.failRank), r.failStage, r.failID
}

// FlightEntries returns the live ring in chronological order.
func (r *Recorder) FlightEntries() []FlightRec {
	if r == nil {
		return nil
	}
	n := r.flightN
	if n > FlightSize {
		n = FlightSize
	}
	out := make([]FlightRec, 0, n)
	start := r.flightN - n
	for i := uint64(0); i < n; i++ {
		out = append(out, r.flight[(start+i)%FlightSize])
	}
	return out
}

// DumpFlight renders the postmortem: the frozen ring if a failure froze
// it, the live ring otherwise. The format is fixed-width and deterministic
// (dump format documented in docs/MODEL.md §16).
func (r *Recorder) DumpFlight(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "flight recorder: off")
		return
	}
	entries := r.FlightEntries()
	header := "flight recorder: live ring"
	if r.haveFreeze {
		entries = r.frozen
		header = fmt.Sprintf("flight recorder: frozen at %s: %s (rank %d, stage %s, msg %s)",
			r.freezeAt, r.freezeWhy, r.failRank, r.failStage, r.failID)
	}
	fmt.Fprintln(w, header)
	fmt.Fprintf(w, "  %-14s %-6s %-10s %-10s %-10s %8s %8s\n",
		"time", "rank", "event", "msg", "stage", "a", "b")
	for _, e := range entries {
		if e.Kind == FlightSend && e.At == 0 && e.ID == 0 && e.Rank == 0 {
			continue // unwritten slot of a ring that never wrapped
		}
		stage := "-"
		if e.Kind != FlightSend {
			stage = e.Stage.String()
		}
		// Element attribution: incidents caused by a fabric-element or node
		// death name the culprit, not just its packed code.
		elem := ""
		if e.Kind == FlightElementDown {
			elem = "  " + ElemName(e.A)
		} else if e.Kind == FlightRailDown && e.B != 0 {
			elem = "  " + ElemName(e.B)
		}
		fmt.Fprintf(w, "  %-14s %-6d %-10s %-10s %-10s %8d %8d%s\n",
			e.At.String(), e.Rank, e.Kind.String(), e.ID.String(), stage, e.A, e.B, elem)
	}
	if len(entries) == 0 {
		fmt.Fprintln(w, "  (empty)")
	}
}
