// Package rail implements multi-rail channel bonding: 2-3 simulated
// fabrics (any combination of the InfiniBand, Myrinet and Quadrics device
// models) attached beneath a single MPI channel, the way the paper's
// 8-node testbed physically carries all three interconnects at once.
//
// Where PR 3's per-NIC retransmit machinery can only surface
// faults.ErrRetryExhausted when a link is permanently dead, the bond makes
// the job survive. Three mechanisms cooperate:
//
//   - A health monitor (monitor.go): a per-rail failure detector driven by
//     seeded heartbeat probes plus passive signals — consecutive device
//     retransmits and watchdog-adjacent wait stalls — with
//     healthy/suspect/dead state transitions and hysteresis so a flapping
//     link does not thrash the policy.
//
//   - An escalation ladder (endpoint.go): NIC-level retransmit (the
//     device's own reliability protocol, unchanged) escalates to rail-level
//     failover — the operation whose completion reports the failure is
//     re-issued on a surviving rail — and only when every rail is dead does
//     the job fail, with the typed ErrAllRailsDown. A dead node fails the
//     operation, not the rail.
//
//   - Degraded-mode policies: Failover (primary/backup in declaration
//     order) and Stripe (large messages split across every healthy rail
//     with receiver-side reassembly, degrading to the survivors).
//
// MPI non-overtaking order survives failover and striping because the bond
// stamps every operation with a per-(source node, destination node)
// sequence number and holds out-of-order deliveries in a reorder buffer
// (the pair state below). Nothing is delivered twice: an operation has at
// most one member issue in flight, and each member issue completes once.
//
// Everything is deterministic: heartbeat jitter and probe targets come
// from the same counter-based PRNG as the fault injector (faults.Uniform),
// so a failover run replays byte-identically at any -j.
package rail

import (
	"errors"
	"fmt"

	"mpinet/internal/dev"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/shmem"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// ErrAllRailsDown is the sentinel behind a bond-level permanent failure:
// every rail exhausted its device retry budget (or was already dead) for
// an operation, so there is nothing left to fail over to. Match with
// errors.Is.
var ErrAllRailsDown = errors.New("all rails down")

// AllRailsError is the concrete error behind ErrAllRailsDown: which
// operation ran out of rails, and the last device failure that exhausted
// the ladder. It unwraps to both ErrAllRailsDown and that device error, so
// errors.Is(err, faults.ErrRetryExhausted) holds too — a bond failing is
// retry exhaustion on every member.
type AllRailsError struct {
	Src, Dst int   // node indices of the doomed operation
	Bytes    int64 // wire size
	Rails    int   // rails the bond was built with
	Last     error // the device failure that killed the final rail (may be nil)
}

func (e *AllRailsError) Error() string {
	return fmt.Sprintf("rail: node%d->node%d (%d-byte packet): all %d rails down: %v (last: %v)",
		e.Src, e.Dst, e.Bytes, e.Rails, ErrAllRailsDown, e.Last)
}

// Unwrap makes errors.Is match ErrAllRailsDown and the underlying device
// failure chain.
func (e *AllRailsError) Unwrap() []error {
	if e.Last == nil {
		return []error{ErrAllRailsDown}
	}
	return []error{ErrAllRailsDown, e.Last}
}

// Policy selects the bond's degraded-mode behaviour.
type Policy int

const (
	// Failover sends everything on the highest-priority live rail (rails
	// are prioritized in declaration order) and re-issues in-flight
	// operations on the next one when it dies.
	Failover Policy = iota
	// Stripe additionally splits bulk (rendezvous) payloads at or above
	// stripeThreshold across every healthy rail, reassembling at the
	// receiver; when rails die it degrades to striping over the survivors,
	// and to Failover semantics with one rail left.
	Stripe
)

// String returns the policy's CLI/report name.
func (p Policy) String() string {
	if p == Stripe {
		return "stripe"
	}
	return "failover"
}

// The health monitor's period and thresholds and the stripe cut-off. The
// probe timeout and the stall limit scale with the heartbeat period.
const (
	// heartbeat is the probe period of the health monitor.
	heartbeat = 1 * units.Millisecond
	// probeTimeoutDiv: the monitor waits heartbeat/probeTimeoutDiv for a
	// probe before declaring a miss.
	probeTimeoutDiv = 10
	// suspectAfter / deadAfter are the consecutive-miss thresholds for the
	// healthy->suspect and suspect->dead transitions.
	suspectAfter, deadAfter = 2, 4
	// recoverAfter is the hysteresis: consecutive probe successes before a
	// suspect or dead rail is declared healthy again.
	recoverAfter = 3
	// retxSuspect is the passive-signal threshold: this many consecutive
	// device retransmits without an intervening delivery mark the rail
	// suspect.
	retxSuspect = 8
	// stallBeats is the watchdog-adjacent passive signal: an operation in
	// flight on a rail for longer than stallBeats heartbeats counts as a
	// probe miss at the next tick.
	stallBeats = 5
	// stripeThreshold is the smallest bulk payload the Stripe policy
	// splits.
	stripeThreshold = 64 * units.KB
)

// pair is the ordering state of one directed (source node, destination
// node) flow: the send-side sequence stamp and the receive-side reorder
// buffer. MPI's non-overtaking guarantee reduces to per-pair FIFO here
// because each device's staged path is itself FIFO — only cross-rail races
// (failover re-issue, striping) can reorder, and the buffer absorbs
// exactly those.
type pair struct {
	sendSeq     uint64
	nextDeliver uint64
	held        map[uint64]func(error)
}

// Network is a bonded multi-rail interconnect: it implements dev.Network
// by delegating to 2-3 member fabrics wired on one shared engine.
type Network struct {
	eng    *sim.Engine
	rails  []dev.Network
	policy Policy
	plan   *faults.Plan // bond-level plan (rail entries unresolved)
	mon    []*monitor

	pairs map[[2]int]*pair
	rec   *msgtrace.Recorder // message tracer (nil-safe when never attached)
	// issued counts bond-level operations; the monitors use it (with the
	// in-flight set) to disarm heartbeats when the job goes quiet, so the
	// event queue always drains.
	issued uint64
	// flight is every member issue in flight, on any rail, for the stall
	// scan; free is the op free list.
	flight, free []*op

	// metric handles (nil-safe no-ops until InstrumentMetrics binds them)
	heartbeats    *metrics.Counter
	probeMisses   *metrics.Counter
	waitStalls    *metrics.Counter
	suspects      *metrics.Counter
	deaths        *metrics.Counter
	recoveries    *metrics.Counter
	failovers     *metrics.Counter
	reissuedBytes *metrics.Counter
	stripeChunks  *metrics.Counter
	stripeImbal   *metrics.Timer
	heldHW        *metrics.Gauge
	heldCount     int64
}

// New bonds the given member fabrics beneath one channel. All rails must
// be wired on the shared engine and agree on the node count; 2-3 rails are
// supported (1 would be pointless, and the paper's testbed carries 3).
// policy is the degraded-mode policy (cluster.WithRailPolicy picks it).
// plan is the bond-level fault plan (nil when faults are off): rail-level
// entries (RailKills, RailDegrades) are expected to have been flattened
// into the members' own plans by the caller (internal/cluster does); New
// keeps it only to answer FaultPlan so the MPI watchdog arms.
func New(eng *sim.Engine, policy Policy, plan *faults.Plan, rails ...dev.Network) *Network {
	if len(rails) < 2 || len(rails) > 3 {
		panic(fmt.Sprintf("rail: bond needs 2-3 rails, got %d", len(rails)))
	}
	for i, r := range rails {
		if r.Engine() != eng {
			panic(fmt.Sprintf("rail: rail %d (%s) is wired on its own engine; all rails must share the bond's", i, r.Name()))
		}
		if r.Nodes() != rails[0].Nodes() {
			panic(fmt.Sprintf("rail: rail %d (%s) has %d nodes, rail 0 (%s) has %d — all rails must agree",
				i, r.Name(), r.Nodes(), rails[0].Name(), rails[0].Nodes()))
		}
	}
	n := &Network{
		eng:    eng,
		rails:  rails,
		policy: policy,
		plan:   plan,
		pairs:  make(map[[2]int]*pair),
	}
	// The monitors' probe-jitter and target draws are keyed by the fault
	// plan's seed, or a fixed constant without one.
	seed := uint64(0x5EEDDA11)
	if plan != nil && plan.Seed != 0 {
		seed = plan.Seed
	}
	for i := range rails {
		n.mon = append(n.mon, newMonitor(n, i, seed))
	}
	return n
}

// Name implements dev.Network: the member names joined with "+".
func (n *Network) Name() string {
	name := ""
	for i, r := range n.rails {
		if i > 0 {
			name += "+"
		}
		name += r.Name()
	}
	return name
}

// Engine implements dev.Network.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Nodes implements dev.Network.
func (n *Network) Nodes() int { return n.rails[0].Nodes() }

// MinLinkLatency implements dev.Network: a bonded message may ride any
// member rail, so the bound is the fastest member's.
func (n *Network) MinLinkLatency() sim.Time {
	la := n.rails[0].MinLinkLatency()
	for _, r := range n.rails[1:] {
		la = min(la, r.MinLinkLatency())
	}
	return la
}

// Diameter implements dev.Network: a bonded message may ride any member
// rail, so the watchdog must budget for the deepest one.
func (n *Network) Diameter() int {
	d := 1
	for _, r := range n.rails {
		d = max(d, r.Diameter())
	}
	return d
}

// RailState reports rail r's current detector state.
func (n *Network) RailState(r int) State { return n.mon[r].state }

// ShmemPolicy implements dev.Network: the primary rail's MPI implementation
// decides the intra-node policy (the bond only multiplexes the wire side).
func (n *Network) ShmemPolicy() (int64, shmem.Config) { return n.rails[0].ShmemPolicy() }

// FaultPlan implements dev.Network so the MPI watchdog arms on bonds whose
// members run under fault plans.
func (n *Network) FaultPlan() *faults.Plan {
	if n.plan != nil {
		return n.plan
	}
	for _, r := range n.rails {
		if p := r.FaultPlan(); p != nil {
			return p
		}
	}
	return nil
}

// ConfigErr implements dev.Network: a bond is as misconfigured as its first
// misconfigured member, named by rail index and interconnect.
func (n *Network) ConfigErr() error {
	for i, r := range n.rails {
		if err := r.ConfigErr(); err != nil {
			return fmt.Errorf("rail %d (%s): %w", i, r.Name(), err)
		}
	}
	return nil
}

// DeadElement implements dev.Network: the first member reporting a dead
// fabric element names it.
func (n *Network) DeadElement(now sim.Time) (string, int64, bool) {
	for _, r := range n.rails {
		if name, code, ok := r.DeadElement(now); ok {
			return name, code, true
		}
	}
	return "", 0, false
}

// AttachTracer implements dev.Network: the bond keeps the recorder
// for its own dispatch, failover and rail-death records and forwards it to
// every member fabric with the member's rail index, so a message traced
// through the bond carries both the bond-level StageRail spans and the
// member device's wire/hop spans, each attributed to its rail. The bond is
// never a member itself, so its own rail argument is unused.
func (n *Network) AttachTracer(rec *msgtrace.Recorder, _ int8) {
	n.rec = rec
	for i, r := range n.rails {
		r.AttachTracer(rec, int8(i))
	}
}

// InstrumentMetrics implements dev.Network: the bond's own
// rail/* instruments plus every member fabric's (same-name handles across
// rails aggregate, as co-located endpoints already do).
func (n *Network) InstrumentMetrics(m *metrics.Registry) {
	if m == nil {
		return
	}
	n.heartbeats = m.Counter("rail/heartbeats")
	n.probeMisses = m.Counter("rail/probe_misses")
	n.waitStalls = m.Counter("rail/wait_stalls")
	n.suspects = m.Counter("rail/suspects")
	n.deaths = m.Counter("rail/deaths")
	n.recoveries = m.Counter("rail/recoveries")
	n.failovers = m.Counter("rail/failovers")
	n.reissuedBytes = m.Counter("rail/reissued_bytes")
	n.stripeChunks = m.Counter("rail/stripe_chunks")
	n.stripeImbal = m.Timer("rail/stripe_imbalance")
	n.heldHW = m.Gauge("rail/reorder_held")
	for _, r := range n.rails {
		r.InstrumentMetrics(m)
	}
}

// Utilizations implements dev.Network: the concatenation of every
// member's accounting (resource names are already fabric-prefixed).
func (n *Network) Utilizations() []dev.Utilization {
	var out []dev.Utilization
	for _, r := range n.rails {
		out = append(out, r.Utilizations()...)
	}
	return out
}

// pairOf returns (creating if needed) the ordering state of src->dst.
func (n *Network) pairOf(src, dst int) *pair {
	key := [2]int{src, dst}
	p, ok := n.pairs[key]
	if !ok {
		p = &pair{}
		n.pairs[key] = p
	}
	return p
}

// arrived runs the receive-side reorder buffer: fire in-order deliveries
// immediately and hold ahead-of-order ones.
func (n *Network) arrived(src, dst int, seq uint64, fire func(error)) {
	pr := n.pairOf(src, dst)
	if seq > pr.nextDeliver {
		if pr.held == nil {
			pr.held = make(map[uint64]func(error))
		}
		pr.held[seq] = fire
		n.heldCount++
		n.heldHW.Set(n.heldCount)
		return
	}
	for {
		pr.nextDeliver++
		fire(nil)
		var ok bool
		if fire, ok = pr.held[pr.nextDeliver]; !ok {
			return
		}
		delete(pr.held, pr.nextDeliver)
		n.heldCount--
		n.heldHW.Set(n.heldCount)
	}
}

// live returns the rails that may carry traffic, in priority order, in
// set[:k]: every healthy rail or, when none is healthy, every suspect one,
// leaving out exclude (pass -1 for none). k is 0 when every rail is dead
// or excluded; set[0] is then rail 0.
func (n *Network) live(exclude int) (set [3]int, k int) {
	for _, want := range []State{Healthy, Suspect} {
		for i, m := range n.mon {
			if i != exclude && m.state == want {
				set[k] = i
				k++
			}
		}
		if k > 0 {
			break
		}
	}
	return set, k
}
