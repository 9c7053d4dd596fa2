// Package faults is the deterministic fault-injection subsystem: a
// seed-driven Plan describing link drop/corruption probabilities, link
// flaps, NIC stall windows and bus contention bursts, plus the Injector the
// NIC models (internal/verbs, internal/gm, internal/elan) consult on every
// inter-node packet.
//
// Determinism is the load-bearing property. The paper-reproduction suite
// promises byte-identical output at any -j (MODEL.md §11), so fault
// decisions must not depend on event interleaving, map iteration, or how
// many worker goroutines are running. Every random draw therefore comes
// from a counter-based PRNG keyed by (plan seed, link, per-link packet
// ordinal): packet k on link src->dst gets the same verdict in every run
// with the same seed, no matter what else the simulation is doing.
//
// Recovery is the device's job, not this package's: the Injector only
// renders verdicts (deliver / drop / corrupt) and window delays; each NIC
// model implements its interconnect's reliability protocol (VAPI RC
// retransmit, GM send-token resend, Elan source retry) as a RetryPolicy
// around its transfer path and reports permanent failures as a *LinkError
// wrapping ErrRetryExhausted.
package faults

import (
	"errors"
	"fmt"
	"math"

	"mpinet/internal/metrics"
	"mpinet/internal/units"
)

// ErrRetryExhausted is the sentinel wrapped by every permanent transfer
// failure: a device retried per its reliability protocol and gave up.
// Match with errors.Is.
var ErrRetryExhausted = errors.New("retry exhausted")

// ErrPartitioned is the sentinel wrapped by every failure where no route
// survives between two endpoints: every ECMP plane of a Clos dead
// (PartitionError), or the destination node itself crashed (NodeDownError).
// Unlike ErrRetryExhausted it is not a probabilistic exhaustion but a
// structural verdict — retrying cannot help. Match with errors.Is.
var ErrPartitioned = errors.New("fabric partitioned")

// DefaultTimeout is the per-wait MPI watchdog armed automatically when a
// world runs on a network with a fault plan. It is far above every
// device's worst-case retry budget (the longest, the verbs exponential
// backoff, exhausts in ~19 ms), so retry-exhaustion errors always win the
// race against the watchdog and the watchdog only fires for waits that no
// retransmit will ever satisfy. Worlds larger than the paper's 8-node
// testbed arm ScaledTimeout instead.
const DefaultTimeout = 500 * units.Millisecond

// ScaledTimeout is the watchdog budget for a world of the given rank count
// on a fabric of the given diameter (elements crossed by the longest
// route). The 8-node default is far too tight for thousand-rank Clos runs
// under faults — collectives decompose into log2(N) serialized phases and
// every phase can eat a full retry chain — so the budget grows by half the
// default per rank-count doubling past 8 and a quarter per element of
// fabric depth past the single crossbar. ScaledTimeout(8, 1) is exactly
// DefaultTimeout, so the paper-scale testbeds keep their committed outputs.
func ScaledTimeout(ranks, diameter int) units.Time {
	t := DefaultTimeout
	for n := 8; n < ranks; n *= 2 {
		t += DefaultTimeout / 2
	}
	if diameter > 1 {
		t += units.Time(diameter-1) * (DefaultTimeout / 4)
	}
	return t
}

// DefaultDetectDelay is the failure-detection delay used when a plan
// schedules element or node deaths without setting DetectDelay: how long
// the fabric keeps routing onto a dead element (packets black-holing into
// it, device retry protocols covering the gap) before the routing layer
// re-hashes around it — the subnet-manager sweep / route-remap interval of
// the real interconnects.
const DefaultDetectDelay = 1 * units.Millisecond

// Wildcard matches any node in a LinkRule or Flap endpoint.
const Wildcard = -1

// Plan is a complete, declarative fault scenario. The zero value (beyond
// Seed) injects nothing but still arms the MPI watchdog, turning would-be
// deadlocks into typed timeout errors. Plans are plain data: copy, store
// or share them freely; the Injector keeps its own mutable state.
type Plan struct {
	// Seed keys every random draw. Two runs with equal plans produce
	// identical fault sequences; change the seed to sample a new scenario.
	Seed uint64
	// Drop is the baseline per-packet drop probability on every inter-node
	// link (loopback traffic never faults).
	Drop float64
	// Corrupt is the baseline per-packet corruption probability. A
	// corrupted packet arrives, fails its CRC and is retransmitted — same
	// recovery path as a drop, separate counter.
	Corrupt float64
	// Links overrides the baseline rates on matching links (first match
	// wins).
	Links []LinkRule
	// Flaps takes links hard down for time windows.
	Flaps []Flap
	// Stalls freezes a node's NIC for time windows.
	Stalls []Stall
	// Bursts adds bus-contention delay per operation on a node for time
	// windows.
	Bursts []BusBurst
	// Degrades adds extra drop probability on matching links within time
	// windows — a link that still works, but badly. Evaluated by the same
	// per-link counter PRNG as the baseline rates, so degraded runs replay
	// byte-identically.
	Degrades []Degrade
	// RailKills sever every link of one rail of a bonded (multi-rail)
	// platform permanently. Consumed by Plan.Flatten: the rail layer folds
	// each entry into a wildcard Flap on that rail's sub-plan; single-rail
	// networks treat themselves as rail 0.
	RailKills []RailKill
	// RailDegrades raise one rail's drop probability within a window
	// (brown-out rather than hard kill). Folded into Degrades by Flatten,
	// like RailKills.
	RailDegrades []RailDegrade
	// SwitchKills take whole fabric elements of a multi-stage (Clos)
	// topology hard down: a spine plane (Level >= 1) or a leaf element with
	// every host under it (Level 0). Rendered by the fabric's routing layer,
	// not the per-link injector; requires a Clos topology.
	SwitchKills []SwitchKill
	// LinecardDegrades add extra drop probability to every packet riding a
	// fabric element within a window — a failing linecard rather than a dead
	// chassis. Drawn through the same per-link counter PRNG as Degrades, so
	// degraded runs replay byte-identically. Requires a Clos topology.
	LinecardDegrades []LinecardDegrade
	// NodeCrashes kill host nodes: from At the node's NIC is dark (every
	// packet to or from it is lost) and, at the MPI layer, every rank mapped
	// to the node is dead. An optional RepairAt re-lights the NIC (reboot),
	// but crashed MPI ranks stay dead — process state does not survive.
	NodeCrashes []NodeCrash
	// DetectDelay is how long after an element or node death the routing and
	// MPI layers take to notice it (0 = DefaultDetectDelay). Before
	// detection, traffic keeps black-holing into the dead element and the
	// device retry protocols carry it; after, deterministic ECMP re-hashes
	// onto surviving planes, adaptive routing stops considering them, and
	// unreachable peers fail typed instead of burning retries.
	DetectDelay units.Time
}

// LinkRule replaces the plan's baseline drop/corrupt rates on matching
// links. Src/Dst may be Wildcard.
type LinkRule struct {
	Src, Dst int
	Drop     float64
	Corrupt  float64
}

// Flap is a link-down window: every packet on a matching link in
// [From, Until) is dropped, as if the cable were pulled and re-seated.
// Src/Dst may be Wildcard.
type Flap struct {
	Src, Dst    int
	From, Until units.Time
}

// Stall freezes a node's NIC: operations started in [From, Until) wait for
// the window to end before touching the wire (firmware hiccup, PCI retrain).
type Stall struct {
	Node        int
	From, Until units.Time
}

// BusBurst models host-bus contention: every operation a node starts in
// [From, Until) pays Delay extra before injection.
type BusBurst struct {
	Node        int
	From, Until units.Time
	Delay       units.Time
}

// Degrade adds Drop extra per-packet drop probability on matching links in
// [From, Until). Src/Dst may be Wildcard. Unlike a LinkRule it composes
// with (adds to) the baseline rather than replacing it.
type Degrade struct {
	Src, Dst    int
	From, Until units.Time
	Drop        float64
}

// RailKill takes one rail of a bonded platform hard down at At, forever —
// the "what if a whole fabric dies mid-run" scenario. Rail indices follow
// the order rails were passed to the bond.
type RailKill struct {
	Rail int
	At   units.Time
}

// RailDegrade raises one rail's per-packet drop probability by Drop within
// [From, Until).
type RailDegrade struct {
	Rail        int
	From, Until units.Time
	Drop        float64
}

// SwitchKill takes one switching element of a multi-stage fabric hard down
// at At. Level 0 names a leaf element (Index is the leaf; every host under
// it becomes unreachable); Level >= 1 names a spine-tier element, which in
// the leaf-state-only Clos model kills the route equivalence class — the
// up-link plane Index (mod the leaf up-link count) — fabric-wide. RepairAt,
// when non-zero, brings the element back (cable re-seated, chassis power
// restored); 0 means it stays dead. On a bonded platform Rail names the
// member fabric the element belongs to (solo networks are rail 0).
type SwitchKill struct {
	Level    int // 0 = leaf tier, >= 1 = spine tiers
	Index    int // element index within the level
	Rail     int // bonded platforms: which member fabric (default 0)
	At       units.Time
	RepairAt units.Time // 0 = never repaired
}

// Dead reports whether the killed element is down at now.
func (k SwitchKill) Dead(now units.Time) bool {
	return now >= k.At && (k.RepairAt == 0 || now < k.RepairAt)
}

// Detected reports whether the death is visible to routing at now: the
// element has been down for at least detect and not yet repaired.
func (k SwitchKill) Detected(now, detect units.Time) bool {
	return now >= k.At+detect && (k.RepairAt == 0 || now < k.RepairAt)
}

// LinecardDegrade adds Drop extra per-packet drop probability to traffic
// riding one fabric element in [From, Until): a spine plane (Level >= 1) or
// a leaf (Level 0, hitting every route through that leaf). Rail selects the
// bonded member fabric, as in SwitchKill.
type LinecardDegrade struct {
	Level       int
	Index       int
	Rail        int
	From, Until units.Time
	Drop        float64
}

// Active reports whether the degrade window covers now.
func (d LinecardDegrade) Active(now units.Time) bool {
	return now >= d.From && now < d.Until
}

// NodeCrash kills host node Node at At: its NIC goes dark (in-flight and
// future packets to or from it are lost) and every MPI rank on it dies. A
// non-zero RepairAt re-lights the NIC — the fabric link heals — but the MPI
// ranks stay dead: a rebooted node does not rejoin a running job.
type NodeCrash struct {
	Node     int
	At       units.Time
	RepairAt units.Time // 0 = never; heals the link only, never the ranks
}

// Forever is the Until value of a window that never closes.
const Forever = units.Time(math.MaxInt64)

// HasElements reports whether the plan schedules fabric-element faults
// (switch kills or linecard degrades), which only a multi-stage (Clos)
// topology can render.
func (p *Plan) HasElements() bool {
	return p != nil && (len(p.SwitchKills) > 0 || len(p.LinecardDegrades) > 0)
}

// DetectionDelay resolves the plan's failure-detection delay.
func (p *Plan) DetectionDelay() units.Time {
	if p == nil || p.DetectDelay == 0 {
		return DefaultDetectDelay
	}
	return p.DetectDelay
}

// Flatten resolves the rail-level entries of a plan for one rail: RailKills
// on that rail become wildcard Flaps from their kill time onward, and
// RailDegrades become wildcard Degrades. The returned plan carries no
// rail-level entries and is what a single fabric's Injector actually
// renders; a single-rail network is its own rail 0. The seed is left
// untouched — per-rail seed derivation (RailSeed) is the bond layer's call
// to make, so a plan run on a solo network replays the exact draws of the
// bond's rail 0. Returns the receiver unchanged when no entry matches.
func (p *Plan) Flatten(rail int) *Plan {
	if p == nil {
		return nil
	}
	touched := false
	for _, k := range p.RailKills {
		if k.Rail == rail {
			touched = true
		}
	}
	for _, d := range p.RailDegrades {
		if d.Rail == rail {
			touched = true
		}
	}
	// Element faults are per-fabric too: a member network must only see the
	// switch kills and linecard degrades of its own rail. Entries already on
	// rail 0 rendered by a solo network need no rewrite.
	filterElems := false
	for _, k := range p.SwitchKills {
		if k.Rail != 0 || rail != 0 {
			filterElems = true
		}
	}
	for _, d := range p.LinecardDegrades {
		if d.Rail != 0 || rail != 0 {
			filterElems = true
		}
	}
	if !touched && !filterElems && len(p.RailKills) == 0 && len(p.RailDegrades) == 0 {
		return p
	}
	q := *p
	q.Flaps = append([]Flap(nil), p.Flaps...)
	q.Degrades = append([]Degrade(nil), p.Degrades...)
	for _, k := range p.RailKills {
		if k.Rail == rail {
			q.Flaps = append(q.Flaps, Flap{Src: Wildcard, Dst: Wildcard, From: k.At, Until: Forever})
		}
	}
	for _, d := range p.RailDegrades {
		if d.Rail == rail {
			q.Degrades = append(q.Degrades, Degrade{Src: Wildcard, Dst: Wildcard, From: d.From, Until: d.Until, Drop: d.Drop})
		}
	}
	if filterElems {
		q.SwitchKills, q.LinecardDegrades = nil, nil
		for _, k := range p.SwitchKills {
			if k.Rail == rail {
				k.Rail = 0
				q.SwitchKills = append(q.SwitchKills, k)
			}
		}
		for _, d := range p.LinecardDegrades {
			if d.Rail == rail {
				d.Rail = 0
				q.LinecardDegrades = append(q.LinecardDegrades, d)
			}
		}
	}
	q.RailKills, q.RailDegrades = nil, nil
	return &q
}

// RailSeed derives rail r's fault seed from a bond-level seed, so the rails
// of one bond draw independent verdict streams even though they share node
// indices (and therefore per-link PRNG streams). Rail 0 keeps the bond seed
// unchanged: a bond's primary rail replays the exact packet fates of the
// same plan run on a solo network.
func RailSeed(seed uint64, r int) uint64 {
	if r == 0 {
		return seed
	}
	x := seed + 0x9E3779B97F4A7C15*uint64(r)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return x
}

// DropPlan is the common scenario shorthand: a uniform per-packet drop
// probability on every link under the given seed.
func DropPlan(seed uint64, drop float64) *Plan {
	return &Plan{Seed: seed, Drop: drop}
}

// Verdict is the Injector's per-packet decision.
type Verdict int

const (
	// Deliver passes the packet through intact.
	Deliver Verdict = iota
	// Drop loses the packet in the fabric; the receiver sees nothing.
	Drop
	// Corrupt delivers a damaged packet; the receiver's CRC rejects it.
	Corrupt
)

// RetryPolicy describes one interconnect's reliability protocol: how many
// resends it attempts and how it spaces them. Devices hold one as a
// package constant and drive their retransmit loop with it.
type RetryPolicy struct {
	// Limit is the number of retransmits after the first attempt; the
	// attempt numbered Limit+1 failing is a permanent error.
	Limit int
	// Interval is the base retransmit timeout.
	Interval units.Time
	// Exponential doubles the interval on every consecutive retry (VAPI RC
	// behaviour); capped at 64x so a long retry chain cannot out-wait the
	// MPI watchdog.
	Exponential bool
}

// Delay returns the wait before retransmit number attempt (1-based).
func (p RetryPolicy) Delay(attempt int) units.Time {
	if !p.Exponential || attempt <= 1 {
		return p.Interval
	}
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	return p.Interval << uint(shift)
}

// LinkError is a permanent transfer failure: one link exhausted a device's
// retry budget. It wraps ErrRetryExhausted; the MPI layer prepends the
// failing rank.
type LinkError struct {
	Src, Dst int    // node indices of the failing link
	Attempts int    // transfer attempts made, including the first
	Bytes    int64  // packet size
	Proto    string // the reliability protocol that gave up
}

func (e *LinkError) Error() string {
	return fmt.Sprintf("link node%d->node%d: %s gave up after %d attempts (%d-byte packet): %v",
		e.Src, e.Dst, e.Proto, e.Attempts, e.Bytes, ErrRetryExhausted)
}

// Unwrap makes errors.Is(err, ErrRetryExhausted) hold.
func (e *LinkError) Unwrap() error { return ErrRetryExhausted }

// PartitionError is the typed failure a device raises when the fabric's
// routing layer reports that no surviving path connects two endpoints:
// every ECMP plane between them is dead, or the destination's leaf element
// is down. Element names the blocking fabric element ("leaf 3", "spine
// plane 1"). It wraps ErrPartitioned; retrying cannot help, so devices
// raise it without burning their retry budget.
type PartitionError struct {
	Src, Dst int    // node indices of the unreachable pair
	Element  string // the dead fabric element blocking every route
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("node%d->node%d unreachable (%s dead): %v", e.Src, e.Dst, e.Element, ErrPartitioned)
}

// Unwrap makes errors.Is(err, ErrPartitioned) hold.
func (e *PartitionError) Unwrap() error { return ErrPartitioned }

// NodeDownError is the typed failure a device raises once a crashed node's
// death has been detected: the peer is not merely unreachable through the
// fabric, it is gone. Wraps ErrPartitioned (no route can exist); the MPI
// layer translates it into rank-death notification (RankFailedError) when
// the job runs fault-tolerant.
type NodeDownError struct {
	Node int        // the crashed node
	At   units.Time // when it died
}

func (e *NodeDownError) Error() string {
	return fmt.Sprintf("node%d crashed at %v: %v", e.Node, e.At, ErrPartitioned)
}

// Unwrap makes errors.Is(err, ErrPartitioned) hold.
func (e *NodeDownError) Unwrap() error { return ErrPartitioned }

// Injector renders a Plan's verdicts for one network instance. Not safe
// for concurrent use — like everything else owned by a sim.Engine, it runs
// on the engine's goroutine. A nil *Injector is inert (Plan returns nil);
// devices built without a plan carry a nil injector and skip the fault
// path entirely.
type Injector struct {
	plan Plan
	// detect is the plan's DetectionDelay, resolved once so the per-send
	// node-death check stays small enough to inline.
	detect units.Time
	// links caches per-link resolved state (rates after LinkRule matching,
	// this link's flap/degrade windows, the PRNG stream id and packet
	// ordinal), so the per-packet Verdict path scans only windows that can
	// ever apply to the link instead of the whole plan. The map is only
	// ever indexed, never iterated, so it cannot perturb determinism.
	links map[[2]int]*linkState

	// counters (nil-safe until Instrument binds them)
	packets   *metrics.Counter
	drops     *metrics.Counter
	corrupts  *metrics.Counter
	flapDrops *metrics.Counter
}

// linkState is one directed link's resolved fault state.
type linkState struct {
	n        uint64 // per-link packet ordinal driving the counter PRNG
	stream   uint64
	drop     float64 // baseline or first-matching LinkRule rate
	corrupt  float64
	flaps    []Flap    // plan windows matching this link, in plan order
	degrades []Degrade // ditto
}

// NewInjector builds the injector for a plan; nil plan gives a nil (inert)
// injector.
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	return &Injector{plan: *p, detect: p.DetectionDelay(), links: make(map[[2]int]*linkState)}
}

// resolve builds the per-link state on first contact. Rule matching order
// is exactly VerdictExtra's former per-packet order, so the resolved state
// renders identical verdict sequences.
func (in *Injector) resolve(src, dst int) *linkState {
	ls := &linkState{
		stream:  linkStream(src, dst),
		drop:    in.plan.Drop,
		corrupt: in.plan.Corrupt,
	}
	for _, r := range in.plan.Links {
		if matches(r.Src, src) && matches(r.Dst, dst) {
			ls.drop, ls.corrupt = r.Drop, r.Corrupt
			break
		}
	}
	for _, f := range in.plan.Flaps {
		if matches(f.Src, src) && matches(f.Dst, dst) {
			ls.flaps = append(ls.flaps, f)
		}
	}
	for _, d := range in.plan.Degrades {
		if matches(d.Src, src) && matches(d.Dst, dst) {
			ls.degrades = append(ls.degrades, d)
		}
	}
	// A crashed node's NIC is dark: fold each crash touching an endpoint of
	// this link into a flap window, so packets to or from the node are lost
	// exactly like a pulled cable until the (optional) repair.
	for _, c := range in.plan.NodeCrashes {
		if c.Node == src || c.Node == dst {
			until := c.RepairAt
			if until == 0 {
				until = Forever
			}
			ls.flaps = append(ls.flaps, Flap{Src: src, Dst: dst, From: c.At, Until: until})
		}
	}
	return ls
}

// NodeDownDetected reports the first of src and dst (src before dst)
// whose crash is both in effect and past the plan's detection delay at now
// — the point where devices stop burning retries toward it and fail typed
// instead — with the instant it crashed. Nil-safe.
func (in *Injector) NodeDownDetected(src, dst int, now units.Time) (node int, at units.Time, ok bool) {
	if in == nil {
		return 0, 0, false
	}
	for _, c := range in.plan.NodeCrashes {
		if c.Node != src && (c.Node != dst || ok) || now < c.At+in.detect || c.RepairAt != 0 && now >= c.RepairAt {
			continue
		}
		node, at, ok = c.Node, c.At, true
		if c.Node == src {
			break
		}
	}
	return node, at, ok
}

// Plan returns the plan the injector renders, or nil on a nil injector.
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return &in.plan
}

// Instrument binds the injector's counters under faults/... in m.
func (in *Injector) Instrument(m *metrics.Registry) {
	if in == nil || m == nil {
		return
	}
	in.packets = m.Counter("faults/packets")
	in.drops = m.Counter("faults/drops")
	in.corrupts = m.Counter("faults/corrupts")
	in.flapDrops = m.Counter("faults/flap_drops")
}

// VerdictExtra decides the fate of the next packet on link src->dst at the
// simulated instant now. Each call consumes one per-link draw, so callers
// must invoke it exactly once per transfer attempt. extra is a per-packet
// drop rate the route itself contributes — a degrading linecard the packet
// happens to ride. It must be a pure function of (route, now) so the
// per-link ordinal stays schedule-independent: the same packet sees the
// same extra rate in every run.
func (in *Injector) VerdictExtra(src, dst int, now units.Time, extra float64) Verdict {
	in.packets.Inc()
	key := [2]int{src, dst}
	ls := in.links[key]
	if ls == nil {
		ls = in.resolve(src, dst)
		in.links[key] = ls
	}
	for _, f := range ls.flaps {
		if now >= f.From && now < f.Until {
			in.flapDrops.Inc()
			return Drop
		}
	}
	drop, corrupt := ls.drop+extra, ls.corrupt
	for _, d := range ls.degrades {
		if now >= d.From && now < d.Until {
			drop += d.Drop
		}
	}
	if drop <= 0 && corrupt <= 0 {
		// No draw consumed: a healthy link's ordinal must not advance, so a
		// plan that later degrades the link replays identically.
		return Deliver
	}
	n := ls.n
	ls.n = n + 1
	u := prn(in.plan.Seed, ls.stream, n)
	switch {
	case u < drop:
		in.drops.Inc()
		return Drop
	case u < drop+corrupt:
		in.corrupts.Inc()
		return Corrupt
	default:
		return Deliver
	}
}

// NICStall returns how long an operation started on node at now must wait
// for a stall window to clear (0 when none is active).
func (in *Injector) NICStall(node int, now units.Time) units.Time {
	var d units.Time
	for _, s := range in.plan.Stalls {
		if s.Node == node && now >= s.From && now < s.Until {
			if wait := s.Until - now; wait > d {
				d = wait
			}
		}
	}
	return d
}

// BusDelay returns the extra bus-contention delay for an operation started
// on node at now (0 outside every burst window).
func (in *Injector) BusDelay(node int, now units.Time) units.Time {
	var d units.Time
	for _, b := range in.plan.Bursts {
		if b.Node == node && now >= b.From && now < b.Until {
			d += b.Delay
		}
	}
	return d
}

// matches is rule-endpoint matching with Wildcard.
func matches(pattern, node int) bool { return pattern == Wildcard || pattern == node }

// linkStream packs a directed link into a PRNG stream id. Node counts are
// far below 2^20, so streams never collide.
func linkStream(src, dst int) uint64 {
	return uint64(uint32(src))<<20 | uint64(uint32(dst))
}

// Uniform exposes the counter-based PRNG to other deterministic subsystems
// (the rail health monitor draws its heartbeat jitter and probe targets
// from it): a uniform float64 in [0, 1) that is a pure function of
// (seed, stream, counter), hence identical at any -j and on any host.
func Uniform(seed, stream, counter uint64) float64 { return prn(seed, stream, counter) }

// prn is the counter-based PRNG: a splitmix64-style finalizer over
// (seed, stream, counter), returning a uniform float64 in [0, 1). Being a
// pure function of its inputs is what makes fault runs replayable and
// independent of scheduling: there is no generator state to share or race
// on.
func prn(seed, stream, counter uint64) float64 {
	x := seed + 0x9E3779B97F4A7C15*(stream+1) + 0xD1B54A32D192ED03*(counter+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
