package fabric

import (
	"fmt"

	"mpinet/internal/faults"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
)

// This file is the fabric's failure-domain layer: rendering a fault plan's
// SwitchKills and LinecardDegrades into routing behaviour. The Clos model
// keeps state only at the leaf tier, so element deaths map onto route
// equivalence classes: a spine-tier kill (Level >= 1) takes down the
// up-link plane Index mod uplinks fabric-wide; a leaf kill (Level 0) takes
// down every host under the leaf. Routing reacts on a detection delay —
// before detection, traffic keeps selecting the dead element and
// black-holes into it (the device retry protocols carry the gap, exactly
// like a subnet-manager sweep interval); after, deterministic ECMP
// re-hashes over the surviving planes and adaptive routing stops
// considering dead ones. When no plane survives, or an endpoint's leaf is
// detected dead, the route is Partitioned: the device fails typed
// (faults.PartitionError) instead of burning its retry budget.

// RouteState classifies the route Between just computed.
type RouteState int

const (
	// RouteOK is a live route.
	RouteOK RouteState = iota
	// RouteBlackhole is a route through a dead element whose death is not
	// yet detected: the packet is forcibly lost (no PRNG draw — the fate is
	// structural, not probabilistic), and the device's retry protocol covers
	// the detection window.
	RouteBlackhole
	// RoutePartitioned means no surviving route exists between the
	// endpoints; the device must fail typed rather than transmit.
	RoutePartitioned
)

// RouteInfo is the fate of a route under element faults, resolved by
// Between inside the route's Segment.
type RouteInfo struct {
	State RouteState
	// Element names the dead element responsible for a Blackhole or
	// Partitioned verdict ("leaf 3", "spine plane 1").
	Element string
	// ElementCode is the packed element identity for flight-recorder
	// attribution (msgtrace element codes), 0 when State is RouteOK.
	ElementCode int64
	// ExtraDrop is the summed extra drop probability of linecard degrades
	// active on this route — a pure function of (route, now), fed to
	// Injector.VerdictExtra so degraded runs replay byte-identically.
	ExtraDrop float64
}

// Element codes are msgtrace's packed flight-record encoding, re-exported
// here so fabric callers need not name the tracing package.
const (
	ElemLeaf  = msgtrace.ElemLeaf
	ElemPlane = msgtrace.ElemPlane
	ElemNode  = msgtrace.ElemNode
)

// ElemCode packs an element kind and index into a flight-record argument.
func ElemCode(kind int64, index int) int64 { return msgtrace.ElemCode(kind, index) }

// elementHealth is the Clos topology's view of the fault plan's element
// faults, read at the now each Between call passes.
type elementHealth struct {
	kills    []faults.SwitchKill
	degrades []faults.LinecardDegrade
	detect   sim.Time
	// names caches element display names by element code: a black-holed
	// plane is named on every message routed into it until detection.
	names map[int64]string
}

// name returns the display name of a leaf or plane element ("leaf 3",
// "spine plane 1"), formatted once per element.
func (h *elementHealth) name(kind int64, index int) string {
	code := ElemCode(kind, index)
	if s, ok := h.names[code]; ok {
		return s
	}
	s := fmt.Sprintf("spine plane %d", index)
	if kind == ElemLeaf {
		s = fmt.Sprintf("leaf %d", index)
	}
	if h.names == nil {
		h.names = make(map[int64]string)
	}
	h.names[code] = s
	return s
}

// SetElementFaults arms the topology's failure-domain rendering from a
// plan's SwitchKills/LinecardDegrades. The device calls it at construction
// when the plan has element faults. Faults naming elements the fabric does
// not have, and degrades whose drop is not a probability, are rejected.
func (t *Clos) SetElementFaults(p *faults.Plan) error {
	if p == nil || !p.HasElements() {
		return nil
	}
	for _, k := range p.SwitchKills {
		if err := t.checkElement("switch kill", k.Level, k.Index); err != nil {
			return err
		}
	}
	for _, d := range p.LinecardDegrades {
		if err := t.checkElement("linecard degrade", d.Level, d.Index); err != nil {
			return err
		}
		if !(d.Drop >= 0 && d.Drop <= 1) {
			return fmt.Errorf("linecard degrade drop %g is not a probability in [0, 1]", d.Drop)
		}
	}
	t.health = elementHealth{
		kills:    append([]faults.SwitchKill(nil), p.SwitchKills...),
		degrades: append([]faults.LinecardDegrade(nil), p.LinecardDegrades...),
		detect:   p.DetectionDelay(),
	}
	return nil
}

// checkElement rejects a fault at a level the fabric does not have, at a
// leaf past its last, or at a negative index. A spine index past the plane
// count is fine: it folds onto plane Index mod uplinks.
func (t *Clos) checkElement(what string, level, index int) error {
	switch {
	case level < 0 || level >= t.cfg.Levels:
		return fmt.Errorf("%s at level %d: fabric has levels 0..%d", what, level, t.cfg.Levels-1)
	case index < 0:
		return fmt.Errorf("%s at level %d index %d: indices start at 0", what, level, index)
	case level == 0 && index >= t.leaves:
		return fmt.Errorf("%s at leaf %d: fabric has %d leaves", what, index, t.leaves)
	}
	return nil
}

// planeState reports whether up-link plane u is dead at now and whether the
// death has been detected.
func (t *Clos) planeState(u int, now sim.Time) (dead, detected bool) {
	h := &t.health
	for _, k := range h.kills {
		if k.Level >= 1 && k.Index%t.uplinks == u {
			if k.Dead(now) {
				dead = true
			}
			if k.Detected(now, h.detect) {
				detected = true
			}
		}
	}
	return dead, detected
}

// leafState reports whether leaf l is dead at now and whether the death has
// been detected.
func (t *Clos) leafState(l int, now sim.Time) (dead, detected bool) {
	h := &t.health
	for _, k := range h.kills {
		if k.Level == 0 && k.Index == l {
			if k.Dead(now) {
				dead = true
			}
			if k.Detected(now, h.detect) {
				detected = true
			}
		}
	}
	return dead, detected
}

// routeExtra sums the linecard degrades active on a route at now: leaf
// degrades on either endpoint leaf, plane degrades on the chosen plane.
func (t *Clos) routeExtra(sl, dl, plane int, now sim.Time) float64 {
	var extra float64
	for _, d := range t.health.degrades {
		if !d.Active(now) {
			continue
		}
		switch {
		case d.Level == 0 && (d.Index == sl || d.Index == dl):
			extra += d.Drop
		case d.Level >= 1 && plane >= 0 && d.Index%t.uplinks == plane:
			extra += d.Drop
		}
	}
	return extra
}

// route resolves into seg the route of one message from leaf sl to dst on
// leaf dl at now, its fate included: the only route function of the Clos.
// With no fault active at now every plane is routable in order, so
// deterministic ECMP is dst % uplinks and the adaptive policy weighs every
// plane with the same draws a fault-free fabric makes; arming an all-future
// plan therefore does not perturb the pre-fault prefix of a run.
func (t *Clos) route(seg *Segment, dst, sl, dl int, now sim.Time) {
	h := &t.health
	if sl == dl {
		var info RouteInfo
		if dead, det := t.leafState(sl, now); dead {
			info.Element = h.name(ElemLeaf, sl)
			info.ElementCode = ElemCode(ElemLeaf, sl)
			if det {
				info.State = RoutePartitioned
			} else {
				info.State = RouteBlackhole
			}
		}
		info.ExtraDrop = t.routeExtra(sl, dl, -1, now)
		*seg = Segment{Down: t.cfg.Crossing, Plane: -1, Fate: info}
		return
	}
	// A dead endpoint leaf beats plane selection: no plane routes around it.
	// A detected leaf death partitions; an undetected one black-holes.
	var info RouteInfo
	for _, l := range [2]int{sl, dl} {
		dead, det := t.leafState(l, now)
		if !dead {
			continue
		}
		if det || info.State == RouteOK {
			info.Element = h.name(ElemLeaf, l)
			info.ElementCode = ElemCode(ElemLeaf, l)
			if det {
				info.State = RoutePartitioned
			} else {
				info.State = RouteBlackhole
			}
		}
		if info.State == RoutePartitioned {
			break
		}
	}
	// Routable planes: those whose death, if any, is not yet detected.
	// Detection removes a plane from the hash space (the re-hash); repair
	// puts it straight back (Dead turns false at RepairAt).
	routable, _ := t.leafScratch(sl)
	firstDetected := -1
	for u := 0; u < t.uplinks; u++ {
		if _, det := t.planeState(u, now); det {
			if firstDetected < 0 {
				firstDetected = u
			}
			continue
		}
		routable = append(routable, u)
	}
	var u int
	switch {
	case len(routable) == 0:
		// Every plane detected dead: the fabric is partitioned. Build the
		// path on the would-be plane anyway so callers that ignore the fate
		// still get a well-formed (never transmitted) path.
		u = dst % t.uplinks
		if info.State != RoutePartitioned {
			info.State = RoutePartitioned
			info.Element = h.name(ElemPlane, firstDetected)
			info.ElementCode = ElemCode(ElemPlane, firstDetected)
		}
	case t.cfg.Routing == Deterministic || len(routable) == 1:
		// ECMP re-hash over the survivors; with every plane routable this is
		// exactly the healthy dst % uplinks.
		u = routable[dst%len(routable)]
	default:
		u = t.pickAdaptive(sl, routable)
	}
	if dead, _ := t.planeState(u, now); dead && info.State == RouteOK {
		// Chosen plane is dead but not yet detected: black-hole.
		info.State = RouteBlackhole
		info.Element = h.name(ElemPlane, u)
		info.ElementCode = ElemCode(ElemPlane, u)
	}
	info.ExtraDrop = t.routeExtra(sl, dl, u, now)
	*seg = Segment{Stages: t.stagePair(sl, dl, u), Down: t.cfg.Crossing, Plane: u, Fate: info}
}

// pickAdaptive is the adaptive policy restricted to a candidate plane set:
// the least-backlogged up-link of the source leaf, ties falling to a seeded
// counter PRNG so the choice disperses rather than herding onto the first
// candidate. The tie set lives in the leaf's scratch, beside (never
// overlapping) the routable set the candidates come from.
func (t *Clos) pickAdaptive(sl int, candidates []int) int {
	_, best := t.leafScratch(sl)
	best = append(best, candidates[0])
	bestAt := t.up[sl][candidates[0]].FreeAt()
	for _, u := range candidates[1:] {
		at := t.up[sl][u].FreeAt()
		if at < bestAt {
			best, bestAt = best[:0], at
			best = append(best, u)
		} else if at == bestAt {
			best = append(best, u)
		}
	}
	if len(best) == 1 {
		return best[0]
	}
	n := t.counter[sl]
	t.counter[sl] = n + 1
	r := sim.NewRNG(t.cfg.Seed ^ uint64(sl)<<32 ^ n)
	return best[r.Intn(len(best))]
}

// DeadElement reports the first fabric element dead at now, for rail-layer
// incident attribution (a rail whose fabric lost a spine should name the
// spine, not just itself). ok is false when nothing is dead.
func (t *Clos) DeadElement(now sim.Time) (name string, code int64, ok bool) {
	for _, k := range t.health.kills {
		if !k.Dead(now) {
			continue
		}
		if k.Level == 0 {
			return fmt.Sprintf("leaf %d", k.Index), ElemCode(ElemLeaf, k.Index), true
		}
		p := k.Index % t.uplinks
		return fmt.Sprintf("spine plane %d", p), ElemCode(ElemPlane, p), true
	}
	return "", 0, false
}

// Diameter reports the element count of the longest route: up through
// Levels-1 tiers and back down, plus the destination leaf (Hops' maximum).
func (t *Clos) Diameter() int { return 2*(t.cfg.Levels-1) + 1 }
