package mpi

// ULFM-lite rank-death handling: the MPI-visible half of a node crash
// (faults.Plan.NodeCrashes). The device layer already black-holes traffic
// into a crashed node and, after the plan's detection delay, fails transfers
// fast with a typed faults.NodeDownError. This file adds what real MPI
// fault-tolerance work (ULFM) layers on top: the victim ranks' processes
// die, the death is *announced* to the survivors after the same detection
// delay, and every pending operation on a dead peer resolves — with a
// Status.Err notification under Config.FaultTolerant, or a typed job abort
// otherwise — instead of waiting out the watchdog.
//
// Crashes are permanent at this layer even when the plan repairs the node's
// links (NodeCrash.RepairAt): the hardware can come back, but the MPI
// process on it is gone — there is no respawn, exactly as in ULFM, where a
// failed rank stays failed for the life of the job.
//
// All of this runs on the world's one engine, so the cooperative scheduler
// is the only lock needed.

import (
	"mpinet/internal/faults"
	"mpinet/internal/msgtrace"
)

// armCrashes schedules the plan's node crashes against this world's ranks:
// at each crash time the node's ranks are marked crashed (each unwinds with
// a rankKilled panic at its next library call) and the crash lands in the
// flight ring as an element-down incident; one detection delay later the
// deaths become visible to peers (failed set, every rank woken so pending
// waits re-evaluate against peerFailed).
func (w *World) armCrashes(plan *faults.Plan) {
	w.crashed = make([]bool, w.cfg.Procs)
	w.failed = make([]bool, w.cfg.Procs)
	detect := plan.DetectionDelay()
	for _, c := range plan.NodeCrashes {
		var victims []int
		for r := 0; r < w.cfg.Procs; r++ {
			if w.nodeOf(r) == c.Node {
				victims = append(victims, r)
			}
		}
		if len(victims) == 0 {
			continue
		}
		c, victims := c, victims
		w.eng.At(c.At, func() {
			w.rec.Flight(msgtrace.FlightElementDown, c.At, -1, 0, msgtrace.StageHop,
				msgtrace.ElemCode(msgtrace.ElemNode, c.Node), int64(c.RepairAt))
			for _, r := range victims {
				w.crashed[r] = true
				w.procs[r].progress.Broadcast()
			}
		})
		w.eng.At(c.At+detect, func() {
			for _, r := range victims {
				w.failed[r] = true
			}
			w.anyFailed = true
			for _, ps := range w.procs {
				ps.progress.Broadcast()
			}
		})
	}
}

// rankDead reports whether the rank's own node has crashed — the rank's
// process must unwind at its next library touch.
func (w *World) rankDead(rank int) bool {
	return w.crashed != nil && w.crashed[rank]
}

// peerFailed resolves a pending request against the set of detected rank
// deaths: it returns the dead peer and true when the request can never
// complete because that peer died. A matched receive is judged by the rank
// that actually sent the message; an unmatched AnySource receive fails on
// any death — the canonical ULFM rule, since the library cannot prove the
// would-be sender is still alive.
func (w *World) peerFailed(req *request) (int, bool) {
	if !w.anyFailed {
		return 0, false
	}
	if req.isSend {
		if w.failed[req.peer] {
			return req.peer, true
		}
		return 0, false
	}
	src := req.src
	if req.matched != nil {
		src = req.matched.src
	}
	if src == AnySource {
		for r, dead := range w.failed {
			if dead {
				return r, true
			}
		}
		return 0, false
	}
	if src >= 0 && w.failed[src] {
		return src, true
	}
	return 0, false
}

// failPeer resolves a request whose peer died. Under Config.FaultTolerant a
// user-level point-to-point operation (non-negative tag) completes
// exceptionally — Status.Err carries the RankFailedError and the job goes
// on. Everything else — collectives (internal negative tags), and any death
// with fault tolerance off — aborts the job with the same typed error.
func (ps *procState) failPeer(req *request, failed int, why string) {
	w := ps.world
	now := ps.eng.Now()
	err := &RankFailedError{Rank: ps.rank, Failed: failed, Op: why, At: now}
	if w.tolerant && req.tag >= 0 {
		req.done = true
		req.status = Status{Source: failed, Tag: req.tag, Err: err}
		if !req.isSend {
			ps.removePosted(req)
		}
		ps.finishReq(req, ps.failSpans)
		ps.notify()
		return
	}
	w.rec.Flight(msgtrace.FlightAbort, now, ps.rank, 0, msgtrace.StageWait, int64(failed), 0)
	w.rec.Freeze("rank failure: "+err.Error(), now, ps.rank, msgtrace.StageWait, 0)
	w.fail(err)
}
