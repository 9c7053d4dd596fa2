// Package sim implements the deterministic discrete-event simulation engine
// that the interconnect, bus and MPI models run on.
//
// The engine owns a virtual clock (picosecond resolution, see
// internal/units) and a priority queue of events ordered by (time, sequence
// number). Determinism is structural: no wall-clock reads, ties are broken
// by schedule order, and simulated processes are cooperatively scheduled so
// at most one of them executes at any instant.
//
// Two styles of model code coexist:
//
//   - Callback events (Schedule / At) for hardware state machines: a DMA
//     completion, a packet arriving at a switch port.
//   - Processes (Spawn) for software: an MPI rank executing a benchmark is a
//     goroutine that blocks on simulated conditions and sleeps for simulated
//     compute time, reading as straight-line code.
//
// Events come in two physical forms. Schedule/At take a func() — the
// convenient form, which heap-allocates a closure whenever the callback
// captures state. Call/CallAt take a Handler plus two integer arguments —
// the hot-path form: the handler is a long-lived model object (a transfer
// pipeline, a process, a health monitor), so scheduling it allocates
// nothing. Park/wake of every process, every chunk hop of every
// fabric.Transfer and every rail heartbeat tick run on typed events; see
// docs/MODEL.md §15 for the performance model.
package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"mpinet/internal/metrics"
	"mpinet/internal/units"
)

// Time re-exports the simulated time type for convenience.
type Time = units.Time

// Handler is the typed-event target: a pre-allocated model object whose
// HandleEvent method the engine invokes with the two integer arguments
// given at schedule time. Because the handler already exists and the
// arguments travel inside the event record, scheduling one allocates
// nothing — this is what keeps the per-chunk and park/wake paths
// allocation-free where a closure would heap-allocate per event.
type Handler interface {
	HandleEvent(a, b int64)
}

// event is one queued occurrence. Every callback form funnels into the
// Handler word: model objects and processes implement Handler directly,
// and bare func() callbacks ride as funcHandler — a func value is
// pointer-shaped, so the interface conversion does not box. Keeping the
// record at 48 bytes matters: heap sifting copies events, and the queue
// routinely holds thousands.
type event struct {
	at   Time
	seq  uint64
	a, b int64 // HandleEvent arguments; zero for func() events
	h    Handler
}

// funcHandler adapts a plain callback to the Handler interface. Named func
// types are stored directly in an interface's data word (no allocation), so
// Schedule/At pay only for the closure the caller already built.
type funcHandler func()

// HandleEvent implements Handler by calling the wrapped func.
func (f funcHandler) HandleEvent(int64, int64) { f() }

// Timer is a cancellable, re-armable scheduled callback (see
// Engine.NewTimer). It implements Handler so its event record needs no
// closure beyond the fn the caller supplied, and it is reusable: Arm after
// Stop (or after firing) queues a fresh deadline on the same object, so a
// long-lived watchdog costs one allocation for its whole life instead of
// one per wait. Each Arm stamps a fresh generation number into the queued
// event's argument word; an event whose stamp no longer matches the
// timer's current generation is stale and is discarded at the head of the
// queue exactly like a stopped timer's event.
type Timer struct {
	eng   *Engine
	fn    func()
	gen   int64 // generation of the currently live event
	armed bool  // a live event with stamp gen sits in the queue
}

// NewTimer returns an unarmed reusable timer that runs fn when it fires.
// This is the allocation-conscious form: allocate once at wiring time, then
// Arm/Stop per use for free.
func (e *Engine) NewTimer(fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// Arm schedules the timer to fire after delay. Arming an already-armed
// timer supersedes the earlier deadline: the old event becomes stale and is
// dropped when it surfaces (or is compacted away), exactly as if it had
// been stopped.
func (t *Timer) Arm(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e := t.eng
	if t.armed {
		// The previously queued event is now stale.
		e.stoppedTimers++
	}
	t.gen++
	t.armed = true
	e.enqueue(event{at: e.now + delay, h: t, a: t.gen})
	e.maybeCompact()
}

// Stop cancels the timer. A stopped timer's event is discarded when it
// reaches the head of the queue — without advancing the clock or counting
// as a dispatch — so cancelled watchdogs leave no trace on a run: neither
// its timing nor its deadlock detection sees them. When stopped timers
// accumulate faster than they surface (per-wait watchdogs under a fault
// plan arm one per MPI wait), the engine compacts them out of the queue in
// bulk; see maybeCompact. Stop on an unarmed or already-fired timer is a
// no-op, and a stopped timer may be re-armed with Arm.
func (t *Timer) Stop() {
	if t == nil || !t.armed {
		return
	}
	t.armed = false
	t.eng.stoppedTimers++
	t.eng.maybeCompact()
}

// stale reports whether an event carrying stamp gen no longer represents
// this timer's live deadline.
func (t *Timer) stale(gen int64) bool { return !t.armed || gen != t.gen }

// HandleEvent implements Handler: the timer fired. Engine use only — the
// dispatch loop has already filtered stale events.
func (t *Timer) HandleEvent(int64, int64) {
	t.armed = false
	t.fn()
}

// eventHeap is a 4-ary min-heap ordered by (time, sequence). It is
// hand-rolled rather than container/heap because heap.Push/Pop traffic in
// interface{}, which boxes one event per Schedule — an allocation on the
// hottest path of the whole simulator. push/pop below work directly on the
// slice; the only allocations are the amortized append growths.
//
// Two shape choices matter at this call volume (tens of millions of ops per
// suite run). Arity 4 halves the tree depth, trading two extra key
// compares per level — against 48-byte elements whose moves dominate, the
// shallower tree wins, and the four children share a cache line pair.
// Sifting moves the displaced element through a hole instead of swapping:
// one copy per level plus a final placement, rather than three. Neither
// changes which event pops next — (at, seq) is a strict total order, so
// every correct heap yields the identical pop sequence and determinism is
// untouched.
type eventHeap []event

const heapArity = 4

// lessEv orders events by (time, sequence).
func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// siftUp restores the heap property for a node that may beat its parents.
func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / heapArity
		if !lessEv(&ev, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

// siftDown restores the heap property for a node that may lose to a child.
func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if lessEv(&h[c], &h[best]) {
				best = c
			}
		}
		if !lessEv(&h[best], &ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}

// push adds ev and sifts it up to its heap position.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() event {
	q := *h
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // release the handler reference
	q = q[:n]
	*h = q
	if n > 0 {
		q.siftDown(0)
	}
	return min
}

// totalDispatched accumulates events dispatched across every engine in the
// process — the work measure the benchmark (bash bench/run.sh, workloads in
// BENCHMARK.json) reports as sim.events and events/sec. Engines add their
// per-run delta once per Run, so the hot loop never touches the atomic.
var totalDispatched atomic.Uint64

// TotalDispatched reports the number of events dispatched by all completed
// (or horizon-stopped) engine runs process-wide.
func TotalDispatched() uint64 { return totalDispatched.Load() }

// Timer-compaction thresholds: compact when at least compactMinStopped
// cancelled timers sit in the queue AND they exceed a quarter of it. The
// floor keeps small queues from compacting on every Stop; the fraction
// bounds wasted heap traffic (every sift step over a dead event is pure
// overhead) to a constant factor.
const compactMinStopped = 64

// Engine is a discrete-event simulator instance. It is not safe for
// concurrent use; all model code runs on the engine's goroutine or on a
// process that the engine has handed control to.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	// nowq is the current-instant FIFO lane: an event scheduled for the
	// instant being dispatched carries a larger sequence number than every
	// queued event at that instant (sequence numbers are globally
	// increasing), so it runs after all of them, in schedule order — a
	// strict FIFO. Appending to a ring is O(1) where a heap push is
	// O(log n), and zero-delay traffic (Cond wakeups, Yield, same-instant
	// protocol steps) is a large share of all events. Dispatch drains heap
	// events at the current instant first (their sequence numbers are
	// smaller by construction), then this queue; the merged order is
	// exactly the global (at, seq) order, so determinism is untouched.
	nowq     []event
	nowqHead int
	procs    map[*Proc]struct{}
	// failure captured from a panicking process, re-raised by Run.
	failure    interface{}
	running    bool
	dispatched uint64
	qhw        int  // event-queue depth high-water mark
	blocked    Time // total time processes spent blocked (not sleeping)
	slept      Time // total time processes spent in Sleep
	// stoppedTimers counts cancelled timer events still in the queue;
	// maybeCompact removes them in bulk once they dominate.
	stoppedTimers int
	compactions   uint64
}

// New returns an empty engine with the clock at zero.
func New() *Engine {
	return &Engine{procs: make(map[*Proc]struct{})}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// enqueue stamps the next sequence number on ev, queues it (the FIFO lane
// for current-instant events during dispatch, the heap otherwise) and
// maintains the depth high-water mark — the single funnel every schedule
// form feeds.
func (e *Engine) enqueue(ev event) {
	e.seq++
	ev.seq = e.seq
	if e.running && ev.at == e.now {
		e.nowq = append(e.nowq, ev)
	} else {
		e.events.push(ev)
	}
	if d := len(e.events) + len(e.nowq) - e.nowqHead; d > e.qhw {
		e.qhw = d
	}
}

// Schedule runs fn after delay (which may be zero). Events scheduled for the
// same instant run in schedule order.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at the absolute time t, which must not be in the past.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	e.enqueue(event{at: t, h: funcHandler(fn)})
}

// Call invokes h.HandleEvent(a, b) after delay. It is the allocation-free
// counterpart of Schedule: h is an existing model object and a/b ride in
// the event record, so nothing escapes to the heap.
func (e *Engine) Call(delay Time, h Handler, a, b int64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.CallAt(e.now+delay, h, a, b)
}

// CallAt invokes h.HandleEvent(a, b) at the absolute time t, which must not
// be in the past. See Call.
func (e *Engine) CallAt(t Time, h Handler, a, b int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%v < %v)", t, e.now))
	}
	e.enqueue(event{at: t, h: h, a: a, b: b})
}

// schedProc queues a resume of p after delay — the park/wake path. Proc
// implements Handler, so this allocates nothing.
func (e *Engine) schedProc(p *Proc, delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.enqueue(event{at: e.now + delay, h: p})
}

// maybeCompact removes cancelled timer events from the queue in bulk once
// they exceed the compaction thresholds. Without this, per-wait watchdogs
// (auto-armed on every MPI wait under a fault plan) rot in the heap until
// their far-future deadlines surface at the head, and every push/pop in
// between sifts over them. Compaction filters the backing slice in place
// and re-heapifies; the (at, seq) total order that determines dispatch is
// untouched, so determinism is unaffected.
func (e *Engine) maybeCompact() {
	if e.stoppedTimers < compactMinStopped || e.stoppedTimers*4 <= len(e.events) {
		return
	}
	kept := e.events[:0]
	for _, ev := range e.events {
		if t, ok := ev.h.(*Timer); ok && t.stale(ev.a) {
			continue
		}
		kept = append(kept, ev)
	}
	// Zero the tail so dropped events release their references.
	tail := e.events[len(kept):]
	for i := range tail {
		tail[i] = event{}
	}
	e.events = kept
	if len(kept) > 1 {
		for i := (len(kept) - 2) / heapArity; i >= 0; i-- {
			e.events.siftDown(i)
		}
	}
	// The FIFO lane can hold stopped timers too (armed and cancelled
	// within the same instant); filter its live region, head left in place.
	if e.nowqHead < len(e.nowq) {
		keptNow := e.nowq[:e.nowqHead]
		for _, ev := range e.nowq[e.nowqHead:] {
			if t, ok := ev.h.(*Timer); ok && t.stale(ev.a) {
				continue
			}
			keptNow = append(keptNow, ev)
		}
		tail := e.nowq[len(keptNow):]
		for i := range tail {
			tail[i] = event{}
		}
		e.nowq = keptNow
	}
	e.stoppedTimers = 0
	e.compactions++
}

// Run dispatches events until the queue is empty. If live processes remain
// blocked when the queue drains, Run returns a DeadlockError naming them. If
// a process panicked, Run re-panics with the process name attached.
func (e *Engine) Run() error {
	return e.RunUntil(-1)
}

// RunUntil is Run with a horizon: once the clock would pass limit, dispatch
// stops (events at exactly limit still run). A negative limit means no
// horizon. Processes still blocked at exit are not an error when the horizon
// was reached.
func (e *Engine) RunUntil(limit Time) error {
	if e.running {
		panic("sim: Run re-entered")
	}
	e.running = true
	startDispatched := e.dispatched
	defer func() {
		e.running = false
		totalDispatched.Add(e.dispatched - startDispatched)
	}()

	horizon := false
	for {
		var ev event
		if e.nowqHead < len(e.nowq) && (len(e.events) == 0 || e.events[0].at > e.now) {
			// FIFO lane: every heap event at this instant (all with
			// smaller sequence numbers) has already run.
			ev = e.nowq[e.nowqHead]
			e.nowq[e.nowqHead] = event{} // release the handler reference
			e.nowqHead++
			if e.nowqHead == len(e.nowq) {
				e.nowq = e.nowq[:0]
				e.nowqHead = 0
			}
			if t, ok := ev.h.(*Timer); ok && t.stale(ev.a) {
				e.stoppedTimers--
				continue
			}
		} else if len(e.events) > 0 {
			ev = e.events[0]
			if t, ok := ev.h.(*Timer); ok && t.stale(ev.a) {
				// Cancelled or superseded by a re-Arm: drop without
				// advancing the clock or counting a dispatch.
				e.stoppedTimers--
				e.events.pop()
				continue
			}
			if limit >= 0 && ev.at > limit {
				horizon = true
				break
			}
			e.events.pop()
			e.now = ev.at
		} else {
			break
		}
		e.dispatched++
		ev.h.HandleEvent(ev.a, ev.b)
		if e.failure != nil {
			f := e.failure
			e.failure = nil
			panic(f)
		}
	}
	if horizon {
		e.now = limit
		return nil
	}
	if n := len(e.procs); n > 0 {
		names := make([]string, 0, n)
		for p := range e.procs {
			names = append(names, fmt.Sprintf("%s (blocked: %s)", p.name, p.reason()))
		}
		sort.Strings(names)
		return &DeadlockError{At: e.now, Procs: names}
	}
	return nil
}

// Dispatched reports how many events the engine has executed — a measure
// of simulation work, useful for budgeting large experiments.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// LiveProcs reports the number of processes that have been spawned and have
// not yet returned.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// BlockedTime reports total time processes spent blocked on conditions
// (waiting for messages, resources) across the whole run — sleep time,
// which models computation, is excluded.
func (e *Engine) BlockedTime() Time { return e.blocked }

// SleptTime reports total time processes spent in Sleep (modelled compute).
func (e *Engine) SleptTime() Time { return e.slept }

// Instrument registers the engine's own health metrics in m: events
// dispatched, event-queue depth high-water, timer compactions, and
// aggregate process blocked/slept time. All are snapshot-time probes; the
// event loop itself is untouched.
func (e *Engine) Instrument(m *metrics.Registry) {
	if m == nil {
		return
	}
	m.ProbeCount("engine/events_dispatched", func() int64 { return int64(e.dispatched) })
	m.ProbeGauge("engine/queue_high_water", func() int64 { return int64(e.qhw) })
	m.ProbeCount("engine/timer_compactions", func() int64 { return int64(e.compactions) })
	m.ProbeTime("engine/blocked_time", e.BlockedTime)
	m.ProbeTime("engine/slept_time", e.SleptTime)
}

// ProcFailure is the value Run re-panics with when a simulated process
// panicked: it names the process and carries the original panic value
// intact, so a caller recovering it can inspect (or unwrap) typed values
// instead of a flattened string.
type ProcFailure struct {
	Proc  string
	Value interface{}
}

func (f *ProcFailure) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", f.Proc, f.Value)
}

// DeadlockError is returned by Run when all events have drained while
// simulated processes are still blocked — the simulation analogue of an MPI
// hang.
type DeadlockError struct {
	At    Time
	Procs []string
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v; blocked processes: %s",
		d.At, strings.Join(d.Procs, ", "))
}
