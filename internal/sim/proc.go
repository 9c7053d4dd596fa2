//go:build go1.23

// The build constraint raises this file's language version to go1.23 for
// iter.Pull while the module (and the bench module that replaces it) stays
// at go 1.22.

package sim

import (
	"cmp"
	"fmt"
	"iter"
	"slices"
)

// Proc is a simulated process: a coroutine whose execution is interleaved
// with the event loop so that exactly one of (engine, some process) runs at
// a time. A Proc advances the virtual clock only by blocking — Sleep for
// compute time, Cond.WaitFor for synchronization — and therefore reads as
// ordinary sequential code.
type Proc struct {
	eng  *Engine
	name string
	// seq is the sequence number of the starter event, unique on the engine
	// and increasing in spawn order; Reap releases processes in this order.
	seq uint64

	// next resumes the coroutine until it parks (true) or returns (false);
	// yield, called from inside it, suspends it back to next's caller and
	// reports false once stop has cancelled it. A coroutine switch hands
	// the thread over directly, without a trip through the Go scheduler.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// panicked is the value fn panicked with, recovered inside the
	// coroutine and read by the engine once next reports completion.
	panicked interface{}

	// blockedFor describes what the process waits for, formatted only if
	// a deadlock report reads it (Cond.WaitFor).
	blockedFor fmt.Stringer

	// blocked/slept accounting. Updated only while this process runs, so
	// plain fields are race-free.
	blocked Time // time parked on conditions (waiting, not computing)
	slept   Time // time parked in Sleep (modelled compute)
}

// reaped is the panic value park raises in a process that Reap cancelled.
// It unwinds the process's stack, running its deferred calls, and Spawn's
// wrapper swallows it; model code that recovers panics must re-panic values
// it does not own.
type reaped struct{}

// Spawn creates a process named name running fn, starting at the current
// simulated time. fn runs as a coroutine, only while the engine has resumed
// it. A panic in fn is recovered inside the coroutine and re-raised by Run
// as a *ProcFailure, so it never unwinds through the engine's next call.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(reaped); !ok {
					p.panicked = r
				}
			}
		}()
		fn(p)
	})
	e.procs[p] = struct{}{}
	e.schedProc(p, 0)
	p.seq = e.seq
	return p
}

// step resumes p and blocks the engine until p parks or finishes.
func (e *Engine) step(p *Proc) {
	if _, parked := p.next(); parked {
		return
	}
	delete(e.procs, p)
	if p.panicked != nil {
		e.failure = &ProcFailure{Proc: p.name, Value: p.panicked}
	}
}

// HandleEvent implements Handler: a wake event reached its instant, so the
// engine resumes this process. Engine use only — model code wakes processes
// through Cond, Sleep and Yield.
func (p *Proc) HandleEvent(int64, int64) { p.eng.step(p) }

// park suspends the process back to the engine until somebody resumes it
// via a wake event, accounting the wait as sleep or as blocked time. If
// Reap cancels it instead, park panics with reaped.
func (p *Proc) park(sleep bool) {
	t0 := p.eng.now
	if !p.yield(struct{}{}) {
		panic(reaped{})
	}
	d := p.eng.now - t0
	if sleep {
		p.slept += d
		p.eng.slept += d
	} else {
		p.blocked += d
		p.eng.blocked += d
	}
	p.blockedFor = nil
}

// reason describes what a parked process waits for.
func (p *Proc) reason() string {
	if p.blockedFor != nil {
		return p.blockedFor.String()
	}
	return ""
}

// Reap releases every process still parked on this engine once Run has
// returned with processes blocked (a DeadlockError) or re-panicked a
// process failure. Each process unwinds from its park point, running its
// deferred calls, and ends without a ProcFailure and without blocked or
// slept accounting for the abandoned wait; its goroutine exits and no
// longer keeps the model reachable. Processes are reaped in spawn order. A
// run stopped at a RunUntil horizon that will resume must not be reaped.
func (e *Engine) Reap() {
	if e.running {
		panic("sim: Reap during Run")
	}
	ps := make([]*Proc, 0, len(e.procs))
	for p := range e.procs {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(a, b *Proc) int { return cmp.Compare(a.seq, b.seq) })
	for _, p := range ps {
		delete(e.procs, p)
		p.stop()
	}
}

// wake schedules an event that transfers control back to p. It must be
// called while the engine (or a process it resumed) is running. The wake
// is a typed event — no closure, no allocation — which matters because
// every Sleep, Yield and Cond wakeup in the simulator passes through here.
func (p *Proc) wake(delay Time) {
	p.eng.schedProc(p, delay)
}

// BlockedTime reports how long this process has spent parked on conditions
// (message waits, resource queues) — sleep time is excluded.
func (p *Proc) BlockedTime() Time { return p.blocked }

// SleptTime reports how long this process has spent in Sleep.
func (p *Proc) SleptTime() Time { return p.slept }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep advances simulated time by d from this process's perspective,
// modelling computation or a busy-wait of known length.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	if d == 0 {
		return
	}
	p.wake(d)
	p.park(true)
}

// Cond is an engine-level condition: processes wait on it, and model code
// (event callbacks or other processes) broadcasts it. Unlike sync.Cond there is
// no associated lock — the cooperative scheduler already guarantees mutual
// exclusion — but waiters must re-check their predicate after waking, as
// wakeups are ordered but not exclusive.
type Cond struct {
	waiters []*Proc
}

// WaitFor parks the calling process until the condition is broadcast. why
// describes the wait lazily: why.String() runs only if a deadlock report
// names the process, so a caller whose reason needs formatting pays for it
// only then. why must stay valid while p waits.
func (c *Cond) WaitFor(p *Proc, why fmt.Stringer) {
	c.waiters = append(c.waiters, p)
	p.blockedFor = why
	p.park(false)
}

// Broadcast wakes every current waiter, in wait order. The waiter slice's
// backing array is kept for reuse: wakes only schedule events, so no waiter
// can re-append until after the loop completes.
func (c *Cond) Broadcast() {
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for _, p := range ws {
		p.wake(0)
	}
}
