package sim

import (
	"fmt"
	"strings"
	"testing"
)

// perCycleAllocs runs body at two cycle counts and returns the marginal
// allocations per cycle. The subtraction cancels fixed setup costs (engine,
// goroutine spawn, slice warm-up) so only the steady-state per-cycle cost
// remains — the quantity the allocation-free hot paths must keep at zero.
func perCycleAllocs(t *testing.T, small, large int, body func(cycles int)) float64 {
	t.Helper()
	a := testing.AllocsPerRun(5, func() { body(small) })
	b := testing.AllocsPerRun(5, func() { body(large) })
	return (b - a) / float64(large-small)
}

// TestParkWakeZeroAlloc pins the handoff redesign: a steady-state
// Sleep/resume cycle (park, wake event, resume) must not allocate. Before
// the typed-event overhaul each cycle allocated a wake closure.
func TestParkWakeZeroAlloc(t *testing.T) {
	per := perCycleAllocs(t, 64, 8256, func(cycles int) {
		e := New()
		e.Spawn("s", func(p *Proc) {
			for i := 0; i < cycles; i++ {
				p.Sleep(1)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if per > 0.001 {
		t.Errorf("park/wake allocates %.4f per cycle, want 0", per)
	}
}

// TestCondWakeZeroAlloc covers the second hot blocking path: a Cond
// WaitFor/Broadcast cycle between two processes must not allocate in steady
// state (the waiters slice reuses its backing array).
func TestCondWakeZeroAlloc(t *testing.T) {
	per := perCycleAllocs(t, 64, 8256, func(cycles int) {
		e := New()
		var c Cond
		turn := 0
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < cycles; i++ {
				for turn%2 != 0 {
					c.WaitFor(p, why("a"))
				}
				turn++
				c.Broadcast()
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < cycles; i++ {
				for turn%2 != 1 {
					c.WaitFor(p, why("b"))
				}
				turn++
				c.Broadcast()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if per > 0.001 {
		t.Errorf("cond wait/broadcast allocates %.4f per cycle, want 0", per)
	}
}

// TestCondBroadcastWakesInWaitOrder is the Broadcast analogue: waiters
// resumed by one Broadcast run in the order they began waiting, regardless
// of spawn order.
func TestCondBroadcastWakesInWaitOrder(t *testing.T) {
	e := New()
	var c Cond
	var woke []string
	for i := 3; i >= 0; i-- {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(Time(10 * (i + 1)))
			c.WaitFor(p, why("gate"))
			woke = append(woke, p.name)
		})
	}
	e.Spawn("opener", func(p *Proc) {
		p.Sleep(100)
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(woke, " "); got != "w0 w1 w2 w3" {
		t.Fatalf("broadcast wake order = %q, want wait order \"w0 w1 w2 w3\"", got)
	}
}

// TestTimerCompactionReclaimsStopped stops enough timers to cross the lazy
// compaction threshold and requires: compaction actually ran, the stopped
// entries are gone from the queue, and neither the clock nor the dispatch
// count shows any trace of the cancelled timers.
func TestTimerCompactionReclaimsStopped(t *testing.T) {
	e := New()
	const n = 400
	timers := make([]*Timer, 0, n)
	fired := 0
	for i := 0; i < n; i++ {
		tm := e.NewTimer(func() { fired++ })
		tm.Arm(Time(1000 + i))
		timers = append(timers, tm)
	}
	e.Schedule(5, func() {
		for _, tm := range timers[:n-1] {
			tm.Stop()
		}
	})
	before := e.Dispatched()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.compactions == 0 {
		t.Error("stopping most of the queue never triggered a compaction")
	}
	if e.stoppedTimers != 0 {
		t.Errorf("stoppedTimers = %d after run, want 0", e.stoppedTimers)
	}
	if fired != 1 {
		t.Fatalf("%d timers fired, want only the surviving one", fired)
	}
	if e.Now() != Time(1000+n-1) {
		t.Errorf("clock = %v, want %d (stopped timers must not move the clock)", e.Now(), 1000+n-1)
	}
	if got := e.Dispatched() - before; got != 2 {
		t.Errorf("dispatched %d events, want 2 (the stopper and the survivor)", got)
	}
}

// TestTimerCompactionMidRun verifies compaction during dispatch leaves the
// queue consistent: events scheduled around a compaction still run in exact
// (time, seq) order.
func TestTimerCompactionMidRun(t *testing.T) {
	e := New()
	var got []int
	timers := make([]*Timer, 0, 256)
	for i := 0; i < 256; i++ {
		tm := e.NewTimer(func() { t.Error("stopped timer fired") })
		tm.Arm(Time(5000 + i))
		timers = append(timers, tm)
	}
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(Time(100*(i+1)), func() { got = append(got, i) })
	}
	e.Schedule(50, func() {
		for _, tm := range timers {
			tm.Stop()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.compactions == 0 {
		t.Fatal("no compaction happened mid-run")
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("post-compaction order broken: got %v", got)
		}
	}
	if e.pending() != 0 {
		t.Errorf("Pending = %d after run, want 0", e.pending())
	}
}

// TestStopAfterFireIsNoOp: stopping a timer that already fired must not
// corrupt the stopped-timer accounting that drives compaction.
func TestStopAfterFireIsNoOp(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() {})
	tm.Arm(10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tm.Stop()
	tm.Stop()
	if e.stoppedTimers != 0 {
		t.Errorf("stoppedTimers = %d after stopping a fired timer, want 0", e.stoppedTimers)
	}
}

// TestTimerArmStopZeroAlloc pins the reusable-timer redesign: a steady-state
// Arm/Stop cycle on a long-lived timer (the per-rank MPI watchdog pattern)
// must not allocate — the generation stamp rides in the event record and
// compaction reclaims the stale entries in place.
func TestTimerArmStopZeroAlloc(t *testing.T) {
	per := perCycleAllocs(t, 64, 8256, func(cycles int) {
		e := New()
		tm := e.NewTimer(func() {})
		for i := 0; i < cycles; i++ {
			tm.Arm(Time(1 << 40))
			tm.Stop()
		}
	})
	if per > 0.001 {
		t.Errorf("timer arm/stop allocates %.4f per cycle, want 0", per)
	}
}

// TestTimerRearmSupersedes re-arms an armed timer: only the newest deadline
// may fire, the superseded event must be dropped without moving the clock
// past its own expiry first, and the stale accounting must come back to
// zero.
func TestTimerRearmSupersedes(t *testing.T) {
	e := New()
	var fired []Time
	tm := e.NewTimer(nil)
	tm.fn = func() { fired = append(fired, e.Now()) }
	tm.Arm(100)
	tm.Arm(200)
	if e.stoppedTimers != 1 {
		t.Errorf("stoppedTimers = %d after re-arm, want 1 (the superseded event)", e.stoppedTimers)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 200 {
		t.Fatalf("fired at %v, want exactly once at 200", fired)
	}
	if e.stoppedTimers != 0 {
		t.Errorf("stoppedTimers = %d after run, want 0", e.stoppedTimers)
	}
}

// TestTimerReuseAcrossCycles drives one timer through fire, stop and
// re-arm cycles: each cycle must behave like a fresh timer while sharing
// the single allocation.
func TestTimerReuseAcrossCycles(t *testing.T) {
	e := New()
	count := 0
	tm := e.NewTimer(func() { count++ })
	tm.Arm(10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 || e.Now() != 10 {
		t.Fatalf("first cycle: count=%d now=%v, want 1 at 10", count, e.Now())
	}
	tm.Arm(5)
	tm.Stop()
	tm.Arm(7)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 || e.Now() != 17 {
		t.Fatalf("second cycle: count=%d now=%v, want 2 at 17", count, e.Now())
	}
	if e.stoppedTimers != 0 {
		t.Errorf("stoppedTimers = %d after reuse cycles, want 0", e.stoppedTimers)
	}
}
