package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mpinet/internal/units"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of order: got[%d] = %d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.Schedule(10, func() {
		trace = append(trace, "a")
		e.Schedule(0, func() { trace = append(trace, "b") })
		e.Schedule(5, func() { trace = append(trace, "c") })
	})
	e.Schedule(12, func() { trace = append(trace, "d") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a b d c"
	if got := strings.Join(trace, " "); got != want {
		t.Fatalf("trace = %q, want %q", got, want)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := New()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	if err := e.RunUntil(20); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2 (events at exactly the horizon run)", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	if e.pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.pending())
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	e := New()
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100 * units.Microsecond)
		woke = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 100*units.Microsecond {
		t.Fatalf("woke at %v, want 100us", woke)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() string {
		e := New()
		var trace []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					trace = append(trace, fmt.Sprintf("%s.%d@%v", p.name, j, p.Now()))
					p.Sleep(units.Time(10 * (j + 1)))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(trace, ",")
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestCondWaitBroadcast(t *testing.T) {
	e := New()
	var c Cond
	ready := false
	order := []string{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			for !ready {
				c.WaitFor(p, why("ready"))
			}
			order = append(order, p.name)
		})
	}
	e.Spawn("signaller", func(p *Proc) {
		p.Sleep(50)
		ready = true
		c.Broadcast()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 {
		t.Fatalf("only %d waiters woke: %v", len(order), order)
	}
	for i, name := range []string{"w0", "w1", "w2"} {
		if order[i] != name {
			t.Fatalf("wake order = %v, want wait order", order)
		}
	}
}

func TestDeadlockReported(t *testing.T) {
	e := New()
	var c Cond
	e.Spawn("stuck", func(p *Proc) { c.WaitFor(p, why("never")) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || !strings.Contains(de.Procs[0], "stuck") || !strings.Contains(de.Procs[0], "never") {
		t.Fatalf("deadlock report %v missing proc/reason", de.Procs)
	}
	if got, want := err.Error(), "sim: deadlock at 0ps; blocked processes: stuck (blocked: never)"; got != want {
		t.Fatalf("deadlock text = %q, want %q", got, want)
	}
}

// TestTotalDispatchedCountsRuns: every completed run adds its dispatched
// events to the process-wide total.
func TestTotalDispatchedCountsRuns(t *testing.T) {
	before := TotalDispatched()
	e := New()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Dispatched() != 5 || TotalDispatched()-before != 5 {
		t.Fatalf("run dispatched %d events, total grew by %d; want 5 and 5", e.Dispatched(), TotalDispatched()-before)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New()
	e.Spawn("bomb", func(p *Proc) { panic("boom") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("engine did not re-panic")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "bomb") || !strings.Contains(s, "boom") {
			t.Fatalf("panic %q missing context", s)
		}
	}()
	_ = e.Run()
}

// goroutinesSettle waits, up to a bound, for the goroutine count to fall to
// base and returns the count it saw last.
func goroutinesSettle(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestReapReleasesGoroutines: processes left blocked by a deadlocked run
// stay live until Reap; Reap unwinds them (their deferred calls run),
// returns the goroutine count to its baseline and leaves the blocked/slept
// accounting as the run left it.
func TestReapReleasesGoroutines(t *testing.T) {
	// One engine: the case keeps the name it had when sharded groups
	// were checked beside it.
	t.Run("shards=1", func(t *testing.T) {
		const n = 12
		const hop = 100 * units.Nanosecond
		base := runtime.NumGoroutine()
		e := New()
		var c Cond
		var procs []*Proc
		unwound := 0
		for i := 0; i < n; i++ {
			procs = append(procs, e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				defer func() { unwound++ }()
				p.Sleep(Time(i+1) * hop)
				c.WaitFor(p, why("never"))
			}))
		}
		var dl *DeadlockError
		if err := e.Run(); !errors.As(err, &dl) || len(dl.Procs) != n {
			t.Fatalf("Run: %v, want a DeadlockError naming %d procs", err, n)
		}
		blocked := make([]Time, n)
		slept := make([]Time, n)
		for i, p := range procs {
			blocked[i], slept[i] = p.BlockedTime(), p.SleptTime()
		}
		engBlocked, engSlept := e.BlockedTime(), e.SleptTime()

		e.Reap()

		if got := goroutinesSettle(base); got > base {
			t.Errorf("%d goroutines after Reap, want the baseline %d", got, base)
		}
		if unwound != n {
			t.Errorf("%d procs ran their deferred calls, want %d", unwound, n)
		}
		if live := e.LiveProcs(); live != 0 {
			t.Errorf("%d live procs after Reap", live)
		}
		for i, p := range procs {
			if p.BlockedTime() != blocked[i] || p.SleptTime() != slept[i] {
				t.Errorf("%s: blocked/slept %v/%v after Reap, want %v/%v",
					p.name, p.BlockedTime(), p.SleptTime(), blocked[i], slept[i])
			}
		}
		if e.BlockedTime() != engBlocked || e.SleptTime() != engSlept {
			t.Errorf("engine blocked/slept %v/%v after Reap, want %v/%v",
				e.BlockedTime(), e.SleptTime(), engBlocked, engSlept)
		}
	})
}

func TestStationFIFO(t *testing.T) {
	s := NewStation("bus")
	st, en := s.Use(100, 50)
	if st != 100 || en != 150 {
		t.Fatalf("first job [%v,%v), want [100,150)", st, en)
	}
	st, en = s.Use(120, 30) // arrives while busy
	if st != 150 || en != 180 {
		t.Fatalf("queued job [%v,%v), want [150,180)", st, en)
	}
	st, en = s.Use(500, 10) // arrives idle
	if st != 500 || en != 510 {
		t.Fatalf("idle job [%v,%v), want [500,510)", st, en)
	}
	if s.Jobs() != 3 || s.BusyTime() != 90 {
		t.Fatalf("jobs=%d busy=%v, want 3/90", s.Jobs(), s.BusyTime())
	}
}

func TestStationMonotonicSubmission(t *testing.T) {
	s := NewStation("bus")
	s.Use(100, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order submission did not panic")
		}
	}()
	s.Use(50, 10)
}

func TestPipeRate(t *testing.T) {
	p := NewPipe("link", units.MBps(100), 0, 0)
	_, end := p.Send(0, 100*units.MB)
	if end != units.Second {
		t.Fatalf("100MB at 100MB/s took %v, want 1s", end)
	}
}

func TestPipeMinBytesAndOverhead(t *testing.T) {
	p := NewPipe("link", units.MBps(1), 7*units.Nanosecond, 64)
	_, end := p.Send(0, 1) // billed as 64 bytes + 7ns
	want := 7*units.Nanosecond + units.MBps(1).TimeFor(64)
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

// Property: station occupancy intervals never overlap and respect FIFO, for
// arbitrary monotone arrivals.
func TestStationNoOverlapProperty(t *testing.T) {
	f := func(gaps []uint16, durs []uint16) bool {
		n := len(gaps)
		if len(durs) < n {
			n = len(durs)
		}
		s := NewStation("x")
		now := Time(0)
		prevEnd := Time(-1)
		for i := 0; i < n; i++ {
			now += Time(gaps[i])
			st, en := s.Use(now, Time(durs[i]))
			if st < now || en != st+Time(durs[i]) || st < prevEnd {
				return false
			}
			prevEnd = en
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RNG determinism — same seed, same stream; Intn stays in range.
func TestRNGProperties(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		m := int(n%32) + 1
		for i := 0; i < 20; i++ {
			if v := a.Intn(m); v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerFires(t *testing.T) {
	e := New()
	fired := false
	e.NewTimer(func() { fired = true }).Arm(10)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("timer did not fire")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
}

func TestStoppedTimerLeavesNoTrace(t *testing.T) {
	e := New()
	tm := e.NewTimer(func() { t.Fatal("stopped timer fired") })
	tm.Arm(1000)
	e.Schedule(5, func() { tm.Stop() })
	before := e.Dispatched()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The clock must stop at the last real event, not drag to the timer's
	// expiry, and the discarded timer must not count as a dispatch.
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want 5 (stopped timer advanced the clock)", e.Now())
	}
	if got := e.Dispatched() - before; got != 1 {
		t.Fatalf("dispatched %d events, want 1", got)
	}
}

func TestStoppedTimerDoesNotMaskDeadlock(t *testing.T) {
	e := New()
	e.Spawn("stuck", func(p *Proc) {
		var c Cond
		tm := e.NewTimer(func() {})
		tm.Arm(50)
		tm.Stop()
		c.WaitFor(p, why("forever"))
	})
	err := e.Run()
	var dl *DeadlockError
	if !errorsAs(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
}

func errorsAs(err error, target **DeadlockError) bool {
	d, ok := err.(*DeadlockError)
	if ok {
		*target = d
	}
	return ok
}

// why is a fixed wait reason for Cond.WaitFor.
type why string

func (w why) String() string { return string(w) }

// pending is the number of queued events: heap and current-instant FIFO
// lane together.
func (e *Engine) pending() int { return len(e.events) + len(e.nowq) - e.nowqHead }
