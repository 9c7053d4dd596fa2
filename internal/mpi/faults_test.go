package mpi

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/trace"
	"mpinet/internal/units"
)

// A plan that drops every packet: the NIC retries until its policy gives
// up, and the job must fail with a typed, attributed error — never hang.
func TestRetryExhaustionTyped(t *testing.T) {
	for _, p := range cluster.OSU() {
		p := p.With(cluster.WithFaults(faults.DropPlan(7, 1.0)))
		t.Run(p.Name, func(t *testing.T) {
			w, err := NewWorld(Config{Net: p.New(2), Procs: 2})
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(r *Rank) {
				buf := r.Malloc(512)
				if r.Rank() == 0 {
					r.Send(buf, 1, 0)
				} else {
					r.Recv(buf, 0, 0)
				}
			})
			if err == nil {
				t.Fatal("total packet loss did not fail the run")
			}
			if !errors.Is(err, faults.ErrRetryExhausted) {
				t.Fatalf("err %v is not ErrRetryExhausted", err)
			}
			var le *faults.LinkError
			if !errors.As(err, &le) {
				t.Fatalf("err %v carries no *faults.LinkError", err)
			}
			if le.Src != 0 || le.Dst != 1 {
				t.Errorf("LinkError attributes link node%d->node%d, want node0->node1", le.Src, le.Dst)
			}
			if le.Attempts < 2 {
				t.Errorf("gave up after %d attempts — no retry happened", le.Attempts)
			}
			if !strings.Contains(err.Error(), "rank 0") {
				t.Errorf("error %q does not attribute the failing rank", err)
			}
		})
	}
}

// A job aborted by a fault plan returns its typed error with no rank left
// behind: the ranks still parked when the abort surfaced are reaped, so
// their goroutines exit instead of keeping the world reachable.
func TestAbortedRunLeavesNoRankGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	p := cluster.IBA().With(cluster.WithFaults(faults.DropPlan(7, 1.0)))
	w := MustWorld(Config{Net: p.New(8), Procs: 8})
	err := w.Run(func(r *Rank) {
		buf := r.Malloc(512)
		switch r.Rank() {
		case 0:
			r.Send(buf, 1, 0)
		default:
			r.Recv(buf, 0, 0) // only rank 1's message is ever sent
		}
	})
	if !errors.Is(err, faults.ErrRetryExhausted) {
		t.Fatalf("Run: %v, want ErrRetryExhausted", err)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after the aborted run, want the baseline %d", got, base)
	}
	if live := w.Engine().LiveProcs(); live != 0 {
		t.Errorf("%d rank processes still live after Run", live)
	}
}

// A rank starving on a receive that can never complete must be converted
// by the watchdog into ErrTimeout naming the rank and operation.
func TestWatchdogTimeoutTyped(t *testing.T) {
	w := MustWorld(Config{Net: cluster.IBA().New(2), Procs: 2, Timeout: units.Millisecond})
	err := w.Run(func(r *Rank) {
		if r.Rank() == 1 {
			r.Recv(r.Malloc(64), 0, 0) // rank 0 never sends
		}
	})
	if err == nil {
		t.Fatal("starved receive did not fail the run")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err %v is not ErrTimeout", err)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err %v carries no *TimeoutError", err)
	}
	if te.Rank != 1 {
		t.Errorf("TimeoutError.Rank = %d, want the starved rank 1", te.Rank)
	}
	if !strings.Contains(te.Op, "recv from rank 0") {
		t.Errorf("TimeoutError.Op = %q does not name the stuck receive", te.Op)
	}
}

// A fault plan auto-arms the watchdog at faults.DefaultTimeout, so even a
// pathological plan cannot deadlock the world; an explicit negative
// Timeout disables the watchdog again.
func TestFaultPlanArmsWatchdog(t *testing.T) {
	p := cluster.IBA().With(cluster.WithFaults(faults.DropPlan(1, 0.0)))
	w := MustWorld(Config{Net: p.New(2), Procs: 2})
	if w.cfg.Timeout != faults.DefaultTimeout {
		t.Fatalf("Timeout = %v, want auto-armed %v", w.cfg.Timeout, faults.DefaultTimeout)
	}
	w2 := MustWorld(Config{Net: p.New(2), Procs: 2, Timeout: -1})
	if w2.cfg.Timeout > 0 {
		t.Fatalf("negative Timeout did not disable the watchdog: %v", w2.cfg.Timeout)
	}
}

func TestNewWorldValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil net", Config{Procs: 2}, "Config.Net"},
		{"no procs", Config{Net: cluster.IBA().New(2), Procs: 0}, "Procs"},
		{"negative ppn", Config{Net: cluster.IBA().New(2), Procs: 2, ProcsPerNode: -1}, "ProcsPerNode"},
		{"overcommit", Config{Net: cluster.IBA().New(2), Procs: 5, ProcsPerNode: 2}, "5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := NewWorld(c.cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if w != nil {
				t.Fatal("NewWorld returned a world alongside an error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// The same seed must replay the same faulty execution exactly: identical
// elapsed time, identical message timeline, identical drop verdicts.
func TestSeededFaultReplayIdentical(t *testing.T) {
	run := func() (units.Time, string) {
		p := cluster.Myri().With(cluster.WithFaults(faults.DropPlan(42, 0.05)))
		tl := &trace.Timeline{}
		w := MustWorld(Config{Net: p.New(4), Procs: 4, Timeline: tl})
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(8 * units.KB)
			for i := 0; i < 24; i++ {
				next := (r.Rank() + 1) % r.Size()
				prev := (r.Rank() - 1 + r.Size()) % r.Size()
				r.Sendrecv(buf, next, i, buf, prev, i)
			}
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tl.Render(&buf)
		return w.Elapsed(), buf.String()
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 {
		t.Fatalf("elapsed differs across replays: %v vs %v", e1, e2)
	}
	if t1 != t2 {
		t.Fatal("message timeline differs across replays of the same seed")
	}
	if e1 <= 0 || len(t1) == 0 {
		t.Fatalf("degenerate replay: elapsed %v, timeline %d bytes", e1, len(t1))
	}
}

// Different seeds must diverge (otherwise the seed is not actually wired
// through to the injector).
func TestFaultSeedMatters(t *testing.T) {
	elapsed := func(seed uint64) units.Time {
		p := cluster.IBA().With(cluster.WithFaults(faults.DropPlan(seed, 0.2)))
		w := MustWorld(Config{Net: p.New(2), Procs: 2})
		if err := w.Run(func(r *Rank) {
			buf := r.Malloc(4 * units.KB)
			for i := 0; i < 32; i++ {
				if r.Rank() == 0 {
					r.Send(buf, 1, 0)
					r.Recv(buf, 1, 1)
				} else {
					r.Recv(buf, 0, 0)
					r.Send(buf, 0, 1)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		return w.Elapsed()
	}
	if elapsed(1) == elapsed(999) {
		t.Fatal("two different seeds produced identical faulty executions")
	}
}
