package mpi

import (
	"errors"
	"strings"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Wait reasons are formatted only where something reads them. These tests
// pin the text every reader sees — the TimeoutError, the flight recorder's
// freeze, the RankFailedError and the deadlock report — so formatting late
// can never change what a failing run says.

// TestWaitReasonGoldenTimeout: under a fault plan the watchdog is armed, and
// a stuck send or receive times out naming the operation, its peer, tag and
// size, both in the TimeoutError and in the frozen flight ring.
func TestWaitReasonGoldenTimeout(t *testing.T) {
	for _, tc := range []struct {
		stuck func(r *Rank)
		op    string
	}{
		{func(r *Rank) { r.Send(r.Malloc(4096), 3, 7) }, "send to rank 3 (tag 7, 4096 B)"},
		{func(r *Rank) { r.Recv(r.Malloc(4096), 2, 5) }, "recv from rank 2 (tag 5)"},
		{func(r *Rank) { r.Recv(r.Malloc(4096), AnySource, 9) }, "recv from any source (tag 9)"},
	} {
		rec := msgtrace.New(1)
		p := cluster.IBA().With(cluster.WithFaults(faults.DropPlan(1, 0)))
		w := MustWorld(Config{Net: p.New(4), Procs: 4, MsgTrace: rec})
		err := w.Run(func(r *Rank) {
			if r.Rank() == 0 {
				tc.stuck(r)
			}
		})
		var te *TimeoutError
		if !errors.As(err, &te) {
			t.Fatalf("%s: err %v carries no *TimeoutError", tc.op, err)
		}
		if te.Op != tc.op {
			t.Errorf("TimeoutError.Op = %q, want %q", te.Op, tc.op)
		}
		if why, ok := rec.Frozen(); !ok || why != "watchdog timeout: "+tc.op {
			t.Errorf("freeze = (%q, %v), want %q", why, ok, "watchdog timeout: "+tc.op)
		}
	}
}

// TestWaitReasonGoldenRankFailed: a wait on a crashed peer resolves with a
// RankFailedError naming the stuck operation.
func TestWaitReasonGoldenRankFailed(t *testing.T) {
	w := MustWorld(Config{Net: crashNet(10*units.Microsecond, 2), Procs: 2, FaultTolerant: true})
	var st Status
	err := w.Run(func(r *Rank) {
		if r.Rank() == 0 {
			st = r.Recv(r.Malloc(4096), 1, 7)
		} else {
			r.Compute(10 * units.Millisecond)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var rfe *RankFailedError
	if !errors.As(st.Err, &rfe) {
		t.Fatalf("status error %v carries no *RankFailedError", st.Err)
	}
	if want := "recv from rank 1 (tag 7)"; rfe.Op != want {
		t.Errorf("RankFailedError.Op = %q, want %q", rfe.Op, want)
	}
}

// TestWaitReasonGoldenDeadlock: with the watchdog disabled a wait-for
// cycle drains the engine, and the deadlock report names each blocked
// rank's wait — with and without a fault plan. (An armed watchdog keeps an
// event pending, so a watched wait times out instead of deadlocking.)
func TestWaitReasonGoldenDeadlock(t *testing.T) {
	for _, p := range []cluster.Platform{
		cluster.IBA(),
		cluster.IBA().With(cluster.WithFaults(faults.DropPlan(1, 0))),
	} {
		w := MustWorld(Config{Net: p.New(2), Procs: 2, Timeout: -1})
		err := w.Run(func(r *Rank) {
			r.Recv(r.Malloc(64), 1-r.Rank(), 0)
		})
		var de *sim.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("%s: err %v is not a deadlock", p.Name, err)
		}
		if got, want := strings.Join(de.Procs, ", "), "rank0 (blocked: rank0:wait), rank1 (blocked: rank1:wait)"; got != want {
			t.Errorf("%s: deadlock report names %q, want %q", p.Name, got, want)
		}
	}
}
