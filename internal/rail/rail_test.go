package rail_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/mpi"
	"mpinet/internal/msgtrace"
	"mpinet/internal/rail"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

const testSeed uint64 = 0x5EEDBEEF

// bondPairs is every two-rail combination of the paper's three
// interconnects, in report order.
func bondPairs() []cluster.Platform {
	return []cluster.Platform{
		cluster.Bond(cluster.IBA(), cluster.Myri()),
		cluster.Bond(cluster.IBA(), cluster.QSN()),
		cluster.Bond(cluster.Myri(), cluster.QSN()),
	}
}

// killPlan takes the given rails hard down at the given instant.
func killPlan(at sim.Time, rails ...int) *faults.Plan {
	p := &faults.Plan{Seed: testSeed}
	for _, r := range rails {
		p.RailKills = append(p.RailKills, faults.RailKill{Rail: r, At: at})
	}
	return p
}

// ringTraffic is the property-test workload: every rank streams msgs
// tagged messages of mixed eager/rendezvous sizes to its right neighbour
// and receives from its left with AnyTag, so any duplicate, dropped or
// reordered delivery shows up as a tag-sequence violation. report is
// called once per violation (testing.T methods are goroutine-safe).
func ringTraffic(msgs int, report func(format string, args ...any)) func(*mpi.Rank) {
	sizes := []int64{64, 512, 8 * units.KB, 256 * units.KB}
	var maxSize int64 = 256 * units.KB
	return func(r *mpi.Rank) {
		n := r.Size()
		dst, src := (r.Rank()+1)%n, (r.Rank()+n-1)%n
		var reqs []mpi.Request
		for i := 0; i < msgs; i++ {
			reqs = append(reqs, r.Isend(r.Malloc(sizes[i%len(sizes)]), dst, i))
		}
		for i := 0; i < msgs; i++ {
			st := r.Recv(r.Malloc(maxSize), src, mpi.AnyTag)
			if st.Tag != i {
				report("rank %d: message %d arrived with tag %d (duplicate or out of order)", r.Rank(), i, st.Tag)
			}
		}
		r.Waitall(reqs...)
	}
}

// TestFailoverPreservesOrder is the tentpole property test: killing the
// primary rail mid-stream must not duplicate, drop or reorder any message
// on any of the three fabric pairings — per-peer sequence numbers and the
// reorder buffer preserve MPI non-overtaking across the failover.
func TestFailoverPreservesOrder(t *testing.T) {
	for _, base := range bondPairs() {
		base := base
		t.Run(base.Name, func(t *testing.T) {
			p := base.With(cluster.WithFaults(killPlan(2*units.Millisecond, 0)))
			m := metrics.New()
			net := p.New(4)
			w := mpi.MustWorld(mpi.Config{Net: net, Procs: 4, Metrics: m})
			if err := w.Run(ringTraffic(120, t.Errorf)); err != nil {
				t.Fatalf("bonded run did not survive a primary-rail kill: %v", err)
			}
			if v := counterValue(m, "rail/deaths"); v == 0 {
				t.Errorf("rail kill never detected (rail/deaths = 0)")
			}
			if st := net.(*rail.Network).RailState(0); st != rail.Dead {
				t.Errorf("killed rail 0 ended in state %v, want dead", st)
			}
		})
	}
}

// TestFailoverReissue checks the escalation ladder's middle rung directly:
// operations in flight on the dying rail are re-issued on the survivor.
func TestFailoverReissue(t *testing.T) {
	p := cluster.Bond(cluster.IBA(), cluster.Myri()).
		With(cluster.WithFaults(killPlan(2*units.Millisecond, 0)))
	m := metrics.New()
	w := mpi.MustWorld(mpi.Config{Net: p.New(4), Procs: 4, Metrics: m})
	if err := w.Run(ringTraffic(120, t.Errorf)); err != nil {
		t.Fatalf("bonded run failed: %v", err)
	}
	if v := counterValue(m, "rail/failovers"); v == 0 {
		t.Errorf("no in-flight operation was re-issued (rail/failovers = 0)")
	}
	if v := counterValue(m, "rail/reissued_bytes"); v == 0 {
		t.Errorf("rail/reissued_bytes = 0, want > 0")
	}
}

// TestAllRailsDown: with every rail killed the job must fail with the
// bond's typed terminal error — which is also retry exhaustion, so both
// sentinels match.
func TestAllRailsDown(t *testing.T) {
	p := cluster.Bond(cluster.IBA(), cluster.Myri()).
		With(cluster.WithFaults(killPlan(2*units.Millisecond, 0, 1)))
	w := mpi.MustWorld(mpi.Config{Net: p.New(4), Procs: 4})
	err := w.Run(ringTraffic(120, t.Errorf))
	if err == nil {
		t.Fatal("run with every rail killed completed successfully")
	}
	if !errors.Is(err, rail.ErrAllRailsDown) {
		t.Errorf("error does not match rail.ErrAllRailsDown: %v", err)
	}
	if !errors.Is(err, faults.ErrRetryExhausted) {
		t.Errorf("error does not match faults.ErrRetryExhausted: %v", err)
	}
}

// TestSoloRailKillFailsTyped is the acceptance control: the same rail-kill
// plan on a single-rail world (its own rail 0) must fail with the device's
// typed retry exhaustion, not hang, and must not claim to be a bond error.
func TestSoloRailKillFailsTyped(t *testing.T) {
	p := cluster.IBA().With(cluster.WithFaults(killPlan(2*units.Millisecond, 0)))
	w := mpi.MustWorld(mpi.Config{Net: p.New(4), Procs: 4})
	err := w.Run(ringTraffic(120, func(string, ...any) {}))
	if err == nil {
		t.Fatal("solo run under a rail-kill plan completed successfully")
	}
	if !errors.Is(err, faults.ErrRetryExhausted) && !errors.Is(err, mpi.ErrTimeout) {
		t.Errorf("want retry exhaustion (or watchdog timeout), got: %v", err)
	}
	if errors.Is(err, rail.ErrAllRailsDown) {
		t.Errorf("solo world reported a bond-level error: %v", err)
	}
}

// TestStripeDegradesAndPreservesOrder: the Stripe policy splits large
// bulks across both rails, keeps MPI order, and degrades to the survivor
// when one rail dies mid-run.
func TestStripeDegradesAndPreservesOrder(t *testing.T) {
	// The healthy ring takes ~58 ms; killing at 25 ms leaves striped
	// traffic on both sides of the failure.
	p := cluster.Bond(cluster.IBA(), cluster.Myri()).
		With(cluster.WithRailPolicy(rail.Stripe),
			cluster.WithFaults(killPlan(25*units.Millisecond, 1)))
	m := metrics.New()
	w := mpi.MustWorld(mpi.Config{Net: p.New(4), Procs: 4, Metrics: m})
	if err := w.Run(ringTraffic(120, t.Errorf)); err != nil {
		t.Fatalf("striped run did not survive a backup-rail kill: %v", err)
	}
	if v := counterValue(m, "rail/stripe_chunks"); v < 2 {
		t.Errorf("rail/stripe_chunks = %d, want >= 2 (256 KB bulks should stripe)", v)
	}
}

// TestFlapRecovery: a full-blackout window on the primary demotes it
// (probe misses, retransmit runs) and the hysteresis restores it after the
// window closes — with no job error and no ordering violation.
func TestFlapRecovery(t *testing.T) {
	plan := &faults.Plan{Seed: testSeed, RailDegrades: []faults.RailDegrade{
		{Rail: 0, From: 1 * units.Millisecond, Until: 5 * units.Millisecond, Drop: 1.0},
	}}
	p := cluster.Bond(cluster.IBA(), cluster.Myri()).With(cluster.WithFaults(plan))
	m := metrics.New()
	net := p.New(4)
	w := mpi.MustWorld(mpi.Config{Net: net, Procs: 4, Metrics: m})
	err := w.Run(func(r *mpi.Rank) {
		n := r.Size()
		dst, src := (r.Rank()+1)%n, (r.Rank()+n-1)%n
		for i := 0; i < 80; i++ {
			st := r.Sendrecv(r.Malloc(4*units.KB), dst, i, r.Malloc(4*units.KB), src, mpi.AnyTag)
			if st.Tag != i {
				t.Errorf("rank %d: message %d arrived with tag %d", r.Rank(), i, st.Tag)
			}
			r.Compute(200 * units.Microsecond)
		}
	})
	if err != nil {
		t.Fatalf("run across a flap window failed: %v", err)
	}
	if v := counterValue(m, "rail/suspects") + counterValue(m, "rail/deaths"); v == 0 {
		t.Errorf("blackout window never demoted the rail")
	}
	if v := counterValue(m, "rail/recoveries"); v == 0 {
		t.Errorf("rail never recovered after the window (rail/recoveries = 0)")
	}
	if st := net.(*rail.Network).RailState(0); st != rail.Healthy {
		t.Errorf("rail 0 ended in state %v, want healthy after recovery", st)
	}
}

// failoverFingerprint runs the canonical failover scenario and returns a
// byte-exact fingerprint: elapsed time plus the full metric snapshot.
func failoverFingerprint() string {
	p := cluster.Bond(cluster.IBA(), cluster.Myri()).
		With(cluster.WithFaults(killPlan(2*units.Millisecond, 0)))
	m := metrics.New()
	w := mpi.MustWorld(mpi.Config{Net: p.New(4), Procs: 4, Metrics: m})
	if err := w.Run(ringTraffic(120, func(string, ...any) {})); err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d\n", int64(w.Elapsed()))
	m.Snapshot().Render(&b)
	return b.String()
}

// TestFailoverReplaysIdentically: the whole failover cascade — heartbeat
// jitter, probe targets, kill verdicts, re-issue — is a pure function of
// the seed, so two runs fingerprint byte-identically.
func TestFailoverReplaysIdentically(t *testing.T) {
	a, b := failoverFingerprint(), failoverFingerprint()
	if a != b {
		t.Fatalf("two identical failover runs diverged:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestBondPanicsOnMismatchedRails: construction-time misuse is rejected.
func TestBondPanicsOnMismatchedRails(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rail.New accepted a single rail")
		}
	}()
	rail.New(sim.New(), rail.Failover, nil, cluster.IBA().New(4))
}

// A bond is as misconfigured as its members: an invalid member fabric, or a
// bond-level plan that kills fabric elements of a crossbar, must fail
// mpi.NewWorld with an error that leads with the member's rail, before any
// rank runs. An invalid member fabric is typed as it is on the solo
// platform.
func TestBondSurfacesMemberConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name   string
		p      cluster.Platform
		typed  bool   // the error wraps a *cluster.ConfigError
		reason string // what the error says is wrong
	}{
		{"invalid member Clos", cluster.Bond(cluster.IBA().With(cluster.Clos(3, 7, 2)), cluster.Myri()),
			true, "invalid Clos(3, 7, 2)"},
		{"switch kills on a crossbar", cluster.Bond(cluster.IBA(), cluster.Myri()).With(
			cluster.WithSwitchKills(faults.SwitchKill{Level: 1, Index: 0, At: 10 * units.Microsecond})),
			false, "not a Clos"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := mpi.NewWorld(mpi.Config{Net: tc.p.New(4), Procs: 4})
			if err == nil {
				t.Fatal("NewWorld accepted the bond; want its member's configuration error")
			}
			if !strings.HasPrefix(err.Error(), "rail 0 (IBA): ") {
				t.Errorf("error %q does not lead with the member's rail", err)
			}
			if !strings.Contains(err.Error(), tc.reason) {
				t.Errorf("error %q does not contain %q", err, tc.reason)
			}
			var ce *cluster.ConfigError
			if tc.typed && !errors.As(err, &ce) {
				t.Errorf("error %q (%T) does not wrap a *cluster.ConfigError", err, err)
			}
		})
	}
}

// TestBondDeviceContract: the bond answers the dev.Network and
// dev.Endpoint methods every network must. Its name joins its members',
// it names the dead fabric element of a member while the element is down,
// its utilization rows and per-process memory are its members' together,
// and its endpoint reports its node.
func TestBondDeviceContract(t *testing.T) {
	kills := cluster.WithSwitchKills(
		faults.SwitchKill{Level: 1, Index: 0, At: 10 * units.Microsecond, RepairAt: 20 * units.Microsecond},
		faults.SwitchKill{Level: 0, Index: 1, At: 30 * units.Microsecond})
	members := []cluster.Platform{cluster.IBA(), cluster.Myri()}
	bond := cluster.Bond(members[0], members[1]).With(cluster.FatTree(8, 1), kills)
	net := bond.New(8)
	if got := net.Name(); got != "IBA+Myri" {
		t.Errorf("Name = %q, want IBA+Myri", got)
	}
	for _, c := range []struct {
		at   sim.Time
		want string // "" when nothing is dead
	}{
		{5 * units.Microsecond, ""},
		{15 * units.Microsecond, "spine plane 0"},
		{25 * units.Microsecond, ""},
		{35 * units.Microsecond, "leaf 1"},
	} {
		name, code, ok := net.DeadElement(c.at)
		if ok != (c.want != "") || name != c.want || (ok && msgtrace.ElemName(code) != c.want) {
			t.Errorf("DeadElement(%v) = (%q, %s, %v), want %q", c.at, name, msgtrace.ElemName(code), ok, c.want)
		}
	}

	var rows []string
	var mem int64
	for _, m := range members {
		solo := m.With(cluster.FatTree(8, 1)).New(8)
		for _, u := range solo.Utilizations() {
			rows = append(rows, u.Resource)
		}
		mem += solo.NewEndpoint(3).MemoryUsage(7)
	}
	var got []string
	for _, u := range net.Utilizations() {
		got = append(got, u.Resource)
	}
	if strings.Join(got, " ") != strings.Join(rows, " ") {
		t.Errorf("Utilizations rows = %v, want the members' %v", got, rows)
	}
	ep := net.NewEndpoint(3)
	if ep.Node() != 3 {
		t.Errorf("endpoint Node = %d, want 3", ep.Node())
	}
	if got := ep.MemoryUsage(7); got != mem || mem == 0 {
		t.Errorf("MemoryUsage(7) = %d, want the members' %d", got, mem)
	}
}

// TestReportNames pins the names reports print for policies and rail
// states.
func TestReportNames(t *testing.T) {
	for _, c := range []struct {
		got  fmt.Stringer
		want string
	}{
		{rail.Failover, "failover"}, {rail.Stripe, "stripe"},
		{rail.Healthy, "healthy"}, {rail.Suspect, "suspect"}, {rail.Dead, "dead"},
	} {
		if c.got.String() != c.want {
			t.Errorf("%#v prints %q, want %q", c.got, c.got.String(), c.want)
		}
	}
}

// counterValue reads the named counter from a snapshot of m: every
// Counter call hands out a fresh handle, so names fold only there.
func counterValue(m *metrics.Registry, name string) int64 {
	v, _ := m.Snapshot().Get(name)
	return v
}
