package experiments

import (
	"errors"
	"fmt"
	"io"

	"mpinet/internal/apps"
	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/microbench"
	"mpinet/internal/mpi"
	"mpinet/internal/report"
	"mpinet/internal/units"
)

// This file is the chaos-engineering slice of the suite: scheduled
// switching-element deaths and host crashes on multi-level Clos fabrics,
// exercising the self-healing path (ECMP re-hash after detection), the
// typed failure taxonomy (faults.ErrPartitioned, mpi.ErrRankFailed) and the
// ULFM-style rank-death notification. Everything is seeded and
// counter-based: the same storms hit the same packets at any -j.

// chaosLU runs the LU benchmark (class S) on the platform and returns its
// completion time.
func chaosLU(p cluster.Platform, procs int) (units.Time, error) {
	lu, err := apps.ByName("LU")
	if err != nil {
		return 0, err
	}
	res, err := lu.Run(apps.RunConfig{Platform: p, Class: apps.ClassS, Procs: procs})
	if err != nil {
		return 0, err
	}
	return res.Elapsed, nil
}

// spineKills builds n plane deaths striking at the given time (no repair):
// planes 0..n-1 of every up-link stage die at once — the correlated failure
// a power-domain loss produces.
func spineKills(n int, at units.Time) []faults.SwitchKill {
	kills := make([]faults.SwitchKill, n)
	for i := range kills {
		kills[i] = faults.SwitchKill{Level: 1, Index: i, At: at}
	}
	return kills
}

// ExtSpineFailures extends the fault study to failure domains at Clos
// scale: LU completion time versus the number of spine planes killed
// mid-run, for the three interconnects (plus adaptive-routing InfiniBand)
// on a 3-level Clos. Until the fabric notices a dead plane
// (faults.DefaultDetectDelay) its traffic black-holes and the device retry
// protocols carry the loss; after detection, deterministic ECMP re-hashes
// onto the surviving planes — so the curve's slope is the price of losing
// bisection, and its existence at all is the self-healing working.
func (r *Runner) ExtSpineFailures() report.Figure {
	r.logf("Ext J: LU under spine-plane failures")
	f := report.Figure{ID: "Ext J", Title: "LU Completion Time under Spine-Plane Failures (3-level Clos)",
		XLabel: "Spine Planes Killed", YLabel: "Completion Time (s)"}
	procs := 512
	topo := cluster.Clos(3, 16, 1) // 8 hosts/leaf, 8 up-link planes
	kills := []int{0, 1, 2, 4}
	if r.Quick {
		procs = 32
		topo = cluster.Clos(3, 8, 1) // 4 hosts/leaf, 4 up-link planes
		kills = []int{0, 1, 2}
	}
	plats := []cluster.Platform{
		cluster.IBA(),
		cluster.IBA().With(cluster.WithRouting(cluster.Adaptive)),
		cluster.Myri(),
		cluster.QSN(),
	}
	for _, p := range plats {
		p = p.With(topo)
		c := microbench.Curve{Label: p.Name}
		healthy, err := chaosLU(p, procs)
		if err != nil {
			panic(err)
		}
		for _, k := range kills {
			elapsed := healthy
			if k > 0 {
				pk := p.With(cluster.WithSwitchKills(spineKills(k, healthy/4)...),
					cluster.WithSeed(FaultSeed))
				elapsed, err = chaosLU(pk, procs)
				if err != nil {
					panic(err)
				}
			}
			c.X = append(c.X, int64(k))
			c.Y = append(c.Y, elapsed.Seconds())
		}
		f.Curves = append(f.Curves, c)
	}
	f.Notes = fmt.Sprintf("planes killed at 1/4 of the healthy runtime, detection delay %v; deterministic ECMP re-hashes around dead planes, adaptive routing stops scanning them", faults.DefaultDetectDelay)
	return f
}

// classifyChaos renders a chaos run's outcome for the soak log: "success",
// or the typed failure family, or — the thing the gate exists to catch — an
// UNTYPED error, which always indicates a bug in the failure plumbing.
func classifyChaos(err error) string {
	switch {
	case err == nil:
		return "success"
	case errors.Is(err, mpi.ErrRankFailed):
		return "typed: rank-failed"
	case errors.Is(err, faults.ErrPartitioned):
		return "typed: partitioned"
	case errors.Is(err, mpi.ErrTimeout):
		return "typed: timeout"
	case errors.Is(err, faults.ErrRetryExhausted):
		return "typed: retry-exhausted"
	default:
		return "UNTYPED: " + err.Error()
	}
}

// ChaosSoak is the CI chaos-matrix entry point: on one interconnect and one
// routing policy, run the kill-storm scenarios on a 64-node 3-level Clos
// and verify each lands in its contracted outcome — completion for
// survivable storms, a typed error for lethal ones, never a hang (the
// scaled MPI watchdog guarantees termination) and never an untyped error.
// Output is deterministic, so CI replays the soak and byte-compares.
//
// Deprecated: the final argument is ignored; it is kept only so the
// benchmark module builds, and goes with ROADMAP item 2's benchmark change.
func ChaosSoak(w io.Writer, net, routing string, seed uint64, _ int) error {
	base, err := PlatformByName(net)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = FaultSeed
	}
	opts := []cluster.Option{cluster.Clos(3, 8, 1)} // 16 leaves x 4 hosts, 4 planes
	switch routing {
	case "", "deterministic":
	case "adaptive":
		opts = append(opts, cluster.WithRouting(cluster.Adaptive))
	default:
		return fmt.Errorf("experiments: unknown routing %q (have deterministic, adaptive)", routing)
	}
	p := base.With(opts...)
	const procs = 64
	label := p.Name + "/" + routing
	if routing == "" {
		label = p.Name + "/deterministic"
	}

	healthy, err := chaosLU(p, procs)
	if err != nil {
		return fmt.Errorf("experiments: healthy chaos baseline on %s: %w", label, err)
	}
	fmt.Fprintf(w, "%-24s healthy:           %v\n", label, healthy)
	at := healthy / 4

	// Survivable storms: the job must complete, self-healing around the
	// dead elements.
	storms := []struct {
		name string
		pk   cluster.Platform
	}{
		{"spine-kill+repair", p.With(
			cluster.WithSwitchKills(faults.SwitchKill{Level: 1, Index: 1, At: at, RepairAt: healthy / 2}),
			cluster.WithSeed(seed))},
		// Plane 0 dies for good, plane 2 dies and is repaired, plane 3's
		// linecard drops 5% of its packets for a window: only plane 1 stays
		// fully healthy, and the job still completes.
		{"kill-storm", p.With(
			cluster.WithSwitchKills(
				faults.SwitchKill{Level: 1, Index: 0, At: at},
				faults.SwitchKill{Level: 1, Index: 2, At: 2 * at, RepairAt: healthy}),
			cluster.WithLinecardDegrades(
				faults.LinecardDegrade{Level: 1, Index: 3, From: at, Until: healthy, Drop: 0.05}),
			cluster.WithSeed(seed))},
	}
	for _, s := range storms {
		elapsed, err := chaosLU(s.pk, procs)
		if err != nil {
			fmt.Fprintf(w, "%-24s %-18s %s\n", label, s.name+":", classifyChaos(err))
			return fmt.Errorf("experiments: %s %s did not complete: %w", label, s.name, err)
		}
		fmt.Fprintf(w, "%-24s %-18s success %v\n", label, s.name+":", elapsed)
	}

	// Host death without fault tolerance: the first operation touching the
	// dead rank aborts the job with a typed RankFailedError.
	pc := p.With(cluster.WithNodeCrashes(faults.NodeCrash{Node: 5, At: at}),
		cluster.WithSeed(seed))
	_, err = chaosLU(pc, procs)
	fmt.Fprintf(w, "%-24s %-18s %s\n", label, "node-crash:", classifyChaos(err))
	if !errors.Is(err, mpi.ErrRankFailed) {
		return fmt.Errorf("experiments: %s node-crash: want typed rank failure, got %v", label, err)
	}

	// The same death under Config.FaultTolerant, on a workload that handles
	// it: survivors see Status.Err on operations against the dead rank and
	// route around it; the job completes. The crash is timed against the
	// ring's own healthy runtime so it lands mid-exchange.
	_, ringHealthy, err := chaosTolerant(p, procs)
	if err != nil {
		return fmt.Errorf("experiments: healthy tolerant ring on %s: %w", label, err)
	}
	notified, _, err := chaosTolerant(p.With(
		cluster.WithNodeCrashes(faults.NodeCrash{Node: 5, At: ringHealthy / 4}),
		cluster.WithSeed(seed)), procs)
	if err != nil {
		fmt.Fprintf(w, "%-24s %-18s %s\n", label, "tolerant:", classifyChaos(err))
		return fmt.Errorf("experiments: %s tolerant ring did not survive: %w", label, err)
	}
	fmt.Fprintf(w, "%-24s %-18s success (%d rank-failed notifications)\n", label, "tolerant:", notified)
	if notified == 0 {
		return fmt.Errorf("experiments: %s tolerant ring saw no rank-death notifications", label)
	}

	// Lethal storm: every up-link plane dies, the fabric partitions, and the
	// job must fail typed — partition, rank failure or watchdog — within the
	// scaled timeout, never hang.
	pp := p.With(cluster.WithSwitchKills(spineKills(4, at)...), cluster.WithSeed(seed))
	_, err = chaosLU(pp, procs)
	out := classifyChaos(err)
	fmt.Fprintf(w, "%-24s %-18s %s\n", label, "partition:", out)
	if err == nil {
		return fmt.Errorf("experiments: %s survived killing every spine plane", label)
	}
	if !errors.Is(err, faults.ErrPartitioned) && !errors.Is(err, mpi.ErrTimeout) &&
		!errors.Is(err, faults.ErrRetryExhausted) && !errors.Is(err, mpi.ErrRankFailed) {
		return fmt.Errorf("experiments: %s partition failed untyped: %w", label, err)
	}
	return nil
}

// chaosTolerant runs the fault-tolerant ring exchange: every rank sendrecvs
// with its neighbours for a few rounds, treating a RankFailedError status
// as a dead neighbour to skip — the ULFM usage pattern. Returns how many
// operations completed with a rank-death notification, and the elapsed
// simulated time.
func chaosTolerant(p cluster.Platform, procs int) (int, units.Time, error) {
	cfg := mpi.Config{Net: p.New(procs), Procs: procs}
	cluster.ApplyWorld(&cfg, cluster.WithFaultTolerant())
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return 0, 0, err
	}
	// A fault plan keeps every domain on one engine, so the cooperative
	// scheduler serializes rank bodies: a plain counter is race-free.
	notified := 0
	err = w.Run(func(rk *mpi.Rank) {
		const rounds = 4
		buf := rk.Malloc(4 * units.KB)
		next := (rk.Rank() + 1) % rk.Size()
		prev := (rk.Rank() - 1 + rk.Size()) % rk.Size()
		for i := 0; i < rounds; i++ {
			st := rk.Sendrecv(buf, next, 7, buf, prev, 7)
			if st.Err != nil {
				notified++
			}
			rk.Compute(50 * units.Microsecond)
		}
	})
	return notified, w.Elapsed(), err
}
