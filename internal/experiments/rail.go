package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"mpinet/internal/apps"
	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/microbench"
	"mpinet/internal/mpi"
	"mpinet/internal/rail"
	"mpinet/internal/report"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// railMembers resolves a "IBA+Myri" style pair name into the member
// platforms of a bond, primary first.
func railMembers(pair string) ([]cluster.Platform, error) {
	parts := strings.Split(pair, "+")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("experiments: rail pair %q: want 2-3 interconnects joined by +", pair)
	}
	members := make([]cluster.Platform, len(parts))
	for i, part := range parts {
		p, err := PlatformByName(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		members[i] = p
	}
	return members, nil
}

// railPolicyByName parses the CLI/CI spelling of a bond policy.
func railPolicyByName(name string) (rail.Policy, error) {
	switch strings.ToLower(name) {
	case "", "failover":
		return rail.Failover, nil
	case "stripe":
		return rail.Stripe, nil
	default:
		return rail.Failover, fmt.Errorf("experiments: unknown rail policy %q (want failover or stripe)", name)
	}
}

// railKilled derives p with one rail hard-killed at the given instant,
// drawing its verdicts from the committed experiment seed.
func railKilled(p cluster.Platform, railIdx int, at sim.Time) cluster.Platform {
	plan := &faults.Plan{Seed: FaultSeed,
		RailKills: []faults.RailKill{{Rail: railIdx, At: at}}}
	return p.With(cluster.WithFaults(plan))
}

// railPingPong measures the average one-way latency of iters ping-pongs
// between two nodes of p, and returns the midpoint (absolute simulated
// time) of the measured loop alongside — the calibration input for "kill
// at 50% of the run". The loop's own window is the right frame: a bonded
// world's total elapsed also counts the health monitor's idle-disarm tail
// after traffic ends, so half of *that* can land after the workload.
func railPingPong(p cluster.Platform, size int64, iters int) (oneWay, mid sim.Time) {
	w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2})
	var rtt sim.Time
	if err := w.Run(func(r *mpi.Rank) {
		buf := r.Malloc(size)
		peer := 1 - r.Rank()
		start := r.Wtime()
		for i := 0; i < iters; i++ {
			if r.Rank() == 0 {
				r.Send(buf, peer, 0)
				r.Recv(buf, peer, 1)
			} else {
				r.Recv(buf, peer, 0)
				r.Send(buf, peer, 1)
			}
		}
		if r.Rank() == 0 {
			end := r.Wtime()
			rtt = (end - start) / sim.Time(iters)
			mid = start + (end-start)/2
		}
	}); err != nil {
		panic(err)
	}
	return rtt / 2, mid
}

// railStream measures uni-directional streaming bandwidth (MB/s) with the
// paper's windowed protocol, returning the midpoint (absolute simulated
// time) of the measured streaming window alongside for mid-run kill
// calibration (see railPingPong for why not total elapsed).
func railStream(p cluster.Platform, size int64, window, rounds int) (bw float64, mid sim.Time) {
	w := mpi.MustWorld(mpi.Config{Net: p.New(2), Procs: 2})
	if err := w.Run(func(r *mpi.Rank) {
		peer := 1 - r.Rank()
		msg := r.Malloc(size)
		ack := r.Malloc(4)
		reqs := make([]*mpi.Request, window)
		runRound := func(tag int) {
			if r.Rank() == 0 {
				for i := 0; i < window; i++ {
					reqs[i] = r.Isend(msg, peer, tag)
				}
				r.Waitall(reqs...)
				r.Recv(ack, peer, 99)
			} else {
				for i := 0; i < window; i++ {
					reqs[i] = r.Irecv(msg, peer, tag)
				}
				r.Waitall(reqs...)
				r.Send(ack, peer, 99)
			}
		}
		runRound(0) // warmup
		start := r.Wtime()
		for round := 0; round < rounds; round++ {
			runRound(1)
		}
		if r.Rank() == 0 {
			end := r.Wtime()
			total := float64(size) * float64(window) * float64(rounds)
			bw = total / (end - start).Seconds() / float64(units.MB)
			mid = start + (end-start)/2
		}
	}); err != nil {
		panic(err)
	}
	return bw, mid
}

// ExtRailLatency regenerates Figure 1's latency sweep across a rail
// failure: a bonded IBA+Myri channel whose primary (IBA) is killed halfway
// through each measurement, against the healthy bond and the Myri survivor
// it degrades to. The kill point is calibrated per size from the healthy
// bonded run, so every point really does lose its primary mid-stream.
func (r *Runner) ExtRailLatency() report.Figure {
	r.logf("Ext G1: latency across a primary-rail failure")
	f := report.Figure{ID: "Ext G1", Title: "MPI Latency across a Primary-Rail Failure (IBA+Myri bond)",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	iters := 256
	if r.Quick {
		iters = 64
	}
	bond := cluster.Bond(cluster.IBA(), cluster.Myri())
	healthy := microbench.Curve{Label: bond.Name + " healthy"}
	killed := microbench.Curve{Label: bond.Name + " IBA killed at 50%"}
	solo := microbench.Curve{Label: "Myri (survivor solo)"}
	for _, s := range r.sizes(4, 4*units.KB) {
		hLat, hMid := railPingPong(bond, s, iters)
		kLat, _ := railPingPong(railKilled(bond, 0, hMid), s, iters)
		sLat, _ := railPingPong(cluster.Myri(), s, iters)
		healthy.X, healthy.Y = append(healthy.X, s), append(healthy.Y, hLat.Micros())
		killed.X, killed.Y = append(killed.X, s), append(killed.Y, kLat.Micros())
		solo.X, solo.Y = append(solo.X, s), append(solo.Y, sLat.Micros())
	}
	f.Curves = append(f.Curves, healthy, killed, solo)
	f.Notes = fmt.Sprintf("kill at the midpoint of each point's healthy sweep (seed %#x); the killed curve pays one detection + re-issue stall amortized over the sweep and finishes at survivor speed", FaultSeed)
	return f
}

// ExtRailBandwidth extends Figure 2 with channel bonding: windowed
// streaming bandwidth for the failover bond (primary's rate), the striping
// bond (aggregate of both rails above the stripe threshold), and the
// striping bond degrading to the Myri survivor when IBA dies mid-stream.
func (r *Runner) ExtRailBandwidth() report.Figure {
	r.logf("Ext G2: striped bandwidth across a rail failure")
	f := report.Figure{ID: "Ext G2", Title: "MPI Bandwidth under Channel Bonding and Rail Failure (IBA+Myri)",
		XLabel: "Message Size (Bytes)", YLabel: "Bandwidth (MB/s)"}
	window, rounds := 16, 8
	if r.Quick {
		rounds = 4
	}
	bond := cluster.Bond(cluster.IBA(), cluster.Myri())
	stripe := bond.With(cluster.WithRailPolicy(rail.Stripe))
	fo := microbench.Curve{Label: bond.Name + " failover"}
	st := microbench.Curve{Label: stripe.Name}
	deg := microbench.Curve{Label: stripe.Name + " IBA killed at 50%"}
	solo := microbench.Curve{Label: "Myri (survivor solo)"}
	for _, s := range r.sizes(16*units.KB, units.MB) {
		foBW, _ := railStream(bond, s, window, rounds)
		stBW, stMid := railStream(stripe, s, window, rounds)
		degBW, _ := railStream(railKilled(stripe, 0, stMid), s, window, rounds)
		soloBW, _ := railStream(cluster.Myri(), s, window, rounds)
		for _, c := range []*microbench.Curve{&fo, &st, &deg, &solo} {
			c.X = append(c.X, s)
		}
		fo.Y = append(fo.Y, foBW)
		st.Y = append(st.Y, stBW)
		deg.Y = append(deg.Y, degBW)
		solo.Y = append(solo.Y, soloBW)
	}
	f.Curves = append(f.Curves, fo, st, deg, solo)
	f.Notes = "striping engages above the 64 KB threshold; across rails this asymmetric an even split is bound by the slower rail (~2x Myri), so stripe trails IBA-alone failover; the degraded curve starts striped and finishes on the Myri survivor"
	return f
}

// RailFailSmoke is the CI rail-matrix entry point and the issue's
// acceptance scenario: run LU class S x8 on a bonded pair three ways —
// healthy (to calibrate), with the primary rail killed at 50% of the
// healthy elapsed (must complete via failover, slower than healthy), and
// the same plan on the solo primary (must fail with the device's typed
// retry exhaustion, not hang). Deterministic in seed at any -j.
func RailFailSmoke(w io.Writer, pair, policy string, seed uint64) error {
	members, err := railMembers(pair)
	if err != nil {
		return err
	}
	pol, err := railPolicyByName(policy)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = FaultSeed
	}
	bond := cluster.Bond(members[0], members[1:]...).With(cluster.WithRailPolicy(pol))

	lu, err := apps.ByName("LU")
	if err != nil {
		return err
	}
	run := func(p cluster.Platform, m *metrics.Registry) (apps.Result, error) {
		return lu.Run(apps.RunConfig{Platform: p, Class: apps.ClassS, Procs: 8, Metrics: m})
	}

	healthy, err := run(bond, nil)
	if err != nil {
		return fmt.Errorf("experiments: healthy LU class S on %s: %w", bond.Name, err)
	}
	fmt.Fprintf(w, "%-18s LU class S x8 healthy:       %v\n", bond.Name, healthy.Elapsed)

	at := healthy.Elapsed / 2
	plan := &faults.Plan{Seed: seed, RailKills: []faults.RailKill{{Rail: 0, At: at}}}
	m := metrics.New()
	degraded, err := run(bond.With(cluster.WithFaults(plan)), m)
	if err != nil {
		return fmt.Errorf("experiments: bonded LU did not survive %s dying at %v: %w", members[0].Name, at, err)
	}
	fmt.Fprintf(w, "%-18s with %s killed at %v: %v\n", bond.Name, members[0].Name, at, degraded.Elapsed)
	snap := m.Snapshot()
	count := func(name string) int64 {
		v, _ := snap.Get(name)
		return v
	}
	deaths := count("rail/deaths")
	fmt.Fprintf(w, "%-18s rail: %d heartbeats, %d suspects, %d deaths, %d failovers, %d B re-issued, %d stripe chunks\n",
		bond.Name, count("rail/heartbeats"), count("rail/suspects"), deaths,
		count("rail/failovers"), count("rail/reissued_bytes"), count("rail/stripe_chunks"))
	if deaths == 0 {
		return fmt.Errorf("experiments: %s: rail kill at %v was never detected (rail/deaths = 0)", bond.Name, at)
	}
	if degraded.Elapsed <= healthy.Elapsed {
		return fmt.Errorf("experiments: %s: degraded run (%v) not slower than healthy (%v) — the kill never bit",
			bond.Name, degraded.Elapsed, healthy.Elapsed)
	}

	solo := members[0].With(cluster.WithFaults(plan))
	if _, err := run(solo, nil); err == nil {
		return fmt.Errorf("experiments: solo %s survived its own rail-kill plan", members[0].Name)
	} else if !errors.Is(err, faults.ErrRetryExhausted) && !errors.Is(err, mpi.ErrTimeout) {
		return fmt.Errorf("experiments: solo %s failed untyped: %w", members[0].Name, err)
	} else {
		fmt.Fprintf(w, "%-18s solo control failed typed as it must: %v\n", members[0].Name, err)
	}
	return nil
}
