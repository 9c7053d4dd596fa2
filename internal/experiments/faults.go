package experiments

import (
	"fmt"
	"io"
	"strings"

	"mpinet/internal/apps"
	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/microbench"
	"mpinet/internal/report"
	"mpinet/internal/units"
)

// FaultSeed is the committed seed every fault experiment draws from. One
// seed plus the counter-based PRNG of internal/faults makes every faulty
// figure a pure function of its inputs: the same drops hit the same packets
// at any -j, on any host.
const FaultSeed uint64 = 0x5EED2003

// faultIters is the ping-pong iteration count of the fault latency sweeps.
// At a 1% drop probability a (platform, size) point needs hundreds of
// messages before the expected retransmit penalty shows in its average;
// Latency's usual 16 iterations would leave most points untouched.
const faultIters = 384

// Faulty derives a platform running under a uniform packet-drop plan with
// the committed seed, its report label extended with the drop rate.
func Faulty(p cluster.Platform, drop float64) cluster.Platform {
	if drop == 0 {
		return p
	}
	return p.With(cluster.WithFaults(faults.DropPlan(FaultSeed, drop))).
		Named(fmt.Sprintf("%s drop=%g%%", p.Name, drop*100))
}

// ExtFaults regenerates Figure 1's latency sweep under injected packet
// loss: for each interconnect, the healthy curve plus curves at 0.1% and 1%
// uniform drop probability. Lost packets are recovered by each
// interconnect's own mechanism (VAPI RC retransmit, GM send-token resend,
// Elan source retry), so the gap between curves is the recovery cost the
// paper's healthy testbeds never show.
func (r *Runner) ExtFaults() report.Figure {
	r.logf("Ext F: latency under packet loss")
	f := report.Figure{ID: "Ext F", Title: "MPI Latency under Uniform Packet Loss (seeded)",
		XLabel: "Message Size (Bytes)", YLabel: "Time (us)"}
	iters := faultIters
	if r.Quick {
		iters = 128
	}
	for _, p := range cluster.OSU() {
		for _, drop := range []float64{0, 0.001, 0.01} {
			f.Curves = append(f.Curves,
				microbench.LatencyIters(Faulty(p, drop), r.sizes(4, 4*units.KB), iters))
		}
	}
	f.Notes = fmt.Sprintf("drops drawn from seed %#x; recovery: IBA RC retransmit (exp. backoff), GM token resend, Elan source retry", FaultSeed)
	return f
}

// FaultSmoke is the CI fault-matrix entry point: on one interconnect, run a
// seeded latency probe and the LU class S application under the given drop
// rate, and report the injector and NIC recovery counters. drop = 0 is the
// healthy control. Any run that deadlocks instead of finishing or failing
// with a typed error is a bug — the MPI watchdog converts starvation into
// mpi.ErrTimeout, so this function always returns.
func FaultSmoke(w io.Writer, net string, drop float64, seed uint64) error {
	base, err := PlatformByName(net)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = FaultSeed
	}
	p := base
	if drop > 0 {
		p = base.With(cluster.WithFaults(faults.DropPlan(seed, drop)), cluster.WithSeed(seed)).
			Named(fmt.Sprintf("%s drop=%g%%", base.Name, drop*100))
	}

	lat := microbench.LatencyIters(p, []int64{1024}, 256)
	fmt.Fprintf(w, "%-16s 1KB latency over 256 ping-pongs: %.2f us\n", p.Name, lat.Y[0])

	m := metrics.New()
	res, err := apps.ByName("LU")
	if err != nil {
		return err
	}
	result, err := res.Run(apps.RunConfig{
		Platform: p, Class: apps.ClassS, Procs: 8, Metrics: m,
	})
	if err != nil {
		return fmt.Errorf("experiments: LU class S smoke on %s: %w", p.Name, err)
	}
	fmt.Fprintf(w, "%-16s LU class S x8:  %v elapsed\n", p.Name, result.Elapsed)

	snap := m.Snapshot()
	packets, _ := snap.Get("faults/packets")
	drops, _ := snap.Get("faults/drops")
	var retries int64
	for _, it := range snap.Items {
		if strings.HasSuffix(it.Name, "/nic/retries") {
			retries += it.Value
		}
	}
	fmt.Fprintf(w, "%-16s injector: %d packets, %d dropped; NIC retries: %d\n",
		p.Name, packets, drops, retries)
	if drop > 0 && drops == 0 {
		return fmt.Errorf("experiments: %s at drop=%g: injector never fired", p.Name, drop)
	}
	if drop == 0 && drops != 0 {
		return fmt.Errorf("experiments: healthy %s recorded %d drops", p.Name, drops)
	}
	return nil
}
