package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mpinet/internal/cluster"
	"mpinet/internal/microbench"
	"mpinet/internal/units"
)

// Acceptance: at the committed seed, the 1%-drop Figure 1 latency curve
// strictly dominates the healthy curve pointwise, on all three
// interconnects — every point pays some recovery cost, none pays a
// negative one.
func TestFaultLatencyDominatesHealthy(t *testing.T) {
	r := NewRunner(false, nil)
	sizes := r.sizes(4, 4*units.KB)
	for _, p := range cluster.OSU() {
		healthy := microbench.LatencyIters(p, sizes, faultIters)
		faulty := microbench.LatencyIters(Faulty(p, 0.01), sizes, faultIters)
		for i, s := range sizes {
			if faulty.Y[i] <= healthy.Y[i] {
				t.Errorf("%s at %d B: faulty %.3f us <= healthy %.3f us",
					p.Name, s, faulty.Y[i], healthy.Y[i])
			}
		}
	}
}

// Deadlock freedom: LU class S completes under 1% drop on every
// interconnect. The host wall-clock watchdog makes a hang a test failure
// instead of a suite timeout.
func TestLUSurvivesPacketLoss(t *testing.T) {
	for _, net := range []string{"IBA", "Myri", "QSN"} {
		for _, drop := range []float64{0, 0.01} {
			done := make(chan error, 1)
			var out bytes.Buffer
			go func() { done <- FaultSmoke(&out, net, drop, 0) }()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s drop=%g: %v\n%s", net, drop, err, out.String())
				}
			case <-time.After(120 * time.Second):
				t.Fatalf("%s drop=%g: wall-clock watchdog expired — simulated run hung", net, drop)
			}
		}
	}
}

// The fault figure itself must replay identically at any worker count —
// the seeded-injector leg of the §11 determinism contract.
func TestExtFaultsIdenticalAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		r := NewRunner(true, nil)
		r.Jobs = jobs
		var out bytes.Buffer
		r.runTasks(&out, []suiteTask{figTask(r.ExtFaults)})
		return out.String()
	}
	serial := render(1)
	if parallel := render(8); serial != parallel {
		t.Fatal("Ext F differs between -j 1 and -j 8")
	}
	if !strings.Contains(serial, "drop=1%") {
		t.Fatalf("Ext F output missing faulty curves:\n%s", serial)
	}
}

func TestFaultSmokeRejectsUnknownNet(t *testing.T) {
	var out bytes.Buffer
	if err := FaultSmoke(&out, "Ethernet", 0.01, 0); err == nil {
		t.Fatal("unknown interconnect accepted")
	}
	// Names resolve case-insensitively, as on every other command.
	if err := FaultSmoke(&out, "qsn", 0, 0); err != nil {
		t.Fatalf("lower-case interconnect name: %v", err)
	}
}
