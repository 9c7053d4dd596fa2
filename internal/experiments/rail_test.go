package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Acceptance: the issue's canonical scenario — LU class S on Bond(IBA,
// Myri) with the primary killed at 50% completes via failover while the
// solo primary fails typed — wrapped in a wall-clock watchdog so a hang is
// a test failure, not a suite timeout. RailFailSmoke itself asserts the
// "slower than healthy" and "typed solo failure" legs.
func TestRailFailSmoke(t *testing.T) {
	for _, cfg := range []struct{ pair, policy string }{
		{"IBA+Myri", "failover"},
		{"IBA+Myri", "stripe"},
	} {
		done := make(chan error, 1)
		var out bytes.Buffer
		go func() { done <- RailFailSmoke(&out, cfg.pair, cfg.policy, 0) }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s/%s: %v\n%s", cfg.pair, cfg.policy, err, out.String())
			}
		case <-time.After(120 * time.Second):
			t.Fatalf("%s/%s: wall-clock watchdog expired — simulated run hung", cfg.pair, cfg.policy)
		}
	}
}

// The rail figures must replay identically at any worker count — the
// failover cascade (heartbeat jitter, kill verdicts, re-issue order) is the
// bond's leg of the §11 determinism contract.
func TestExtRailIdenticalAcrossJobs(t *testing.T) {
	render := func(jobs int) string {
		r := NewRunner(true, nil)
		r.Jobs = jobs
		var out bytes.Buffer
		r.runTasks(&out, []suiteTask{
			figTask(r.ExtRailLatency),
			figTask(r.ExtRailBandwidth),
		})
		return out.String()
	}
	serial := render(1)
	if parallel := render(8); serial != parallel {
		t.Fatal("Ext G differs between -j 1 and -j 8")
	}
	for _, want := range []string{"IBA+Myri healthy", "killed at 50%", "stripe"} {
		if !strings.Contains(serial, want) {
			t.Fatalf("Ext G output missing %q:\n%s", want, serial)
		}
	}
}

func TestRailFailSmokeRejectsBadArgs(t *testing.T) {
	var out bytes.Buffer
	if err := RailFailSmoke(&out, "IBA", "failover", 0); err == nil {
		t.Error("single-interconnect pair accepted")
	}
	if err := RailFailSmoke(&out, "IBA+Ethernet", "failover", 0); err == nil {
		t.Error("unknown interconnect accepted")
	}
	if err := RailFailSmoke(&out, "IBA+Myri", "roundrobin", 0); err == nil {
		t.Error("unknown policy accepted")
	}
	// Lower-case member names resolve, so only the policy is rejected.
	if err := RailFailSmoke(&out, "iba+myri", "roundrobin", 0); err == nil || !strings.Contains(err.Error(), "rail policy") {
		t.Errorf("lower-case pair: err = %v, want the unknown-policy error", err)
	}
}
