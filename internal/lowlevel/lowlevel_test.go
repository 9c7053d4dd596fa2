package lowlevel

import (
	"testing"

	"mpinet/internal/cluster"
	"mpinet/internal/microbench"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestRawLatencyBelowMPILatency(t *testing.T) {
	// The messaging layer must be strictly faster than MPI over it.
	for _, p := range cluster.OSU() {
		raw := Latency(p, 8)
		mpiLat := microbench.Latency(p, []int64{8}).Y[0]
		if raw.Micros() >= mpiLat {
			t.Errorf("%s: raw latency %v not below MPI latency %.2fus", p.Name, raw, mpiLat)
		}
		if raw <= 0 {
			t.Errorf("%s: non-positive raw latency", p.Name)
		}
	}
}

func TestRawLatencyOrdering(t *testing.T) {
	// At the messaging layer Quadrics' NIC-driven path is fastest — by a
	// wider margin than at the MPI level, since its high host overhead is
	// out of the picture.
	qsn := Latency(cluster.QSN(), 8)
	iba := Latency(cluster.IBA(), 8)
	myri := Latency(cluster.Myri(), 8)
	if !(qsn < iba && qsn < myri) {
		t.Errorf("raw latency ordering: QSN %v, IBA %v, Myri %v", qsn, iba, myri)
	}
}

func TestRawBandwidthMatchesLinkCeilings(t *testing.T) {
	cases := []struct {
		p        cluster.Platform
		min, max float64
	}{
		{cluster.IBA(), 800, 900},
		{cluster.Myri(), 210, 245},
		{cluster.QSN(), 290, 320},
	}
	for _, c := range cases {
		bw := Bandwidth(c.p, 512*units.KB, 4)
		if bw < c.min || bw > c.max {
			t.Errorf("%s raw bandwidth = %.0f MB/s, want [%.0f, %.0f]", c.p.Name, bw, c.min, c.max)
		}
	}
}

func TestRawBandwidthAboveMPIStream(t *testing.T) {
	// MPI adds protocol overheads, so the raw path sustains at least the
	// MPI-level figure.
	for _, p := range cluster.OSU() {
		raw := Bandwidth(p, 512*units.KB, 8)
		mpiBW := microbench.Bandwidth(p, []int64{512 * units.KB}, 16).Y[0]
		if raw < mpiBW*0.97 {
			t.Errorf("%s: raw bandwidth %.0f below MPI bandwidth %.0f", p.Name, raw, mpiBW)
		}
	}
}

func TestRegistrationCostLinearInPages(t *testing.T) {
	for _, p := range []cluster.Platform{cluster.IBA(), cluster.Myri(), cluster.QSN()} {
		c1 := RegistrationCost(p, 1)
		c16 := RegistrationCost(p, 16)
		c64 := RegistrationCost(p, 64)
		if c1 <= 0 {
			t.Errorf("%s: one-page registration free", p.Name)
		}
		if !(c16 > c1 && c64 > c16) {
			t.Errorf("%s: registration cost not increasing: %v %v %v", p.Name, c1, c16, c64)
		}
		// Linear tail: cost(64)-cost(16) == 3 * (cost(16)-cost(4))... use
		// exact per-page arithmetic instead: marginal cost of 48 pages.
		marginal := c64 - c16
		perPage := marginal / 48
		if perPage <= 0 {
			t.Errorf("%s: non-positive per-page cost", p.Name)
		}
	}
}

func TestHostOverheadsMatchPaperSplit(t *testing.T) {
	// Raw per-message host cost sums to the paper's Figure 3 values.
	for _, c := range []struct {
		p     cluster.Platform
		total float64 // us
	}{
		{cluster.IBA(), 1.7}, {cluster.Myri(), 0.8}, {cluster.QSN(), 3.3},
	} {
		s, r := HostOverheads(c.p, 4)
		sum := (s + r).Micros()
		if sum < c.total*0.85 || sum > c.total*1.15 {
			t.Errorf("%s raw overhead sum = %.2f us, paper %.2f", c.p.Name, sum, c.total)
		}
	}
}

func TestDeterministicRawMeasurements(t *testing.T) {
	a := Latency(cluster.Myri(), 1024)
	b := Latency(cluster.Myri(), 1024)
	if a != b {
		t.Fatalf("raw latency not deterministic: %v vs %v", a, b)
	}
	var x, y sim.Time = sim.Time(Bandwidth(cluster.IBA(), 65536, 4)), sim.Time(Bandwidth(cluster.IBA(), 65536, 4))
	if x != y {
		t.Fatalf("raw bandwidth not deterministic")
	}
}
