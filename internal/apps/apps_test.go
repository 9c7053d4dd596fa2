package apps

import (
	"errors"
	"strings"
	"testing"

	"mpinet/internal/cluster"
)

func TestAllAppsRunOnAllNetworksClassS(t *testing.T) {
	for _, a := range Registry() {
		for _, p := range cluster.OSU() {
			procs := 8
			if a.SquareProcs {
				procs = 4
			}
			res, err := a.Run(RunConfig{Platform: p, Class: ClassS, Procs: procs})
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, p.Name, err)
			}
			if res.Elapsed <= 0 {
				t.Fatalf("%s on %s: non-positive elapsed %v", a.Name, p.Name, res.Elapsed)
			}
			if res.Profile.TotalCalls == 0 {
				t.Fatalf("%s on %s: empty profile", a.Name, p.Name)
			}
		}
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Registry() {
		if seen[a.Name] {
			t.Fatalf("duplicate app %s", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 9 {
		t.Fatalf("expected the paper's 9 workloads, have %d", len(seen))
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("LU"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunReturnsPlatformConfigError: an invalid platform comes back from
// Run as its typed configuration error, not as a panic.
func TestRunReturnsPlatformConfigError(t *testing.T) {
	_, err := LU().Run(RunConfig{Platform: cluster.IBA().With(cluster.Clos(3, 7, 2)), Class: ClassS, Procs: 8})
	var ce *cluster.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v (%T), want a *cluster.ConfigError", err, err)
	}
}

func TestSquareProcsEnforced(t *testing.T) {
	if _, err := SP().Run(RunConfig{Platform: cluster.IBA(), Class: ClassS, Procs: 8}); err == nil {
		t.Fatal("SP accepted 8 processes")
	}
	if _, err := BT().Run(RunConfig{Platform: cluster.IBA(), Class: ClassS, Procs: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestMinProcsEnforced(t *testing.T) {
	if _, err := IS().Run(RunConfig{Platform: cluster.IBA(), Class: ClassS, Procs: 1}); err == nil {
		t.Fatal("IS accepted 1 process")
	}
}

// Communication-structure invariants from the paper's Tables 3 and 5.
func TestProfileShapesMatchPaper(t *testing.T) {
	run := func(name string) Result {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		procs := 8
		if a.SquareProcs {
			procs = 4
		}
		res, err := a.Run(RunConfig{Platform: cluster.IBA(), Class: ClassS, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// IS and FT communicate almost exclusively through collectives.
	for _, name := range []string{"IS", "FT"} {
		pr := run(name).PerRank
		if pr.CollectiveVolumeShare() < 0.99 {
			t.Errorf("%s collective volume share = %.2f, want ~1.0", name, pr.CollectiveVolumeShare())
		}
	}
	// CG, MG, LU use non-blocking receives but never non-blocking sends.
	for _, name := range []string{"CG", "MG", "LU"} {
		pr := run(name).PerRank
		if pr.IrecvCalls == 0 {
			t.Errorf("%s: no Irecv calls", name)
		}
		if pr.IsendCalls != 0 {
			t.Errorf("%s: %d Isend calls, want 0", name, pr.IsendCalls)
		}
	}
	// SP and BT use both, in equal numbers.
	for _, name := range []string{"SP", "BT"} {
		pr := run(name).PerRank
		if pr.IsendCalls == 0 || pr.IsendCalls != pr.IrecvCalls {
			t.Errorf("%s: isend=%d irecv=%d, want equal and nonzero", name, pr.IsendCalls, pr.IrecvCalls)
		}
	}
	// FT and sweep3D use no non-blocking calls at all.
	for _, name := range []string{"FT", "S3D-50", "S3D-150"} {
		pr := run(name).PerRank
		if pr.IsendCalls != 0 || pr.IrecvCalls != 0 {
			t.Errorf("%s: isend=%d irecv=%d, want 0/0", name, pr.IsendCalls, pr.IrecvCalls)
		}
	}
	// Buffer reuse is very high everywhere (Table 4) — skeletons must use
	// persistent buffers.
	for _, a := range Registry() {
		procs := 8
		if a.SquareProcs {
			procs = 4
		}
		res, err := a.Run(RunConfig{Platform: cluster.IBA(), Class: ClassS, Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		// Table 4: IS (81%) and FT (86%) are the low-reuse workloads;
		// everything else sits near 100%.
		floor := 0.90
		switch a.Name {
		case "IS":
			floor = 0.70
		case "FT":
			floor = 0.78
		}
		if r := res.PerRank.ReuseRate(); r < floor {
			t.Errorf("%s reuse rate = %.2f, want > %.2f", a.Name, r, floor)
		}
	}
}

// Table 1 exact anchors for the collective-only workloads (cheap even at
// class B).
func TestISTable1ExactClassB(t *testing.T) {
	res, err := IS().Run(RunConfig{Platform: cluster.IBA(), Class: ClassB, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := [4]int64{14, 11, 0, 11} // the paper's Table 1 row for IS
	if res.PerRank.SizeHist != want {
		t.Fatalf("IS size histogram = %v, want %v", res.PerRank.SizeHist, want)
	}
}

func TestFTTable1ExactClassB(t *testing.T) {
	res, err := FT().Run(RunConfig{Platform: cluster.IBA(), Class: ClassB, Procs: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := [4]int64{24, 0, 0, 22}
	if res.PerRank.SizeHist != want {
		t.Fatalf("FT size histogram = %v, want %v", res.PerRank.SizeHist, want)
	}
}

func TestTable2IBAColumnClassB(t *testing.T) {
	if testing.Short() {
		t.Skip("class B runs in -short mode")
	}
	// The calibrated compute model must keep matching the paper's measured
	// IBA times within 2%.
	cases := []struct {
		name  string
		procs int
		want  float64
	}{
		{"IS", 8, 1.78}, {"MG", 8, 5.81}, {"S3D-50", 8, 3.59}, {"FT", 8, 37.92},
	}
	for _, c := range cases {
		a, _ := ByName(c.name)
		res, err := a.Run(RunConfig{Platform: cluster.IBA(), Class: ClassB, Procs: c.procs})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Elapsed.Seconds()
		if got < c.want*0.98 || got > c.want*1.02 {
			t.Errorf("%s on %d IBA nodes = %.2fs, paper %.2fs", c.name, c.procs, got, c.want)
		}
	}
}

func TestScalabilityMonotoneClassB(t *testing.T) {
	if testing.Short() {
		t.Skip("class B runs in -short mode")
	}
	for _, name := range []string{"IS", "MG", "S3D-50"} {
		a, _ := ByName(name)
		var prev float64
		for i, procs := range []int{2, 4, 8} {
			res, err := a.Run(RunConfig{Platform: cluster.IBA(), Class: ClassB, Procs: procs})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Elapsed.Seconds()
			if i > 0 && got >= prev {
				t.Errorf("%s: time did not decrease from %d to %d procs (%.2f -> %.2f)",
					name, procs/2, procs, prev, got)
			}
			prev = got
		}
	}
}

func TestSMPModeRuns(t *testing.T) {
	// 16 processes on 8 nodes, block mapping (the Figure 25 configuration).
	for _, name := range []string{"CG", "LU", "S3D-50"} {
		a, _ := ByName(name)
		res, err := a.Run(RunConfig{Platform: cluster.IBA(), Class: ClassS, Procs: 16, ProcsPerNode: 2})
		if err != nil {
			t.Fatalf("%s SMP: %v", name, err)
		}
		// Block mapping must produce intra-node traffic (Table 6).
		if res.Profile.IntraCalls == 0 {
			t.Errorf("%s SMP: no intra-node communication recorded", name)
		}
	}
}

func TestDeterministicElapsed(t *testing.T) {
	a, _ := ByName("MG")
	run := func() Result {
		res, err := a.Run(RunConfig{Platform: cluster.Myri(), Class: ClassS, Procs: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("non-deterministic: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
}

func TestGridHelpers(t *testing.T) {
	cases := []struct{ p, rows, cols int }{
		{2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4}, {6, 2, 3},
	}
	for _, c := range cases {
		r, co := grid2(c.p)
		if r != c.rows || co != c.cols {
			t.Errorf("grid2(%d) = %dx%d, want %dx%d", c.p, r, co, c.rows, c.cols)
		}
		if r*co != c.p {
			t.Errorf("grid2(%d) does not cover", c.p)
		}
	}
	for _, p := range []int{1, 2, 4, 8, 16, 12} {
		x, y, z := grid3(p)
		if x*y*z != p {
			t.Errorf("grid3(%d) = %d*%d*%d", p, x, y, z)
		}
	}
}

func TestShapeFor(t *testing.T) {
	c := calibration{workSeconds: 8, shape: map[int]float64{2: 1.0, 8: 0.8}}
	if c.shapeFor(2) != 1.0 || c.shapeFor(8) != 0.8 {
		t.Fatal("exact lookups failed")
	}
	if c.shapeFor(4) != 1.0 {
		t.Fatalf("shapeFor(4) = %v, want nearest smaller (1.0)", c.shapeFor(4))
	}
	if c.shapeFor(16) != 0.8 {
		t.Fatalf("shapeFor(16) = %v, want 0.8", c.shapeFor(16))
	}
	if (calibration{}).shapeFor(4) != 1.0 {
		t.Fatal("empty shape should default to 1.0")
	}
}
