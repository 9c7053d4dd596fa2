package fabric

import (
	"testing"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// between resolves the segment of a (src, dst) route on tp at now.
func between(tp Topology, src, dst int, now sim.Time) Segment {
	var seg Segment
	tp.Between(src, dst, now, &seg)
	return seg
}

func linkCfg(mbps float64) LinkConfig {
	return LinkConfig{Rate: units.MBps(mbps)}
}

func TestTransferSingleStageRate(t *testing.T) {
	e := sim.New()
	p := sim.NewPipe("l", units.MBps(100), 0, 0)
	var end sim.Time
	Transfer(e, &Route{Head: []PathStage{{Stage: p}}}, 100*units.MB, DefaultChunk, 0, func(at sim.Time) { end = at })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := end.Seconds(); got < 0.999 || got > 1.001 {
		t.Fatalf("100MB at 100MB/s finished at %vs, want ~1s", got)
	}
}

func TestTransferPipelinesAcrossStages(t *testing.T) {
	// Two equal-rate stages: pipelined time ≈ size/rate + chunk/rate, far
	// less than the 2x of store-and-forward.
	e := sim.New()
	a := sim.NewPipe("a", units.MBps(100), 0, 0)
	b := sim.NewPipe("b", units.MBps(100), 0, 0)
	var end sim.Time
	size := int64(10 * units.MB)
	Transfer(e, &Route{Head: []PathStage{{Stage: a}, {Stage: b}}}, size, DefaultChunk, 0, func(at sim.Time) { end = at })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	oneStage := units.MBps(100).TimeFor(size)
	if end >= oneStage*3/2 {
		t.Fatalf("two-stage transfer %v not pipelined (one stage = %v)", end, oneStage)
	}
	if end <= oneStage {
		t.Fatalf("two-stage transfer %v impossibly fast (one stage = %v)", end, oneStage)
	}
}

func TestTransferBottleneckStage(t *testing.T) {
	e := sim.New()
	fast := sim.NewPipe("fast", units.MBps(1000), 0, 0)
	slow := sim.NewPipe("slow", units.MBps(100), 0, 0)
	var end sim.Time
	size := int64(50 * units.MB)
	Transfer(e, &Route{Head: []PathStage{{Stage: fast}, {Stage: slow}, {Stage: fast}}}, size, DefaultChunk, 0,
		func(at sim.Time) { end = at })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	bottleneck := units.MBps(100).TimeFor(size)
	ratio := float64(end) / float64(bottleneck)
	if ratio < 1.0 || ratio > 1.1 {
		t.Fatalf("transfer/bottleneck ratio = %.3f, want ~1", ratio)
	}
}

func TestTransferLatencyAdds(t *testing.T) {
	e := sim.New()
	p := sim.NewPipe("l", units.MBps(100), 0, 0)
	var end sim.Time
	Transfer(e, &Route{Head: []PathStage{{Stage: p, Latency: 5 * units.Microsecond}}}, 1, 1024, 0,
		func(at sim.Time) { end = at })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end < 5*units.Microsecond {
		t.Fatalf("end %v ignores stage latency", end)
	}
}

func TestTwoTransfersShareStageFairly(t *testing.T) {
	// Two simultaneous transfers through one pipe: each should take about
	// twice as long as alone, and finish near each other (chunk interleave).
	e := sim.New()
	p := sim.NewPipe("l", units.MBps(100), 0, 0)
	var endA, endB sim.Time
	size := int64(10 * units.MB)
	Transfer(e, &Route{Head: []PathStage{{Stage: p}}}, size, DefaultChunk, 0, func(at sim.Time) { endA = at })
	Transfer(e, &Route{Head: []PathStage{{Stage: p}}}, size, DefaultChunk, 0, func(at sim.Time) { endB = at })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	alone := units.MBps(100).TimeFor(size)
	for _, end := range []sim.Time{endA, endB} {
		ratio := float64(end) / float64(alone)
		if ratio < 1.9 || ratio > 2.1 {
			t.Fatalf("shared transfer ratio = %.2f, want ~2", ratio)
		}
	}
	diff := endA - endB
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > float64(alone)/8 {
		t.Fatalf("transfers finished %v apart — not interleaving", diff)
	}
}

func TestSwitchOutputPortContention(t *testing.T) {
	// Two hosts sending to the same destination port: combined goodput
	// limited by that port's rate.
	e := sim.New()
	out := sim.NewPipe("sw/out2", units.MBps(200), 0, 0)
	la := NewLink("a", linkCfg(200))
	lb := NewLink("b", linkCfg(200))
	dst := NewLink("c", linkCfg(200))
	size := int64(10 * units.MB)
	var ends []sim.Time
	for _, up := range []*sim.Pipe{la.Up(), lb.Up()} {
		path := []PathStage{
			{Stage: up},
			{Stage: out, Latency: 100 * units.Nanosecond},
			{Stage: dst.Down()},
		}
		Transfer(e, &Route{Head: path}, size, DefaultChunk, 0, func(at sim.Time) { ends = append(ends, at) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	alone := units.MBps(200).TimeFor(size)
	lastEnd := ends[0]
	if ends[1] > lastEnd {
		lastEnd = ends[1]
	}
	ratio := float64(lastEnd) / float64(alone)
	if ratio < 1.9 || ratio > 2.2 {
		t.Fatalf("contended completion ratio = %.2f, want ~2 (output port is the bottleneck)", ratio)
	}
}

func TestLinkDirectionsIndependent(t *testing.T) {
	e := sim.New()
	l := NewLink("x", linkCfg(100))
	size := int64(10 * units.MB)
	var upEnd, downEnd sim.Time
	Transfer(e, &Route{Head: []PathStage{{Stage: l.Up()}}}, size, DefaultChunk, 0, func(at sim.Time) { upEnd = at })
	Transfer(e, &Route{Head: []PathStage{{Stage: l.Down()}}}, size, DefaultChunk, 0, func(at sim.Time) { downEnd = at })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	alone := units.MBps(100).TimeFor(size)
	for _, end := range []sim.Time{upEnd, downEnd} {
		ratio := float64(end) / float64(alone)
		if ratio > 1.05 {
			t.Fatalf("full-duplex directions interfered: ratio %.2f", ratio)
		}
	}
}

func TestTransferZeroAndTinySizes(t *testing.T) {
	e := sim.New()
	p := sim.NewPipe("l", units.MBps(100), 0, 0)
	var n int
	for _, size := range []int64{0, 1, 7, 8*1024 + 1} {
		Transfer(e, &Route{Head: []PathStage{{Stage: p}}}, size, 8*1024, e.Now(), func(sim.Time) { n++ })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("done callbacks = %d, want 4", n)
	}
}

func TestTransferEmptyPath(t *testing.T) {
	e := sim.New()
	called := false
	Transfer(e, &Route{}, 100, 10, 5, func(at sim.Time) {
		called = true
		if at != 5 {
			t.Errorf("empty path completion at %v, want 5", at)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("done not called")
	}
}

func TestCrossbarTopology(t *testing.T) {
	topo := NewCrossbarTopology(8, 150*units.Nanosecond)
	if topo.Nodes() != 8 {
		t.Fatal("crossbar nodes")
	}
	seg := between(topo, 0, 5, 0)
	if len(seg.Stages) != 0 || seg.Down != 150*units.Nanosecond || seg.Plane != -1 {
		t.Fatal("crossbar Between")
	}
}
