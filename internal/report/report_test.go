package report

import (
	"strings"
	"testing"

	"mpinet/internal/microbench"
)

func TestFigureRender(t *testing.T) {
	f := Figure{
		ID:     "Fig X",
		Title:  "Test",
		XLabel: "Message Size (Bytes)",
		YLabel: "Time (us)",
		Curves: []microbench.Curve{
			{Label: "IBA", X: []int64{4, 1024}, Y: []float64{6.8, 8.4}},
			{Label: "QSN", X: []int64{4, 1024}, Y: []float64{4.6}},
		},
	}
	out := f.Render()
	for _, want := range []string{"Fig X", "IBA", "QSN", "6.80", "1KB", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRenderEmpty(t *testing.T) {
	out := Figure{ID: "Fig Y", Title: "Empty"}.Render()
	if !strings.Contains(out, "no data") {
		t.Errorf("empty figure render: %q", out)
	}
}

func TestTableRenderAligned(t *testing.T) {
	tb := Table{
		ID:     "Tab 1",
		Title:  "Sizes",
		Header: []string{"App", "Count"},
		Rows:   [][]string{{"IS", "14"}, {"S3D-150", "28836"}},
		Notes:  "per rank",
	}
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "per rank") {
		t.Error("notes missing")
	}
	// Columns aligned: "Count" header starts at same offset as values.
	hIdx := strings.Index(lines[1], "Count")
	vIdx := strings.Index(lines[4], "28836")
	if hIdx != vIdx {
		t.Errorf("columns misaligned: header at %d, value at %d\n%s", hIdx, vIdx, out)
	}
}

func TestSpeedupNormalization(t *testing.T) {
	c := Speedup([]int{2, 4, 8}, []float64{100, 50, 25})
	if c.Y[0] != 2 {
		t.Fatalf("base speedup = %v, want 2", c.Y[0])
	}
	if c.Y[2] != 8 {
		t.Fatalf("ideal scaling speedup = %v, want 8", c.Y[2])
	}
	// Superlinear case rises above the ideal line.
	s := Speedup([]int{2, 8}, []float64{100, 20})
	if s.Y[1] <= 8 {
		t.Fatalf("superlinear speedup = %v, want > 8", s.Y[1])
	}
	if got := Speedup(nil, nil); len(got.Y) != 0 {
		t.Fatal("empty input should give empty curve")
	}
}

func TestComparisons(t *testing.T) {
	comps := []Comparison{
		{Name: "latency", Paper: 6.8, Sim: 6.7, Unit: "us"},
		{Name: "bandwidth", Paper: 841, Sim: 500, Unit: "MB/s"},
	}
	out := RenderComparisons("anchors", comps, 0.10)
	if strings.Count(out, "<-- off") != 1 {
		t.Errorf("expected exactly one out-of-tolerance flag:\n%s", out)
	}
	if comps[0].Delta() > 0 {
		t.Errorf("delta sign wrong: %v", comps[0].Delta())
	}
	if (Comparison{Paper: 0, Sim: 5}).Delta() != 0 {
		t.Error("zero paper value should yield zero delta")
	}
}

func TestPaperDataComplete(t *testing.T) {
	for _, app := range AppOrder {
		if _, ok := PaperTable1[app]; !ok {
			t.Errorf("Table 1 missing %s", app)
		}
		if _, ok := PaperTable3[app]; !ok {
			t.Errorf("Table 3 missing %s", app)
		}
		if _, ok := PaperTable4[app]; !ok {
			t.Errorf("Table 4 missing %s", app)
		}
		if _, ok := PaperTable5[app]; !ok {
			t.Errorf("Table 5 missing %s", app)
		}
		if _, ok := PaperTable6[app]; !ok {
			t.Errorf("Table 6 missing %s", app)
		}
	}
	for app, times := range PaperTable2 {
		for net, ts := range times {
			if ts[2] == 0 {
				t.Errorf("Table 2 %s/%s missing the 8-node time", app, net)
			}
		}
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{
		XLabel: "Message Size (Bytes)",
		Curves: []microbench.Curve{
			{Label: "IBA 4", X: []int64{4, 1024}, Y: []float64{6.8, 8.4}},
			{Label: "QSN, odd\"label", X: []int64{4, 1024}, Y: []float64{4.6}},
		},
	}
	out := f.CSV()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != `Message Size (Bytes),IBA 4,"QSN, odd""label"` {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "4,6.8,4.6" || lines[2] != "1024,8.4," {
		t.Fatalf("rows:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := Table{Header: []string{"App", "Time"}, Rows: [][]string{{"IS", "1.78"}}}
	out := tb.CSV()
	if out != "App,Time\nIS,1.78\n" {
		t.Fatalf("table csv = %q", out)
	}
}

func TestFigureCSVEmpty(t *testing.T) {
	out := Figure{XLabel: "X"}.CSV()
	if out != "X\n" {
		t.Fatalf("empty figure csv = %q", out)
	}
}
