// Package report renders the reproduction's figures and tables as aligned
// text, including side-by-side paper-vs-simulated comparisons. It is the
// presentation layer behind cmd/mpibench, cmd/nasbench and cmd/paperrepro.
package report

import (
	"fmt"
	"strings"

	"mpinet/internal/microbench"
	"mpinet/internal/units"
)

// Figure is one of the paper's figures: a set of curves over a common
// X axis.
type Figure struct {
	ID     string // "Fig 1"
	Title  string
	XLabel string // "Message Size (Bytes)" or "Nodes"
	YLabel string // "Time (us)" or "Bandwidth (MB/s)"
	Curves []microbench.Curve
	Notes  string
}

// Render returns the figure as an aligned data table, which is how a
// text-only harness "draws" it.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	if len(f.Curves) == 0 {
		b.WriteString("  (no data)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  %-12s", f.XLabel)
	for _, c := range f.Curves {
		fmt.Fprintf(&b, " %14s", c.Label)
	}
	fmt.Fprintf(&b, "   [%s]\n", f.YLabel)
	for i := range f.Curves[0].X {
		fmt.Fprintf(&b, "  %-12s", xLabel(f.Curves[0].X[i], f.XLabel))
		for _, c := range f.Curves {
			if i < len(c.Y) {
				fmt.Fprintf(&b, " %14.2f", c.Y[i])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteByte('\n')
	}
	if f.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", f.Notes)
	}
	return b.String()
}

func xLabel(x int64, axis string) string {
	if strings.Contains(axis, "Bytes") {
		return units.SizeString(x)
	}
	return fmt.Sprint(x)
}

// Table is one of the paper's tables.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Render returns the table with aligned columns.
func (t Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	line := func(cells []string) {
		b.WriteString("  ")
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", t.Notes)
	}
	return b.String()
}

// Speedup converts execution times (indexed by process count) to speedups
// with the smallest count as the base, normalized the way Figures 18-23
// plot them: the 2-node base case sits at speedup 2, so superlinear scaling
// rises above the ideal line.
func Speedup(procs []int, times []float64) microbench.Curve {
	c := microbench.Curve{}
	if len(procs) == 0 || len(times) == 0 {
		return c
	}
	base := float64(procs[0]) * times[0]
	for i := range procs {
		c.X = append(c.X, int64(procs[i]))
		c.Y = append(c.Y, base/times[i])
	}
	return c
}

// Comparison is one paper-vs-simulated anchor check.
type Comparison struct {
	Name  string
	Paper float64
	Sim   float64
	Unit  string
}

// Delta returns the relative error of the simulation against the paper.
func (c Comparison) Delta() float64 {
	if c.Paper == 0 {
		return 0
	}
	return (c.Sim - c.Paper) / c.Paper
}

// RenderComparisons formats anchor checks, flagging deltas over the
// tolerance.
func RenderComparisons(title string, comps []Comparison, tol float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	w := 0
	for _, c := range comps {
		if len(c.Name) > w {
			w = len(c.Name)
		}
	}
	for _, c := range comps {
		flag := ""
		if d := c.Delta(); d > tol || d < -tol {
			flag = "  <-- off"
		}
		fmt.Fprintf(&b, "  %-*s  paper %10.2f  sim %10.2f  %-6s (%+.1f%%)%s\n",
			w, c.Name, c.Paper, c.Sim, c.Unit, c.Delta()*100, flag)
	}
	return b.String()
}
