package experiments

import (
	"fmt"
	"io"

	"mpinet/internal/parallel"
	"mpinet/internal/report"
)

// suiteTask is one schedulable unit of the suite: a closure producing one
// figure's or table's rendered block. Tasks are independent simulations
// (each builds its own engines), so any subset may run concurrently.
type suiteTask func() string

// figTask and tabTask adapt figure/table builders to suiteTask renderers.
func figTask(f func() report.Figure) suiteTask {
	return func() string { return f().Render() }
}

func tabTask(f func() report.Table) suiteTask {
	return func() string { return f().Render() }
}

// runTasks fans tasks out over r.Jobs workers and streams each rendered
// block to w in list order — the parallelism/determinism contract of
// docs/MODEL.md §11.
func (r *Runner) runTasks(w io.Writer, tasks []suiteTask) {
	parallel.MapOrdered(r.Jobs, len(tasks), func(i int) string {
		return tasks[i]()
	}, func(_ int, block string) {
		fmt.Fprintln(w, block)
	})
}

// gatherComparisons fans comparison-building groups out over r.Jobs workers
// and concatenates their results in group order.
func (r *Runner) gatherComparisons(groups []func() []report.Comparison) []report.Comparison {
	var comps []report.Comparison
	parallel.MapOrdered(r.Jobs, len(groups), func(i int) []report.Comparison {
		return groups[i]()
	}, func(_ int, c []report.Comparison) {
		comps = append(comps, c...)
	})
	return comps
}
