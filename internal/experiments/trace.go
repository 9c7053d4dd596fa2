package experiments

// trace.go drives the per-message tracing layer end to end: the traced
// observability demo behind the commands' -tracemsgs/-blame flags, the
// healthy traced latency decomposition, and the Postmortem acceptance
// scenario — a fault-injected LU run whose flight-recorder dump and blame
// report must name the failing rank and stage.

import (
	"bytes"
	"fmt"
	"io"

	"mpinet/internal/apps"
	"mpinet/internal/cluster"
	"mpinet/internal/faults"
	"mpinet/internal/msgtrace"
	"mpinet/internal/report"
)

// RunObserved backs the commands' -metrics/-tracefile/-blame flags: it runs
// the observability demo on the named interconnect, tracing one message in
// traceEvery (a blame report implies 1 when tracing is off), and hands
// write each requested artifact in turn — the grouped metrics snapshot,
// the Chrome trace and the blame report JSON. An empty path skips its
// artifact.
func RunObserved(net, metricsPath, tracePath, blamePath string, traceEvery int, write func(path string, data []byte) error) error {
	p, err := PlatformByName(net)
	if err != nil {
		return err
	}
	if blamePath != "" && traceEvery <= 0 {
		traceEvery = 1
	}
	w, err := ObserveTraced(p, traceEvery)
	if err != nil {
		return err
	}
	for _, a := range []struct {
		path   string
		render func(io.Writer) error
	}{
		{metricsPath, func(b io.Writer) error { w.Metrics().Snapshot().RenderGrouped(b); return nil }},
		{tracePath, w.WriteChromeTrace},
		{blamePath, func(b io.Writer) error { return report.WriteBlameJSON(b, w.MsgTrace().Analyze(5)) }},
	} {
		if a.path == "" {
			continue
		}
		var b bytes.Buffer
		if err := a.render(&b); err != nil {
			return err
		}
		if err := write(a.path, b.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Postmortem is the tracing layer's acceptance scenario: LU class S x8 on
// a solo interconnect under uniform packet drop plus a hard rail-kill at
// 50% of the healthy elapsed time. The run must fail with a typed error,
// and the flight-recorder dump plus blame report written to w must name
// the failing rank and stage (and, via the flight ring's incident
// fallback, the message that ran out of retries). Deterministic in seed.
func Postmortem(w io.Writer, net string, drop float64, seed uint64) error {
	p, err := PlatformByName(net)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = FaultSeed
	}
	if drop <= 0 {
		drop = 0.01
	}
	lu, err := apps.ByName("LU")
	if err != nil {
		return err
	}
	healthy, err := lu.Run(apps.RunConfig{Platform: p, Class: apps.ClassS, Procs: 8})
	if err != nil {
		return fmt.Errorf("experiments: postmortem calibration LU on %s: %w", p.Name, err)
	}
	at := healthy.Elapsed / 2
	plan := faults.DropPlan(seed, drop)
	plan.RailKills = []faults.RailKill{{Rail: 0, At: at}}
	doomed := p.With(cluster.WithFaults(plan), cluster.WithSeed(seed)).
		Named(fmt.Sprintf("%s drop=%g%% +railkill", p.Name, drop*100))
	rec := msgtrace.New(1)
	_, runErr := lu.Run(apps.RunConfig{
		Platform: doomed, Class: apps.ClassS, Procs: 8, MsgTrace: rec,
	})
	if runErr == nil {
		return fmt.Errorf("experiments: postmortem LU on %s survived its rail kill", p.Name)
	}
	fmt.Fprintf(w, "postmortem: LU class S x8 on %s, %g%% drop, link killed at %v\n",
		p.Name, drop*100, at)
	fmt.Fprintf(w, "job failed typed, as planned: %v\n\n", runErr)
	rec.DumpFlight(w)
	fmt.Fprintln(w)
	io.WriteString(w, report.RenderBlame(rec.Analyze(5)))

	f := rec.Analyze(0).Failure
	switch {
	case f == nil:
		return fmt.Errorf("experiments: postmortem on %s: flight recorder never froze", p.Name)
	case f.Rank < 0:
		return fmt.Errorf("experiments: postmortem on %s: failure does not name a rank: %+v", p.Name, f)
	case f.MsgID == 0:
		return fmt.Errorf("experiments: postmortem on %s: failure does not name a message: %+v", p.Name, f)
	}
	return nil
}
