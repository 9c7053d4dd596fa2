package nic

import (
	"errors"
	"testing"

	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// fakeSpec gives the fake model a short ladder: four attempts, 10 us apart.
var fakeSpec = Spec{
	Pkg:         "fake",
	Clos:        "fake-clos",
	Ports:       8,
	LinkRate:    units.BytesPerSecond(1e9),
	Crossing:    100 * units.Nanosecond,
	WireLatency: 100 * units.Nanosecond,
	EagerMax:    1024,
	Retry:       faults.RetryPolicy{Limit: 3, Interval: 10 * units.Microsecond},
	Protocol:    "fake resend",
}

// fakeModel is a model whose path is one counting stage in front of the
// topology's own stages, and which implements every optional hook.
type fakeModel struct {
	net      *Net
	node     int
	attempts int // wire attempts: Send calls on the counting stage
	holds    int
	releases int
	acks     int
	resends  int
}

func (f *fakeModel) Send(now sim.Time, n int64) (start, end sim.Time) {
	f.attempts++
	return now, now + 100*units.Nanosecond
}

func (f *fakeModel) Path(_, _ int, seg fabric.Segment) []fabric.PathStage {
	return append([]fabric.PathStage{{Stage: f}}, seg.Stages...)
}

func (f *fakeModel) Hold(Msg)      { f.holds++ }
func (f *fakeModel) Delivered(Msg) { f.releases++; f.acks++ }
func (f *fakeModel) Aborted(Msg)   { f.releases++ }
func (f *fakeModel) Resend()       { f.resends++ }

// ladderRun is what one message's trip up the ladder left behind.
type ladderRun struct {
	model     *fakeModel
	delivered int
	onRetry   int
	errs      []error
	retries   int64 // node0/nic/retries
	exhausted int64 // node0/nic/retry_exhausted
}

// climb sends one 64-byte message from node 0 to dst under cfg; its
// completion records the delivery or the failure.
func climb(t *testing.T, cfg Config, dst int) ladderRun {
	t.Helper()
	eng := sim.New()
	net := New(eng, cfg, &fakeSpec)
	if err := net.ConfigErr(); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	net.InstrumentFabric(reg)
	r := ladderRun{model: &fakeModel{net: net}}
	ep := NewEndpoint(net, 0, r.model)
	ep.OnRetry(func() { r.onRetry++ })
	ep.Send(Msg{Dst: dst, Size: 64}, func(err error) {
		if err != nil {
			r.errs = append(r.errs, err)
			return
		}
		r.delivered++
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	r.retries = reg.Counter("node0/nic/retries").Value()
	r.exhausted = reg.Counter("node0/nic/retry_exhausted").Value()
	return r
}

func TestRetryLadderTerminalPaths(t *testing.T) {
	const detect = 25 * units.Microsecond
	clos := &fabric.ClosConfig{Levels: 2, Radix: 4, Oversub: 1} // 2 hosts per leaf
	cases := []struct {
		name string
		cfg  Config
		dst  int
		// attempts is the wire attempts made; retries the resends, which
		// is attempts-1 when the last attempt ends the chain and attempts
		// when a dead end detected before the next one does.
		attempts, retries int
		err               error // nil: delivered
	}{
		{
			// The link is down for the first two attempts only.
			name: "deliver",
			cfg: Config{Nodes: 2, Faults: &faults.Plan{
				Flaps: []faults.Flap{{Src: 0, Dst: 1, From: 0, Until: 15 * units.Microsecond}}}},
			dst: 1, attempts: 3, retries: 2,
		},
		{
			name:     "exhausted",
			cfg:      Config{Nodes: 2, Faults: &faults.Plan{Drop: 1}},
			dst:      1,
			attempts: fakeSpec.Retry.Limit + 1, retries: fakeSpec.Retry.Limit,
			err: &faults.LinkError{},
		},
		{
			// Node 1's dark NIC eats three attempts; the fourth try finds
			// its death detected.
			name: "node down",
			cfg: Config{Nodes: 2, Faults: &faults.Plan{
				NodeCrashes: []faults.NodeCrash{{Node: 1, At: 0}}, DetectDelay: detect}},
			dst: 1, attempts: 3, retries: 3,
			err: &faults.NodeDownError{},
		},
		{
			// The destination's leaf black-holes three attempts; the fourth
			// try finds its death detected and no route left.
			name: "partition",
			cfg: Config{Nodes: 4, Clos: clos, Faults: &faults.Plan{
				SwitchKills: []faults.SwitchKill{{Level: 0, Index: 1, At: 0}}, DetectDelay: detect}},
			dst: 2, attempts: 3, retries: 3,
			err: &faults.PartitionError{},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := climb(t, c.cfg, c.dst)
			f := r.model
			if f.attempts != c.attempts || r.onRetry != c.retries || f.resends != c.retries {
				t.Errorf("attempts %d, OnRetry %d, resends %d; want %d, %d, %d",
					f.attempts, r.onRetry, f.resends, c.attempts, c.retries, c.retries)
			}
			if f.holds != 1 || f.releases != 1 {
				t.Errorf("held %d times, released %d times; want once each", f.holds, f.releases)
			}
			if r.retries != int64(c.retries) {
				t.Errorf("nic/retries = %d, want %d", r.retries, c.retries)
			}
			if c.err == nil {
				if r.delivered != 1 || f.acks != 1 || len(r.errs) != 0 || r.exhausted != 0 {
					t.Fatalf("delivered %d, acked %d, errors %v, nic/retry_exhausted %d; want one clean delivery",
						r.delivered, f.acks, r.errs, r.exhausted)
				}
				return
			}
			if r.delivered != 0 || f.acks != 0 || r.exhausted != 1 || len(r.errs) != 1 {
				t.Fatalf("delivered %d, acked %d, nic/retry_exhausted %d, errors %v; want one typed failure",
					r.delivered, f.acks, r.exhausted, r.errs)
			}
			if !sameType(r.errs[0], c.err) {
				t.Fatalf("error %T (%v), want %T", r.errs[0], r.errs[0], c.err)
			}
			if le, ok := r.errs[0].(*faults.LinkError); ok && le.Attempts != c.attempts {
				t.Fatalf("LinkError.Attempts = %d, want %d", le.Attempts, c.attempts)
			}
		})
	}
}

// sameType reports whether err is a faults error of the same type as want.
func sameType(err, want error) bool {
	switch want.(type) {
	case *faults.LinkError:
		var e *faults.LinkError
		return errors.As(err, &e)
	case *faults.NodeDownError:
		var e *faults.NodeDownError
		return errors.As(err, &e)
	case *faults.PartitionError:
		var e *faults.PartitionError
		return errors.As(err, &e)
	}
	return false
}
