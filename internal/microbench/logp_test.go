package microbench

import (
	"strings"
	"testing"

	"mpinet/internal/cluster"
)

func TestLogPParameters(t *testing.T) {
	params := map[string]LogPParams{}
	for _, p := range cluster.OSU() {
		params[p.Name] = LogP(p)
	}
	// Overheads follow the paper's ordering: Myri < IBA < QSN.
	if !(params["Myri"].Os+params["Myri"].Or < params["IBA"].Os+params["IBA"].Or) {
		t.Errorf("overhead ordering Myri < IBA violated: %+v %+v", params["Myri"], params["IBA"])
	}
	if !(params["IBA"].Os+params["IBA"].Or < params["QSN"].Os+params["QSN"].Or) {
		t.Errorf("overhead ordering IBA < QSN violated")
	}
	// Quadrics has the lowest wire latency L.
	if !(params["QSN"].L < params["IBA"].L && params["QSN"].L < params["Myri"].L) {
		t.Errorf("QSN should have the lowest L: IBA=%.2f Myri=%.2f QSN=%.2f",
			params["IBA"].L, params["Myri"].L, params["QSN"].L)
	}
	// Gap ordering mirrors bandwidth: IBA lowest G.
	if !(params["IBA"].G < params["QSN"].G && params["QSN"].G < params["Myri"].G) {
		t.Errorf("G ordering violated: %+v", params)
	}
	for name, p := range params {
		if p.L <= 0 || p.Os <= 0 || p.Gm <= 0 {
			t.Errorf("%s: non-positive parameters %+v", name, p)
		}
		if !strings.Contains(p.String(), name) {
			t.Errorf("String() missing network name: %q", p.String())
		}
	}
}

func TestLogPConsistentWithLatency(t *testing.T) {
	// L + os + or must approximate the measured one-way small-message
	// latency.
	for _, p := range cluster.OSU() {
		lp := LogP(p)
		lat := Latency(p, []int64{8}).Y[0]
		sum := lp.L + lp.Os + lp.Or
		if sum < lat*0.85 || sum > lat*1.15 {
			t.Errorf("%s: L+os+or = %.2f vs measured latency %.2f", p.Name, sum, lat)
		}
	}
}

func TestIncastBoundedByReceiver(t *testing.T) {
	// Aggregate incast goodput cannot exceed the uni-directional peak
	// (one down-link drains it), and must come close for large messages.
	for _, tc := range []struct {
		p    cluster.Platform
		peak float64
	}{
		{cluster.IBA(), 841}, {cluster.Myri(), 235}, {cluster.QSN(), 308},
	} {
		rate := Incast(tc.p, 5, 4, 256*1024)
		if rate > tc.peak*1.1 {
			t.Errorf("%s incast %.0f MB/s exceeds the link peak %.0f", tc.p.Name, rate, tc.peak)
		}
		if rate < tc.peak*0.5 {
			t.Errorf("%s incast %.0f MB/s implausibly far below the peak %.0f", tc.p.Name, rate, tc.peak)
		}
	}
}

func TestIncastSmallMessagesProcessingBound(t *testing.T) {
	// Once the receiver is the bottleneck, doubling the sender count must
	// not double the aggregate small-message rate (its per-message
	// processing saturates).
	for _, p := range cluster.OSU() {
		three := Incast(p, 4, 3, 64)
		seven := Incast(p, 8, 7, 64) // 8 nodes: the full switch
		if seven > three*1.8 {
			t.Errorf("%s: small-message incast kept scaling (%.1f -> %.1f MB/s): receiver costs missing",
				p.Name, three, seven)
		}
	}
}
