package nic

import (
	"runtime"
	"testing"

	"mpinet/internal/fabric"
	"mpinet/internal/sim"
)

// routeProbe is the destination set the route-state tests warm: eight peers
// spread over the leaves of a 16-host-per-leaf Clos, one sharing node 0's
// leaf.
var routeProbe = []int{1, 17, 40, 63, 90, 130, 200, 255}

// closEndpoint builds node 0's endpoint on a Clos(3, 24, 2) fabric of the
// given size, driven by the fake model.
func closEndpoint(t *testing.T, nodes int) *Endpoint {
	t.Helper()
	cfg := Config{Nodes: nodes, Clos: &fabric.ClosConfig{Levels: 3, Radix: 24, Oversub: 2}}
	net := New(sim.New(), cfg, &fakeSpec, nil)
	if err := net.ConfigErr(); err != nil {
		t.Fatal(err)
	}
	ep := NewEndpoint(net, 0, &fakeModel{net: net})
	return &ep
}

// TestRouteStateScalesWithPeers: the route state an endpoint builds — its
// peer table and its leaf's route-cache table — grows with the peers it
// routes to, not with the world. Routing to the same eight peers costs the
// same bytes at 256 and at 4096 nodes.
func TestRouteStateScalesWithPeers(t *testing.T) {
	cost := func(nodes int) uint64 {
		ep := closEndpoint(t, nodes)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, dst := range routeProbe {
			ep.route(dst, 0)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := cost(256), cost(4096)
	t.Logf("route state for %d peers: %d B at 256 nodes, %d B at 4096", len(routeProbe), small, large)
	if large*4 > small*5 {
		t.Errorf("routing to %d peers allocated %d B at 4096 nodes vs %d B at 256, want at most 1.25x",
			len(routeProbe), large, small)
	}
}

// TestRouteWarmZeroAlloc: once its peers are resolved, routing a message
// to one of them allocates nothing.
func TestRouteWarmZeroAlloc(t *testing.T) {
	ep := closEndpoint(t, 256)
	for _, dst := range routeProbe {
		ep.route(dst, 0)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, dst := range routeProbe {
			ep.route(dst, 0)
		}
	})
	if allocs != 0 {
		t.Errorf("warm route allocated %.1f times per sweep of %d peers, want 0", allocs, len(routeProbe))
	}
}
