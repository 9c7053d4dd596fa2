package nic

import (
	"runtime"
	"testing"

	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/sim"
	"mpinet/internal/units"
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
	net := New(sim.New(), cfg, &fakeSpec)
	if err := net.ConfigErr(); err != nil {
		t.Fatal(err)
	}
	ep := NewEndpoint(net, 0, &fakeModel{net: net})
	return &ep
}

// routeTo resolves, through the send record s, the route of a message
// from ep to dst at time 0.
func routeTo(s *send, ep *Endpoint, dst int) {
	s.e, s.m.Dst = ep, dst
	s.route(0)
}

// TestRouteStateScalesWithPeers: the route state routing builds — the
// endpoint's source side, the network's shared destination sides and the
// leaf's route-cache table — grows with the peers routed to, not with the
// world. Routing to the same eight peers costs the same bytes at 256 and
// at 4096 nodes.
func TestRouteStateScalesWithPeers(t *testing.T) {
	cost := func(nodes int) uint64 {
		ep, s := closEndpoint(t, nodes), new(send)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, dst := range routeProbe {
			routeTo(s, ep, dst)
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
	ep, s := closEndpoint(t, 256), new(send)
	for _, dst := range routeProbe {
		routeTo(s, ep, dst)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, dst := range routeProbe {
			routeTo(s, ep, dst)
		}
	})
	if allocs != 0 {
		t.Errorf("warm route allocated %.1f times per sweep of %d peers, want 0", allocs, len(routeProbe))
	}
}

// TestDynamicRouteZeroAlloc: under per-message routing — adaptive
// dispersion, and adaptive dispersion re-hashed around a dead spine plane —
// a warm route allocates nothing. The fabric picks a plane per message and
// the endpoint serves the path it assembled for that plane from its cache.
func TestDynamicRouteZeroAlloc(t *testing.T) {
	kill := faults.SwitchKill{Level: 1, Index: 3, At: 0, RepairAt: 5 * units.Millisecond}
	for _, tc := range []struct {
		name string
		plan *faults.Plan
	}{
		{"adaptive", nil},
		{"adaptive+element-faults", &faults.Plan{SwitchKills: []faults.SwitchKill{kill}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			cfg := Config{Nodes: 256, Faults: tc.plan,
				Clos: &fabric.ClosConfig{Levels: 3, Radix: 24, Oversub: 2, Routing: fabric.Adaptive}}
			net := New(eng, cfg, &fakeSpec)
			if err := net.ConfigErr(); err != nil {
				t.Fatal(err)
			}
			ep, s := NewEndpoint(net, 0, &fakeModel{net: net}), new(send)
			sweep := func() {
				for _, dst := range routeProbe {
					routeTo(s, &ep, dst)
				}
			}
			// Before detection the dead plane black-holes, after it the
			// routes re-hash around it, after the repair it is back.
			for _, at := range []sim.Time{0, 2 * units.Millisecond, 6 * units.Millisecond} {
				if err := eng.RunUntil(at); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 200; i++ {
					sweep()
				}
				if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
					t.Errorf("at %v: warm route allocated %.1f times per sweep of %d peers, want 0",
						at, allocs, len(routeProbe))
				}
			}
		})
	}
}
