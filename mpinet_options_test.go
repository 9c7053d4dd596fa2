package mpinet

import (
	"testing"

	"mpinet/internal/cluster"
)

// TestFacadeFunctions calls each facade function no other facade test
// reaches and checks its effect: the platform name and setting an option
// derives (or the world field the world-side option sets), the LogGP
// extraction, and a metrics registry wired into a run.
func TestFacadeFunctions(t *testing.T) {
	kill := SwitchKill{Level: 1, Index: 0, At: Millisecond}
	degrade := LinecardDegrade{Level: 0, Index: 1, From: Millisecond, Until: 2 * Millisecond, Drop: 0.5}
	crash := NodeCrash{Node: 1, At: Millisecond}
	topo := func(s cluster.Settings, kind cluster.TopoKind, levels, radix, oversub int) bool {
		return s.Topology != nil && *s.Topology == cluster.TopologySpec{Kind: kind, Levels: levels, Radix: radix, Oversub: oversub}
	}
	for _, c := range []struct {
		fn   string
		opt  Option
		name string // the derived platform's name
		set  func(cluster.Settings, WorldConfig) bool
	}{
		{"OnDemand", OnDemand(), "IBA-OD", func(s cluster.Settings, _ WorldConfig) bool { return s.OnDemand }},
		{"Multicast", Multicast(), "IBA-MC", func(s cluster.Settings, _ WorldConfig) bool { return s.Multicast }},
		{"Crossbar", Crossbar(), "IBA", func(s cluster.Settings, _ WorldConfig) bool {
			return topo(s, cluster.TopoCrossbar, 0, 0, 0)
		}},
		{"FatTree", FatTree(24, 2), "IBA-FT", func(s cluster.Settings, _ WorldConfig) bool {
			return topo(s, cluster.TopoFatTree, 2, 24, 2)
		}},
		{"Clos", Clos(3, 24, 2), "IBA-Clos", func(s cluster.Settings, _ WorldConfig) bool {
			return topo(s, cluster.TopoClos, 3, 24, 2)
		}},
		{"WithRouting", WithRouting(Adaptive), "IBA-adapt", func(s cluster.Settings, _ WorldConfig) bool {
			return s.Routing == Adaptive
		}},
		{"EagerThreshold", EagerThreshold(4096), "IBA-ET", func(s cluster.Settings, _ WorldConfig) bool {
			return s.EagerThreshold == 4096
		}},
		{"WithSeed", WithSeed(7), "IBA", func(s cluster.Settings, _ WorldConfig) bool { return s.Seed == 7 }},
		{"WithSwitchKills", WithSwitchKills(kill), "IBA", func(s cluster.Settings, _ WorldConfig) bool {
			return s.Faults != nil && len(s.Faults.SwitchKills) == 1 && s.Faults.SwitchKills[0] == kill
		}},
		{"WithLinecardDegrades", WithLinecardDegrades(degrade), "IBA", func(s cluster.Settings, _ WorldConfig) bool {
			return s.Faults != nil && len(s.Faults.LinecardDegrades) == 1 && s.Faults.LinecardDegrades[0] == degrade
		}},
		{"WithNodeCrashes", WithNodeCrashes(crash), "IBA", func(s cluster.Settings, _ WorldConfig) bool {
			return s.Faults != nil && len(s.Faults.NodeCrashes) == 1 && s.Faults.NodeCrashes[0] == crash
		}},
		{"WithFaultTolerant", WithFaultTolerant(), "IBA", func(_ cluster.Settings, cfg WorldConfig) bool {
			return cfg.FaultTolerant
		}},
	} {
		p := InfiniBand().With(c.opt)
		var cfg WorldConfig
		cluster.ApplyWorld(&cfg, c.opt)
		if p.Name != c.name || !c.set(p.Settings(), cfg) {
			t.Errorf("%s: platform %q with settings %+v and world %+v", c.fn, p.Name, p.Settings(), cfg)
		}
	}

	if lp := LogP(Myrinet()); lp.Net != "Myri" || lp.L <= 0 || lp.Os <= 0 || lp.G <= 0 {
		t.Errorf("LogP: %v", lp)
	}

	m, tl := NewMetrics(), NewTimeline(3)
	w, err := NewWorld(WorldConfig{Net: Quadrics().New(2), Procs: 2, Metrics: m, Timeline: tl})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(r *Rank) { r.Barrier() }); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Snapshot().Get("engine/events_dispatched"); !ok || v == 0 {
		t.Errorf("NewMetrics: the run recorded %d events (present %v)", v, ok)
	}
	if n := len(tl.Events()); n != 3 {
		t.Errorf("NewTimeline(3): the run kept %d events, want the cap of 3", n)
	}
}
