package cluster

import (
	"errors"
	"strings"
	"testing"

	"mpinet/internal/faults"
	"mpinet/internal/units"
)

func TestTopologyOptionNames(t *testing.T) {
	cases := []struct {
		p    Platform
		want string
	}{
		{IBA().With(Crossbar()), "IBA"},
		{IBA().With(FatTree(24, 2)), "IBA-FT"},
		{Myri().With(Clos(3, 24, 2)), "Myri-Clos"},
		{QSN().With(FatTree(16, 1), WithRouting(Adaptive)), "QSN-FT-adapt"},
	}
	for _, c := range cases {
		if c.p.Name != c.want {
			t.Errorf("platform name = %q, want %q", c.p.Name, c.want)
		}
	}
}

func TestInvalidTopologySurfacesConfigError(t *testing.T) {
	// 25 ports cannot split 2:1; the builder cannot return an error, so the
	// network must carry a typed ConfigError naming the option call.
	net := IBA().With(FatTree(25, 2)).New(8)
	if net.ConfigErr() == nil {
		t.Fatal("invalid FatTree built a usable network")
	}
	var cfgErr *ConfigError
	if !errors.As(net.ConfigErr(), &cfgErr) {
		t.Fatalf("error type %T, want *ConfigError", net.ConfigErr())
	}
	if cfgErr.Option != "FatTree(25, 2)" {
		t.Errorf("Option = %q, want the offending call", cfgErr.Option)
	}
	if !strings.Contains(cfgErr.Error(), "cluster: invalid FatTree(25, 2)") {
		t.Errorf("message = %q", cfgErr.Error())
	}
	// The stub still satisfies the network interface without panicking on
	// the read-only methods NewWorld touches first.
	if net.Nodes() != 0 || net.Engine() == nil {
		t.Fatal("error network stub misbehaves")
	}
}

func TestValidTopologiesBuild(t *testing.T) {
	for _, p := range []Platform{
		IBA().With(Crossbar()),
		IBA().With(FatTree(24, 2)),
		Myri().With(Clos(2, 8, 1)),
		QSN().With(Clos(3, 24, 2), WithRouting(Adaptive)),
	} {
		net := p.New(32)
		if err := net.ConfigErr(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if net.Nodes() < 32 {
			t.Fatalf("%s wired %d nodes", p.Name, net.Nodes())
		}
	}
}

// IBAFatTree is the FatTree(24, 2) platform: it wires exactly the node
// count passed to New, whatever its own argument says.
func TestIBAFatTreeHonorsNodeCount(t *testing.T) {
	for _, n := range []int{4, 64} {
		if got := IBAFatTree(64).New(n).Nodes(); got != n {
			t.Fatalf("IBAFatTree(64).New(%d) wired %d nodes", n, got)
		}
	}
	ft, want := IBAFatTree(16), IBA().With(FatTree(24, 2))
	if ft.Name != want.Name || *ft.Settings().Topology != *want.Settings().Topology {
		t.Fatalf("IBAFatTree = %s %+v, want %s %+v", ft.Name, ft.Settings().Topology, want.Name, want.Settings().Topology)
	}
}

// TestBadElementFaultSurfacesConfigError: an element fault the fabric
// cannot host fails the network typed, degrades as well as kills.
func TestBadElementFaultSurfacesConfigError(t *testing.T) {
	for i, opt := range []Option{
		WithSwitchKills(faults.SwitchKill{Level: 1, Index: -1, At: units.Millisecond}),
		WithLinecardDegrades(faults.LinecardDegrade{Level: 5, Index: 99, Until: units.Millisecond, Drop: 0.1}),
		WithLinecardDegrades(faults.LinecardDegrade{Level: 0, Index: 1, Until: units.Millisecond, Drop: 7}),
	} {
		if IBA().With(Clos(2, 8, 1), opt).New(8).ConfigErr() == nil {
			t.Errorf("bad element fault %d built a usable network", i)
		}
	}
}
