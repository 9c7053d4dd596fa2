package cluster

import (
	"testing"

	"mpinet/internal/sim"
	"mpinet/internal/units"
)

func TestOSUPlatforms(t *testing.T) {
	ps := OSU()
	if len(ps) != 3 {
		t.Fatalf("OSU returns %d platforms", len(ps))
	}
	wantNames := []string{"IBA", "Myri", "QSN"}
	for i, p := range ps {
		if p.Name != wantNames[i] {
			t.Errorf("platform %d = %q, want %q", i, p.Name, wantNames[i])
		}
		n := p.New(8)
		if n.Nodes() != 8 {
			t.Errorf("%s: nodes = %d", p.Name, n.Nodes())
		}
		if n.Name() != p.Name {
			t.Errorf("%s: network name %q", p.Name, n.Name())
		}
	}
}

func TestFreshEnginesPerBuild(t *testing.T) {
	p := IBA()
	a, b := p.New(2), p.New(2)
	if a.Engine() == b.Engine() {
		t.Fatal("platforms must wire independent engines")
	}
}

func TestTopspinScales(t *testing.T) {
	n := Topspin().New(16)
	if n.Nodes() != 16 {
		t.Fatalf("Topspin nodes = %d", n.Nodes())
	}
	if n.Name() != "IBA" {
		t.Fatalf("Topspin network name = %q (reports as InfiniBand)", n.Name())
	}
}

func TestIBAPCIIsDistinctPlatform(t *testing.T) {
	if IBA().With(PCIBus()).Name != "IBA-PCI" {
		t.Fatal("IBA-PCI platform name")
	}
	// Both variants must wire fine at 8 nodes.
	if IBA().With(PCIBus()).New(8).Nodes() != 8 {
		t.Fatal("IBA-PCI wiring failed")
	}
}

func TestShmemPolicyDiffersAcrossPlatforms(t *testing.T) {
	iba, _ := IBA().New(2).ShmemPolicy()
	myri, _ := Myri().New(2).ShmemPolicy()
	qsn, _ := QSN().New(2).ShmemPolicy()
	if iba != 16*units.KB {
		t.Errorf("IBA shmem policy = %d", iba)
	}
	if myri <= iba {
		t.Error("MPICH-GM should use shared memory at all sizes")
	}
	if qsn != 0 {
		t.Error("Quadrics MPI should never use the shared-memory channel")
	}
}

func TestExtensionPlatforms(t *testing.T) {
	if IBA().With(OnDemand()).New(4).Nodes() != 4 {
		t.Fatal("IBA-OD wiring")
	}
	if IBA().With(Multicast()).New(4).Nodes() != 4 {
		t.Fatal("IBA-MC wiring")
	}
	if IBA().With(EagerThreshold(8192)).New(2).NewEndpoint(0).EagerThreshold() != 8192 {
		t.Fatal("IBA-ET threshold not applied")
	}
	ft := IBAFatTree(48).New(48)
	if ft.Nodes() != 48 {
		t.Fatal("IBA-FT wiring at 48 nodes")
	}
	// Small fat-tree requests still get at least two leaves.
	if IBAFatTree(8).New(8).Nodes() != 8 {
		t.Fatal("IBA-FT wiring at 8 nodes")
	}
}

func TestPlatformNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []Platform{IBA(), IBA().With(PCIBus()), Topspin(), Myri(), QSN(),
		IBA().With(OnDemand()), IBA().With(Multicast()), IBAFatTree(32), IBA().With(EagerThreshold(4096))} {
		if seen[p.Name] {
			t.Fatalf("duplicate platform name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestMinLinkLatencyFromNetwork(t *testing.T) {
	// Each fabric states its own latency floor; the bond takes the fastest
	// member's. The MPI layer times its cross-node FIN hop at this floor.
	la := func(p Platform) sim.Time {
		return p.New(2).MinLinkLatency()
	}
	iba, myri, qsn := la(IBA()), la(Myri()), la(QSN())
	if !(qsn < myri && myri < iba) {
		t.Errorf("lookahead ordering QSN(%v) < Myri(%v) < IBA(%v) violated", qsn, myri, iba)
	}
	if got := la(Bond(IBA(), QSN())); got != qsn {
		t.Errorf("bond lookahead %v, want fastest member %v", got, qsn)
	}
}
