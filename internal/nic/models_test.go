package nic_test

import (
	"math"
	"testing"

	"mpinet/internal/bus"
	"mpinet/internal/dev"
	"mpinet/internal/elan"
	"mpinet/internal/gm"
	"mpinet/internal/nic"
	"mpinet/internal/sim"
	"mpinet/internal/units"
	"mpinet/internal/verbs"
)

// models holds the three interconnects built on the substrate, each with
// the expectations the substrate-wide tests check.
var models = []struct {
	name      string
	ports     int   // default crossbar radix
	shmem     int64 // ShmemPolicy's threshold: the MPI's intra-node channel policy
	resources int   // Utilizations entries per node
	build     func(cfg nic.Config) dev.Network
}{
	{"IBA", 8, 16 * units.KB, 5, func(cfg nic.Config) dev.Network { // bus, tx, rx, up, down
		return verbs.New(sim.New(), verbs.Config{Config: cfg, Bus: bus.PCIX64x133})
	}},
	{"Myri", 8, math.MaxInt64, 6, func(cfg nic.Config) dev.Network { // bus, lanai, sdma, rdma, up, down
		return gm.New(sim.New(), gm.Config{Config: cfg})
	}},
	{"QSN", 16, 0, 6, func(cfg nic.Config) dev.Network { // bus, elanproc, dma-tx, dma-rx, up, down
		return elan.New(sim.New(), elan.Config{Config: cfg})
	}},
}

func TestNetworkBasics(t *testing.T) {
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			n := m.build(nic.Config{Nodes: 8})
			if n.Name() != m.name || n.Nodes() != 8 {
				t.Fatalf("name=%q nodes=%d", n.Name(), n.Nodes())
			}
			if below, _ := n.ShmemPolicy(); below != m.shmem {
				t.Fatalf("ShmemPolicy threshold = %d, want %d", below, m.shmem)
			}
		})
	}
}

func TestTooManyNodesPanics(t *testing.T) {
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%d nodes on a %d-port switch did not panic", m.ports+1, m.ports)
				}
			}()
			m.build(nic.Config{Nodes: m.ports + 1})
		})
	}
}

func TestEagerThresholdOverride(t *testing.T) {
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			n := m.build(nic.Config{Nodes: 2, EagerThreshold: 64 * units.KB})
			if got := n.NewEndpoint(0).EagerThreshold(); got != 64*units.KB {
				t.Fatalf("threshold = %d", got)
			}
		})
	}
}

func TestUtilizations(t *testing.T) {
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			n := m.build(nic.Config{Nodes: 2})
			n.NewEndpoint(0).Eager(1, 4096, 0, func(error) {})
			if err := n.Engine().Run(); err != nil {
				t.Fatal(err)
			}
			us := n.Utilizations()
			if len(us) != 2*m.resources {
				t.Fatalf("utilization entries = %d, want %d", len(us), 2*m.resources)
			}
			var busy sim.Time
			for _, u := range us {
				busy += u.Busy
			}
			if busy <= 0 {
				t.Fatal("no busy time recorded")
			}
		})
	}
}
