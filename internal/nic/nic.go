// Package nic is the substrate the three NIC models are built on:
// internal/verbs (InfiniBand), internal/gm (Myrinet) and internal/elan
// (Quadrics). It owns everything about a wired network that the paper does
// not use to tell the interconnects apart: the fabric topology, the dev
// plumbing every network exposes, the device verbs (Eager, Control, Bulk)
// with their wire sizes and counters, the shared route sides, and the one
// retry ladder every reliability protocol runs under a fault plan.
//
// A model supplies only what the paper distinguishes:
//
//   - the staged hardware sides of its routes and its cost constants
//     (Model),
//   - its faults.RetryPolicy and protocol name (Spec),
//   - the per-message fields it sets itself (Shaper): verbs' on-demand RC
//     setup stall, Elan's PIO or DMA path variant,
//   - what a message holds from issue until it ends, and how its end
//     reaches the holding NICs (Holder): nothing for VAPI RC, the send
//     token, its SRAM staging and the LANai-absorbed reliability ACK for
//     GM, a command-queue slot for Elan,
//   - what each resend costs its NIC (Resender): the LANai timeout handler
//     for GM, the thread-processor re-issue for Elan.
//
// There is one timing model, run on the network's one engine. Each node's
// device state belongs to its node domain, and every effect on another
// node's state travels as a cross-domain hop of at least one wire flight.
package nic

import (
	"fmt"

	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/metrics"
	"mpinet/internal/msgtrace"
	"mpinet/internal/sim"
	"mpinet/internal/units"
)

// Config is the part of a network's configuration every interconnect
// shares; each model's Config embeds it.
type Config struct {
	// Nodes is the number of hosts attached.
	Nodes int
	// SwitchPorts is the single crossbar's radix (0 = the model's default).
	SwitchPorts int
	// EagerThreshold overrides the MPI implementation's default
	// eager/rendezvous switch point (0 = default); an ablation knob.
	EagerThreshold int64
	// Clos, when non-nil, replaces the single crossbar with a parameterized
	// multi-stage Clos fabric (the redesigned topology API). LinkRate,
	// Crossing and WireLatency zero-values are filled with the model's
	// calibration.
	Clos *fabric.ClosConfig
	// Faults, when non-nil, injects the plan's link/NIC/bus faults and arms
	// the retry ladder.
	Faults *faults.Plan
}

// Spec is a model's fixed description: the names and calibration its
// fabric is wired with, its MPI implementation's eager threshold, and its
// reliability protocol.
type Spec struct {
	// Pkg prefixes configuration errors and panics ("verbs", "gm", "elan").
	Pkg string
	// Clos names the Clos fabric.
	Clos string
	// Ports is the default crossbar radix.
	Ports int
	// Crossing is the crossbar's port-to-port latency. LinkRate, Crossing
	// and WireLatency fill a Clos configuration's zero values; WireLatency
	// is also the network's cross-node latency floor (MinLinkLatency).
	LinkRate    units.BytesPerSecond
	Crossing    sim.Time
	WireLatency sim.Time
	// EagerMax is the default eager/rendezvous switch point.
	EagerMax int64
	// Retry is the reliability protocol's resend policy, and Protocol its
	// name in a faults.LinkError.
	Retry    faults.RetryPolicy
	Protocol string
}

// Net is the shared half of a wired network. A model embeds *Net, which
// gives it the dev.Network methods every model answers the same way:
// Engine, Nodes, MinLinkLatency, Diameter, FaultPlan, ConfigErr,
// AttachTracer and DeadElement.
type Net struct {
	spec *Spec
	eng  *sim.Engine
	cfg  Config
	topo fabric.Topology
	met  *metrics.Registry
	inj  *faults.Injector
	rec  *msgtrace.Recorder
	// rail is the bond rail this network serves (-1 when not bonded), the
	// rail its NIC spans are attributed to.
	rail int8

	// cfgErr carries a topology-validation failure to mpi.NewWorld
	// (ConfigErr); construction itself cannot return an error.
	cfgErr error

	// tails caches the destination sides of routes, shared by every
	// endpoint: it grows with the destinations the network's traffic
	// reaches, one side each, not with the node pairs that talk. A warm
	// lookup does not allocate.
	tails map[tailKey][]fabric.PathStage

	// free holds the network's idle send records (newSend).
	free []*send
}

// tail returns the shared destination side to dst, built by model on
// first use.
func (n *Net) tail(model Model, dst, variant int, down sim.Time) []fabric.PathStage {
	key := tailKey{dst: int32(dst), variant: int32(variant), down: down}
	if t, ok := n.tails[key]; ok {
		return t
	}
	if n.tails == nil {
		n.tails = make(map[tailKey][]fabric.PathStage)
	}
	t := model.Tail(dst, variant, down)
	n.tails[key] = t
	return t
}

// New wires the fabric for cfg: a Clos when cfg.Clos is set, else the
// model's single crossbar, which panics when the nodes outnumber its ports.
// An invalid Clos, or a fault plan that kills fabric elements of anything
// but a Clos, rides the network as its ConfigErr.
func New(eng *sim.Engine, cfg Config, spec *Spec) *Net {
	if cfg.Nodes < 1 {
		panic(spec.Pkg + ": need at least one node")
	}
	if cfg.SwitchPorts == 0 {
		cfg.SwitchPorts = spec.Ports
	}
	n := &Net{spec: spec, eng: eng, cfg: cfg, inj: faults.NewInjector(cfg.Faults), rail: -1}
	switch {
	case cfg.Clos != nil:
		cc := *cfg.Clos
		if cc.LinkRate == 0 {
			cc.LinkRate = spec.LinkRate
		}
		if cc.Crossing == 0 {
			cc.Crossing = spec.Crossing
		}
		if cc.WireLatency == 0 {
			cc.WireLatency = spec.WireLatency
		}
		topo, err := fabric.NewClos(spec.Clos, cc, cfg.Nodes)
		if err != nil {
			n.cfgErr = fmt.Errorf("%s: %w", spec.Pkg, err)
			break
		}
		n.topo = topo
		if cfg.Faults.HasElements() {
			// Element deaths move routes between planes as they are detected
			// and repaired; a message's route takes its segment from the
			// fabric at send time, so a re-hash never meets a stale path.
			if err := topo.SetElementFaults(cfg.Faults); err != nil {
				n.cfgErr = fmt.Errorf("%s: %w", spec.Pkg, err)
			}
		}
	default:
		if cfg.Nodes > cfg.SwitchPorts {
			panic(fmt.Sprintf("%s: %d nodes exceed %d switch ports", spec.Pkg, cfg.Nodes, cfg.SwitchPorts))
		}
		n.topo = fabric.NewCrossbarTopology(spec.Crossing)
	}
	if cfg.Faults.HasElements() && cfg.Clos == nil {
		n.cfgErr = fmt.Errorf("%s: fault plan schedules fabric-element deaths but the topology is not a Clos", spec.Pkg)
	}
	n.announceElementDeaths()
	return n
}

// announceElementDeaths schedules one FlightElementDown incident per
// switch kill at its death instant, so a postmortem names the dead element
// even when no packet happened to ride it. Node crashes are announced by
// the MPI layer, which owns rank death; emitting them here too would
// duplicate the incident on every rail of a bond.
func (n *Net) announceElementDeaths() {
	p := n.inj.Plan()
	if !p.HasElements() || n.cfgErr != nil || n.cfg.Clos == nil {
		return
	}
	uplinks := n.cfg.Clos.Uplinks()
	for _, k := range p.SwitchKills {
		code := msgtrace.ElemCode(msgtrace.ElemLeaf, k.Index)
		if k.Level >= 1 {
			code = msgtrace.ElemCode(msgtrace.ElemPlane, k.Index%uplinks)
		}
		at, repair := k.At, int64(k.RepairAt)
		c := code
		n.eng.At(at, func() {
			n.rec.Flight(msgtrace.FlightElementDown, at, -1, 0, msgtrace.StageHop, c, repair)
		})
	}
}

// Engine implements dev.Network.
func (n *Net) Engine() *sim.Engine { return n.eng }

// Nodes implements dev.Network.
func (n *Net) Nodes() int { return n.cfg.Nodes }

// MinLinkLatency implements dev.Network: no message leaves a node
// and lands on another in less than one wire hop, whatever the protocol
// stacked above adds.
func (n *Net) MinLinkLatency() sim.Time { return n.spec.WireLatency }

// FaultPlan implements dev.Network (nil when faults are off).
func (n *Net) FaultPlan() *faults.Plan { return n.inj.Plan() }

// Diameter implements dev.Network.
func (n *Net) Diameter() int { return n.topo.Diameter() }

// DeadElement implements dev.Network: forwarded to the fabric, which knows
// which of the plan's element kills is in effect.
func (n *Net) DeadElement(now sim.Time) (string, int64, bool) {
	return n.topo.DeadElement(now)
}

// AttachTracer implements dev.Network.
func (n *Net) AttachTracer(rec *msgtrace.Recorder, rail int8) { n.rec, n.rail = rec, rail }

// ConfigErr implements dev.Network.
func (n *Net) ConfigErr() error { return n.cfgErr }

// Metrics returns the registry the network was instrumented with (nil
// when metrics are off).
func (n *Net) Metrics() *metrics.Registry { return n.met }

// InstrumentFabric binds the registry that endpoints created afterwards
// count into, and registers the fabric's and the fault injector's
// counters. A crossbar carries its output contention on the destination's
// down-link and has no stage of its own to register; multi-stage fabrics
// register their leaf-tier links.
func (n *Net) InstrumentFabric(m *metrics.Registry) {
	n.met = m
	n.topo.Instrument(m)
	n.inj.Instrument(m)
}
