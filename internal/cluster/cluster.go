// Package cluster defines the testbed configurations of the paper as
// reusable platform factories: the 8-node OSU cluster wired with each of the
// three interconnects, the InfiniBand-on-PCI variant of Section 4.7, and the
// 16-node Topspin InfiniBand cluster of Section 4.2.
//
// Platforms compose through functional options: a Platform value carries a
// Settings baseline, and With derives a variant (InfiniBand on plain PCI is
// IBA().With(PCIBus())). One option, WithFaultTolerant, sets a field of the
// MPI world instead; ApplyWorld applies it, so one option list serves both.
// Every other world setting is a field of mpi.Config. Of the historical
// one-off constructors only Topspin and IBAFatTree remain, as thin
// deprecated wrappers over the options.
package cluster

import (
	"fmt"

	"mpinet/internal/bus"
	"mpinet/internal/dev"
	"mpinet/internal/elan"
	"mpinet/internal/fabric"
	"mpinet/internal/faults"
	"mpinet/internal/gm"
	"mpinet/internal/nic"
	"mpinet/internal/rail"
	"mpinet/internal/sim"
	"mpinet/internal/verbs"
)

// Settings is the resolved platform-side option set a network is wired
// from. Knobs a given interconnect does not implement (PCI and on-demand
// connections are InfiniBand-only, for example) are silently ignored by
// the other builders, mirroring how the real libraries expose different
// tunables.
type Settings struct {
	// PCI forces the 64-bit/66 MHz PCI bus instead of PCI-X (verbs only).
	PCI bool
	// OnDemand enables on-demand RC connection management (verbs only).
	OnDemand bool
	// Multicast enables hardware multicast collectives (verbs only).
	Multicast bool
	// EagerThreshold overrides the implementation's eager/rendezvous switch
	// point (0 = implementation default).
	EagerThreshold int64
	// SwitchPorts overrides the switch radix (0 = platform default).
	SwitchPorts int
	// Faults, when non-nil, is the fault-injection plan the network runs
	// under (see internal/faults).
	Faults *faults.Plan
	// Seed, when non-zero, overrides the fault plan's seed — the handle
	// the -seed CLI flag turns.
	Seed uint64
	// RailPolicy selects the bond's degraded-mode policy (bonded platforms
	// only; see Bond).
	RailPolicy rail.Policy
	// Topology, when non-nil, selects a parameterized fabric from the
	// topology option family (Crossbar, FatTree, Clos); nil keeps the
	// platform's classic single crossbar.
	Topology *TopologySpec
	// Routing selects the multi-stage fabric's path policy (WithRouting);
	// inert on crossbar fabrics.
	Routing fabric.Routing
}

// TopoKind enumerates the parameterized fabrics of the topology API.
type TopoKind int

const (
	// TopoCrossbar is the single-crossbar star, with the switch radix grown
	// to the node count.
	TopoCrossbar TopoKind = iota
	// TopoFatTree is the two-level folded Clos (leaf/spine).
	TopoFatTree
	// TopoClos is the general multi-level folded Clos.
	TopoClos
)

// TopologySpec is the resolved fabric selection of the topology option
// family: which fabric, and its dimensions.
type TopologySpec struct {
	Kind    TopoKind
	Levels  int // switching levels (Clos; FatTree pins 2)
	Radix   int // ports per switching element
	Oversub int // leaf oversubscription ratio N in N:1
}

// optionName renders the option call this spec came from, for ConfigError.
func (t *TopologySpec) optionName() string {
	switch t.Kind {
	case TopoCrossbar:
		return "Crossbar()"
	case TopoFatTree:
		return fmt.Sprintf("FatTree(%d, %d)", t.Radix, t.Oversub)
	default:
		return fmt.Sprintf("Clos(%d, %d, %d)", t.Levels, t.Radix, t.Oversub)
	}
}

// validate checks the spec's dimensions, wrapping the fabric-level report
// into a ConfigError that names the offending option call.
func (t *TopologySpec) validate() error {
	if t.Kind == TopoCrossbar {
		return nil
	}
	cc := fabric.ClosConfig{Levels: t.Levels, Radix: t.Radix, Oversub: t.Oversub}
	if err := cc.Validate(); err != nil {
		return &ConfigError{Option: t.optionName(), Reason: err.Error()}
	}
	return nil
}

// closConfig assembles the device-facing fabric configuration (rates and
// latencies stay zero: each interconnect fills its own calibration).
func (t *TopologySpec) closConfig(s Settings) *fabric.ClosConfig {
	return &fabric.ClosConfig{
		Levels:  t.Levels,
		Radix:   t.Radix,
		Oversub: t.Oversub,
		Routing: s.Routing,
		Seed:    s.Seed,
	}
}

// ConfigError reports an invalid platform option combination, named after
// the option call that produced it (the same typed-validation style the
// options of internal/faults use). Platform.New cannot return an error, so
// the value rides the built network as its ConfigErr and surfaces from
// mpi.NewWorld.
type ConfigError struct {
	Option string // the option call, e.g. "FatTree(24, 3)"
	Reason string // what is wrong with it
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("cluster: invalid %s: %s", e.Option, e.Reason)
}

// Routing policy values, re-exported so platform callers need not import
// the fabric package.
const (
	Deterministic = fabric.Deterministic
	Adaptive      = fabric.Adaptive
)

// plan resolves the effective fault plan: a copy of Faults with the Seed
// override applied, or nil when faults are off.
func (s Settings) plan() *faults.Plan {
	if s.Faults == nil {
		return nil
	}
	p := *s.Faults
	if s.Seed != 0 {
		p.Seed = s.Seed
	}
	return &p
}

// Platform is a buildable interconnect testbed: a name, a Settings
// baseline, and the interconnect-specific builder. Platform is a value
// type — With and Named return derived copies, so predefined platforms are
// never mutated. Builders take the engine from outside so composite
// platforms (Bond) can wire several fabrics onto one shared engine.
type Platform struct {
	Name  string
	base  Settings
	build func(eng *sim.Engine, nodes int, s Settings) dev.Network
}

// New returns a freshly wired network (with its own simulation engine) of
// the given node count, configured per the platform's settings.
func (p Platform) New(nodes int) dev.Network {
	s := p.base
	if s.Topology != nil {
		if err := s.Topology.validate(); err != nil {
			return errNetwork{eng: sim.New(), err: err}
		}
	}
	return p.build(sim.New(), nodes, s)
}

// errNetwork is the network a misconfigured platform builds: it carries the
// validation failure for mpi.NewWorld to surface (ConfigErr) and answers
// the read-only Engine and Nodes; every other dev.Network method reaches
// the nil embedded interface and panics.
type errNetwork struct {
	dev.Network
	eng *sim.Engine
	err error
}

func (n errNetwork) Engine() *sim.Engine { return n.eng }
func (n errNetwork) Nodes() int          { return 0 }
func (n errNetwork) ConfigErr() error    { return n.err }

// With derives a variant platform with the options' platform-side effects
// applied. Options that carry a name suffix (PCIBus -> "-PCI") extend the
// platform name so derived variants stay distinguishable in reports.
func (p Platform) With(opts ...Option) Platform {
	d := p
	for _, o := range opts {
		if o.platform != nil {
			o.platform(&d.base)
		}
		d.Name += o.suffix
	}
	return d
}

// Named returns a copy of the platform under a different report name.
func (p Platform) Named(name string) Platform {
	p.Name = name
	return p
}

// Settings exposes the resolved baseline (for tests and diagnostics).
func (p Platform) Settings() Settings { return p.base }

// WorldSetter is the slice of the MPI world configuration an Option may
// adjust; *mpi.Config implements it. It is an interface rather than the
// concrete type so this package does not import mpi (whose own tests build
// platforms from here).
type WorldSetter interface {
	SetFaultTolerant(bool)
}

// Option is one functional option. An option acts on the platform (network
// wiring) or, for WithFaultTolerant, on the MPI world configuration.
type Option struct {
	suffix   string
	platform func(*Settings)
	world    func(WorldSetter)
}

// ApplyWorld applies the world-side effect of each option to cfg.
// Platform-only options are no-ops here, so callers can pass one option
// list to both Platform.With and ApplyWorld.
func ApplyWorld(cfg WorldSetter, opts ...Option) {
	for _, o := range opts {
		if o.world != nil {
			o.world(cfg)
		}
	}
}

// PCIBus forces the plain 64-bit/66 MHz PCI bus of the Figure 26–28
// comparison (verbs only).
func PCIBus() Option {
	return Option{suffix: "-PCI", platform: func(s *Settings) { s.PCI = true }}
}

// OnDemand enables on-demand RC connection management (Section 3.8).
func OnDemand() Option {
	return Option{suffix: "-OD", platform: func(s *Settings) { s.OnDemand = true }}
}

// Multicast enables the hardware-collective extension (Section 3.7).
func Multicast() Option {
	return Option{suffix: "-MC", platform: func(s *Settings) { s.Multicast = true }}
}

// Crossbar pins the platform to its single-crossbar fabric explicitly
// through the topology API. Unlike the implicit default, the switch radix
// grows with the node count instead of refusing past the paper's port
// count.
func Crossbar() Option {
	return Option{platform: func(s *Settings) {
		s.Topology = &TopologySpec{Kind: TopoCrossbar}
	}}
}

// FatTree replaces the single crossbar with a two-level folded-Clos
// (leaf/spine) fabric built from radix-port elements at the given
// oversubscription ratio. FatTree(24, 2) has 16 hosts and 8 up-links per
// leaf.
func FatTree(radix, oversub int) Option {
	return Option{suffix: "-FT", platform: func(s *Settings) {
		s.Topology = &TopologySpec{Kind: TopoFatTree, Levels: 2, Radix: radix, Oversub: oversub}
	}}
}

// Clos generalizes FatTree to deeper fabrics: levels switching levels of
// radix-port elements with the given leaf oversubscription — the shape of
// thousand-rank clusters that outgrow one spine tier.
func Clos(levels, radix, oversub int) Option {
	return Option{suffix: "-Clos", platform: func(s *Settings) {
		s.Topology = &TopologySpec{Kind: TopoClos, Levels: levels, Radix: radix, Oversub: oversub}
	}}
}

// WithRouting selects the multi-stage fabric's path policy: Deterministic
// ECMP (the default) or Adaptive dispersive routing. Adaptive variants
// carry a "-adapt" name suffix so reports distinguish the two models;
// inert on crossbar fabrics.
func WithRouting(r fabric.Routing) Option {
	suffix := ""
	if r == fabric.Adaptive {
		suffix = "-adapt"
	}
	return Option{suffix: suffix, platform: func(s *Settings) { s.Routing = r }}
}

// EagerThreshold overrides the eager/rendezvous protocol switch point —
// the ablation knob behind the Figure 2 protocol-dip study.
func EagerThreshold(threshold int64) Option {
	return Option{suffix: "-ET", platform: func(s *Settings) { s.EagerThreshold = threshold }}
}

// SwitchPorts overrides the switch radix (no name suffix: radix variants
// name themselves, as Topspin does).
func SwitchPorts(ports int) Option {
	return Option{platform: func(s *Settings) { s.SwitchPorts = ports }}
}

// WithFaults runs the platform under the given fault plan and arms the MPI
// watchdog (at faults.DefaultTimeout unless mpi.Config.Timeout overrides
// it), so a faulty run terminates with a typed error instead of hanging.
func WithFaults(plan *faults.Plan) Option {
	return Option{platform: func(s *Settings) { s.Faults = plan }}
}

// clonePlan returns a shallow copy of the plan (a fresh empty plan when
// nil), so the chaining fault options below never mutate a caller-owned
// value shared across platform variants.
func clonePlan(p *faults.Plan) *faults.Plan {
	if p == nil {
		return &faults.Plan{}
	}
	cp := *p
	return &cp
}

// WithSwitchKills adds switching-element deaths to the platform's fault
// plan (creating one if WithFaults was not given), arming the fabric's
// self-healing path: after the plan's detection delay, deterministic ECMP
// re-hashes around the dead element and adaptive routing stops scanning it.
func WithSwitchKills(kills ...faults.SwitchKill) Option {
	return Option{platform: func(s *Settings) {
		p := clonePlan(s.Faults)
		p.SwitchKills = append(append([]faults.SwitchKill(nil), p.SwitchKills...), kills...)
		s.Faults = p
	}}
}

// WithLinecardDegrades adds partial switching-element degradations (a drop
// probability on one element's ports over a window) to the fault plan.
func WithLinecardDegrades(degrades ...faults.LinecardDegrade) Option {
	return Option{platform: func(s *Settings) {
		p := clonePlan(s.Faults)
		p.LinecardDegrades = append(append([]faults.LinecardDegrade(nil), p.LinecardDegrades...), degrades...)
		s.Faults = p
	}}
}

// WithNodeCrashes adds host deaths to the fault plan: the node's links
// black-hole from the crash instant, and the MPI ranks on it die — see
// mpi.Config.FaultTolerant (WithFaultTolerant) for how the survivors learn.
func WithNodeCrashes(crashes ...faults.NodeCrash) Option {
	return Option{platform: func(s *Settings) {
		p := clonePlan(s.Faults)
		p.NodeCrashes = append(append([]faults.NodeCrash(nil), p.NodeCrashes...), crashes...)
		s.Faults = p
	}}
}

// WithFaultTolerant arms ULFM-style rank-death notification in the MPI
// world: pending point-to-point operations on a crashed peer complete with
// Status.Err set instead of aborting the job.
func WithFaultTolerant() Option {
	return Option{world: func(c WorldSetter) { c.SetFaultTolerant(true) }}
}

// WithSeed overrides the fault plan's seed and drives the adaptive-routing
// tie-break PRNG; with neither a plan nor adaptive routing it is inert.
func WithSeed(seed uint64) Option {
	return Option{platform: func(s *Settings) { s.Seed = seed }}
}

// WithRailPolicy selects a bonded platform's degraded-mode policy
// (rail.Failover or rail.Stripe). Stripe bonds get a "-stripe" name suffix
// so reports distinguish the two; Failover is the default and keeps the
// plain bond name. Inert on solo platforms.
func WithRailPolicy(p rail.Policy) Option {
	suffix := ""
	if p == rail.Stripe {
		suffix = "-stripe"
	}
	return Option{suffix: suffix, platform: func(s *Settings) { s.RailPolicy = p }}
}

// WithShards does nothing: every world runs on one serial engine.
//
// Deprecated: kept only so the benchmark module builds; it goes with
// ROADMAP item 2's benchmark change.
func WithShards(int) Option { return Option{} }

// nicConfig resolves the configuration fields every interconnect shares
// over a builder's defaults: the eager-threshold and radix overrides, the
// topology-API fabric, and the fault plan.
func (s Settings) nicConfig(c nic.Config) nic.Config {
	c.EagerThreshold = s.EagerThreshold
	if s.SwitchPorts > 0 {
		c.SwitchPorts = s.SwitchPorts
	}
	if s.Topology != nil {
		if s.Topology.Kind == TopoCrossbar {
			if c.SwitchPorts < c.Nodes {
				c.SwitchPorts = c.Nodes
			}
		} else {
			c.Clos = s.Topology.closConfig(s)
		}
	}
	c.Faults = s.plan().Flatten(0)
	return c
}

// buildIBA wires the InfiniBand testbed from settings.
func buildIBA(eng *sim.Engine, nodes int, s Settings) dev.Network {
	cfg := verbs.DefaultConfig(nodes)
	cfg.Config = s.nicConfig(cfg.Config)
	if s.PCI {
		cfg.Bus = bus.PCI64x66
	}
	cfg.OnDemandConnections = s.OnDemand
	cfg.HWMulticast = s.Multicast
	return verbs.New(eng, cfg)
}

// buildMyri wires the Myrinet testbed from settings.
func buildMyri(eng *sim.Engine, nodes int, s Settings) dev.Network {
	cfg := gm.DefaultConfig(nodes)
	cfg.Config = s.nicConfig(cfg.Config)
	return gm.New(eng, cfg)
}

// buildQSN wires the Quadrics testbed from settings.
func buildQSN(eng *sim.Engine, nodes int, s Settings) dev.Network {
	cfg := elan.DefaultConfig(nodes)
	cfg.Config = s.nicConfig(cfg.Config)
	return elan.New(eng, cfg)
}

// IBA is InfiniBand on PCI-X with the 8-port InfiniScale switch (the
// paper's primary InfiniBand platform).
func IBA() Platform { return Platform{Name: "IBA", build: buildIBA} }

// Myri is Myrinet-2000 with GM.
func Myri() Platform { return Platform{Name: "Myri", build: buildMyri} }

// QSN is the Quadrics QsNet (Elan3 + Elite-16).
func QSN() Platform { return Platform{Name: "QSN", build: buildQSN} }

// OSU returns the three interconnects of the 8-node OSU testbed, in the
// paper's ordering.
func OSU() []Platform {
	return []Platform{IBA(), Myri(), QSN()}
}

// Bond wires 2-3 member platforms as the rails of one bonded channel
// (internal/rail): the paper's testbed carries all three interconnects in
// every node, and Bond(IBA(), Myri()) models actually using two of them at
// once — rail 0 is the primary, the rest fail over (or stripe, with
// WithRailPolicy) in declaration order.
//
// All member fabrics share one simulation engine. Each member keeps its
// own platform settings (Bond(IBA().With(PCIBus()), Myri()) works); the
// bond-level options govern faults and rail policy: the bond's fault plan
// is flattened per rail (rail-level RailKills/RailDegrades become wildcard
// link entries on the matching member, see faults.Flatten) and rails past
// the primary draw from RailSeed-derived seeds so the two fabrics suffer
// independent packet fates. A fault plan set directly on a member platform
// is overridden — the bond's plan is the single source of truth.
func Bond(primary Platform, others ...Platform) Platform {
	members := append([]Platform{primary}, others...)
	name := ""
	for i, m := range members {
		if i > 0 {
			name += "+"
		}
		name += m.Name
	}
	return Platform{
		Name: name,
		build: func(eng *sim.Engine, nodes int, s Settings) dev.Network {
			plan := s.plan()
			rails := make([]dev.Network, len(members))
			for i, m := range members {
				ms := m.base
				if ms.Topology == nil {
					// Bond-level fabric choice applies to every rail.
					ms.Topology = s.Topology
					ms.Routing = s.Routing
				}
				if ms.EagerThreshold == 0 {
					ms.EagerThreshold = s.EagerThreshold
				}
				if ms.SwitchPorts == 0 {
					ms.SwitchPorts = s.SwitchPorts
				}
				ms.Faults, ms.Seed = nil, 0
				if mp := plan.Flatten(i); mp != nil {
					cp := *mp
					cp.Seed = faults.RailSeed(cp.Seed, i)
					ms.Faults = &cp
				}
				rails[i] = m.build(eng, nodes, ms)
				// A member's own fabric choice is validated here, as New
				// validates a solo platform's: the typed error names the
				// member's rail.
				if ms.Topology != nil {
					if err := ms.Topology.validate(); err != nil {
						return errNetwork{eng: eng, err: fmt.Errorf("rail %d (%s): %w", i, rails[i].Name(), err)}
					}
				}
			}
			return rail.New(eng, s.RailPolicy, plan, rails...)
		},
	}
}

// Topspin is the 16-node Topspin InfiniBand cluster with the 24-port
// Topspin 360 switch (Figure 24).
//
// Deprecated: use IBA().With(SwitchPorts(24)).Named("IBA-Topspin").
func Topspin() Platform { return IBA().With(SwitchPorts(24)).Named("IBA-Topspin") }

// IBAFatTree is InfiniBand on a two-level fat tree built from 24-port
// elements (16 hosts and 8 up-links per leaf): the scaling extension for
// clusters larger than one switch. The argument is ignored; the tree is
// sized from the node count passed to New.
//
// Deprecated: use IBA().With(FatTree(24, 2)).
func IBAFatTree(int) Platform { return IBA().With(FatTree(24, 2)) }
