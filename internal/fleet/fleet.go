// Package fleet owns cloud construction: it turns a Config into a fully
// booted PiCloud fleet — fabric wired, every host's row planned and
// registered, pimaster populated — as fast as the hardware allows.
//
// The subsystem is built around three ideas:
//
//   - A node Template: the immutable kernel/suite/image/meter prototype
//     is validated once per board config, with a probe host booted from
//     it, then cheaply stamped per host instead of re-deriving and
//     re-validating 10⁵ times. A host is stamped only when something
//     first touches it (pimaster.NodeRef's accessors): its kernel,
//     meter, LXC suite and daemon in place in one allocation, the meter
//     powered on at the fleet's boot instant and observing the kernel's
//     utilisation, the kernel reading the template's board, not a copy
//     of it. Until then the host is its plan row: the cloud meter sums it
//     as an idle slot and pimaster polls it as the probe's idle status,
//     both reading exactly what the stamped host would.
//   - A construction Plan: every shape-derived value (host names, rack
//     assignments, MACs, static addresses, FQDNs and the FQDN index,
//     pool CIDRs) is computed once per cold build — see plan.go — and
//     is immutable from then on, so the fleets its Snapshot restores
//     share it. The plan also fixes the order the cloud meter sums each
//     rack's energy meters in, the rack's hosts by name, so no fork
//     sorts, and a build sorts once per distinct rack size. The plan
//     keeps the fabric's netsim.Wiring, which the topology builder
//     emits, with the topology and each host's node index: a cold
//     build and a restore both wire their network from it in bulk
//     (netsim.Wire), and a restore runs no topology builder.
//   - Bulk registration: every host's record (pimaster.NodeRef) is
//     written into one slice and enters pimaster through RegisterNodes,
//     its only registration path, together with the fleet's host table:
//     the plan, whose host rows pimaster's DNS and DHCP answer in place,
//     so a build or a fork files no naming record per host, and the
//     template pimaster boots a host from on its first touch. pimaster
//     calls each daemon in process, so boot makes no HTTP request and no
//     JSON round trip.
//
// The package keeps no state between builds: Assemble always describes,
// wires and validates the fabric and derives a fresh plan. A booted
// fleet can be captured as a Snapshot, and Restore, the one warm boot,
// builds identical fleets from its plan (forks, seed sweeps) without
// re-deriving, re-validating or re-describing it. A cold build and a
// restore differ only in where the plan comes from; neither stamps a
// host.
package fleet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/image"
	"repro/internal/lxc"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/oslinux"
	"repro/internal/pimaster"
	"repro/internal/placement"
	"repro/internal/restapi"
	"repro/internal/sdn"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Addressing bounds of the 10.<rack>.0.0/20 plan (see
// pimaster.NodeAddr): racks are numbered 0..255 and host numbers
// 2..0xFFE fit the /20, so shapes beyond these collide in the address
// space and are rejected up front.
const (
	// MaxRacks is the largest rack count the addressing plan carries.
	MaxRacks = 256
	// MaxHostsPerRack is the largest per-rack host count that fits the
	// /20 pool after the network, gateway and broadcast addresses.
	MaxHostsPerRack = 4093
)

// Config sizes and seeds a cloud. The zero value (with defaults applied)
// is the published PiCloud: 4 racks × 14 Raspberry Pi Model B.
type Config struct {
	Racks        int
	HostsPerRack int
	// Board is the node hardware (default hw.PiModelB()).
	Board hw.BoardSpec
	// Fabric selects the wiring (default multi-root tree; fat-tree and
	// leaf-spine model the paper's re-cabling).
	Fabric topology.Fabric
	// FatTreeK applies when Fabric is FabricFatTree (default 8).
	FatTreeK int
	// AggSwitches is the number of multi-root aggregation roots (default
	// 2); scale it up with the rack count to keep bisection bandwidth.
	AggSwitches int
	// SpineSwitches applies when Fabric is FabricLeafSpine (default 2).
	SpineSwitches int
	// UplinkBps overrides the switch-to-switch link capacity (default
	// 1 Gb/s); lowering it models an oversubscribed fabric.
	UplinkBps float64
	// LinkLatency overrides the per-hop store-and-forward latency.
	LinkLatency time.Duration
	// Seed drives all stochastic behaviour.
	Seed int64
	// Placer is pimaster's default placement algorithm (best-fit if nil).
	Placer placement.Placer
	// Policy carries overcommit settings.
	Policy placement.Policy
	// Images is the image registry (stock images if nil).
	Images *image.Store
	// RoutingPolicy is the SDN default for workload flows.
	RoutingPolicy sdn.Policy
}

// FillDefaults resolves the zero-value fields to the published PiCloud.
func (c *Config) FillDefaults() {
	if c.Racks == 0 {
		c.Racks = topology.DefaultRacks
	}
	if c.HostsPerRack == 0 {
		c.HostsPerRack = topology.DefaultHostsPerRack
	}
	if c.Board.Model == "" {
		c.Board = hw.PiModelB()
	}
	if c.Fabric == 0 {
		c.Fabric = topology.FabricMultiRoot
	}
	if c.FatTreeK == 0 {
		c.FatTreeK = 8
	}
	if c.Images == nil {
		c.Images = image.StockImages()
	}
	if c.RoutingPolicy == 0 {
		c.RoutingPolicy = sdn.PolicyECMP
	}
}

// Validate rejects shapes the addressing plan cannot carry. Catching
// the overflow here — with a clear error — beats colliding addresses
// (or a cryptic per-node registration failure after minutes of
// construction) at 10⁵-node scale.
func (c *Config) Validate() error {
	if c.Racks > MaxRacks {
		return fmt.Errorf("fleet: %d racks exceed the 10.<rack>.0.0/20 addressing plan (max %d racks)",
			c.Racks, MaxRacks)
	}
	if c.HostsPerRack > MaxHostsPerRack {
		return fmt.Errorf("fleet: %d hosts per rack overflow the per-rack /20 pool (max %d hosts; grow racks, not rack depth)",
			c.HostsPerRack, MaxHostsPerRack)
	}
	return c.Board.Validate()
}

// Node bundles everything attached to one Pi. It is pimaster's record
// of the node, so every layer resolves a host to the same record.
type Node = pimaster.NodeRef

// Template is the immutable per-board prototype: the board spec is
// validated once, by booting a probe host from it on a throwaway engine
// (so per-host stamping cannot fail on board grounds), and every host is
// then stamped from it, its kernel pointing at the template's board.
// The probe's status is what every untouched host reports.
type Template struct {
	board  hw.BoardSpec
	images *image.Store
	idle   restapi.NodeStatus
}

// NewTemplate validates the board once and returns the prototype.
func NewTemplate(board hw.BoardSpec, images *image.Store) (*Template, error) {
	if err := board.Validate(); err != nil {
		return nil, err
	}
	t := &Template{board: board, images: images}
	// Probe-boot a host: surfaces RAM-below-OS class errors once instead
	// of on the first host a build touches.
	var probe host
	if err := t.stamp(&probe, sim.NewEngine(0), new(sync.Mutex), "template-probe", 0, 0); err != nil {
		return nil, err
	}
	t.idle = probe.daemon.Status()
	return t, nil
}

// host is one host's stamped state: its kernel, its energy meter (the
// kernel's utilisation observer), its LXC suite and its management
// daemon, and the record pimaster keeps of it. A fleet makes one when
// something first touches the host.
type host struct {
	booted pimaster.Booted
	kernel oslinux.Kernel
	meter  energy.Meter
	suite  lxc.Suite
	daemon restapi.Daemon
}

// stamp instantiates the template on one host, in place: each part is
// initialised where it lies in the host, the meter powered on at at.
func (t *Template) stamp(h *host, engine *sim.Engine, cloudMu *sync.Mutex, name string, rack int, at sim.Time) error {
	if err := h.kernel.Init(engine, &t.board, name); err != nil {
		return err
	}
	h.meter.Init(t.board.Power, at)
	h.meter.PowerOn(at)
	h.kernel.OnUtilChange(&h.meter)
	h.suite.Init(engine, &h.kernel, t.images)
	h.daemon.Init(cloudMu, engine, name, rack, &h.suite, &h.meter)
	h.booted = pimaster.Booted{Daemon: &h.daemon}
	return nil
}

// hostTable is a fleet's pimaster.HostTable: the plan's rows, and the
// template each host boots from on its first touch, powered on at the
// fleet's boot instant into its slot of the cloud meter.
type hostTable struct {
	*Plan
	tmpl    *Template
	engine  *sim.Engine
	cloudMu *sync.Mutex
	meter   *energy.CloudMeter
	boot    sim.Time
}

// Boot stamps row i's host. It cannot fail: the template's probe booted
// the same board, and the row's meter slot is idle until this one call.
func (t *hostTable) Boot(i int) *pimaster.Booted {
	hp := &t.hosts[i]
	h := new(host)
	if err := t.tmpl.stamp(h, t.engine, t.cloudMu, hp.name, hp.rack, t.boot); err != nil {
		panic(fmt.Sprintf("fleet: booting %s: %v", hp.name, err))
	}
	if err := t.meter.Fill(hp.rack, int(hp.slot), &h.meter); err != nil {
		panic(fmt.Sprintf("fleet: booting %s: %v", hp.name, err))
	}
	return &h.booted
}

// Idle returns the template probe's status.
func (t *hostTable) Idle() restapi.NodeStatus { return t.tmpl.idle }

// Result is an assembled fleet: every component of a running cloud.
// The core package wraps it into the public Cloud facade.
type Result struct {
	Config Config
	Engine *sim.Engine
	Net    *netsim.Network
	Topo   *topology.Topology
	Ctrl   *sdn.Controller
	Meter  *energy.CloudMeter
	Master *pimaster.Master
	Mig    *migration.Manager
	// Nodes holds every host's record in plan (rack) order; pimaster
	// registers pointers into it. A record's host boots on its first
	// touch.
	Nodes []Node

	plan *Plan
}

// Assemble builds and boots a fleet at virtual time zero: all boards
// powered, fabric wired, pimaster populated, each host stamped on its
// first touch.
// cloudMu is the cloud-wide lock shared with the daemons and the engine
// driver. Every Assemble runs the topology builder, wires its network
// from the builder's wiring, validates the fabric and derives its plan,
// which keeps the wiring and the topology; Snapshot.Restore is the warm
// boot, and wires its network from the same plan.
func Assemble(cfg Config, cloudMu *sync.Mutex) (*Result, error) {
	cfg.FillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, wiring, err := buildTopology(cfg)
	if err != nil {
		return nil, err
	}
	engine := sim.NewEngine(cfg.Seed)
	net := netsim.Wire(engine, wiring)
	nodes, err := topology.HostIndices(topo, net)
	if err != nil {
		return nil, err
	}
	plan, err := planFor(topo, nodes)
	if err != nil {
		return nil, err
	}
	plan.wiring, plan.topo = wiring, topo
	return assemble(cfg, cloudMu, plan, engine, net)
}

// assemble boots a fleet on a network wired from the plan's wiring: a
// cold build's or a restore's, which register the same way. No host is
// stamped: each rack's meters attach as idle slots, and pimaster boots
// a host through the fleet's host table on its first touch.
func assemble(cfg Config, cloudMu *sync.Mutex, plan *Plan, engine *sim.Engine, net *netsim.Network) (*Result, error) {
	tmpl, err := NewTemplate(cfg.Board, cfg.Images)
	if err != nil {
		return nil, err
	}
	topo := plan.topo
	ctrl := sdn.NewController(engine, net)
	for _, id := range topo.Switches() {
		if err := ctrl.RegisterSwitch(openflow.NewSwitch(id, engine)); err != nil {
			return nil, err
		}
	}

	r := &Result{
		Config: cfg,
		Engine: engine,
		Net:    net,
		Topo:   topo,
		Ctrl:   ctrl,
		Meter:  energy.NewCloudMeter(),
		plan:   plan,
	}
	r.Mig = migration.NewManager(engine, net, ctrl, migration.Config{})

	master, err := pimaster.New(pimaster.Config{
		Engine:     engine,
		CloudMu:    cloudMu,
		Ctrl:       ctrl,
		Images:     cfg.Images,
		Meter:      r.Meter,
		Placer:     cfg.Placer,
		Policy:     cfg.Policy,
		Migrations: r.Mig,
	})
	if err != nil {
		return nil, err
	}
	r.Master = master

	boot := engine.Now()
	for rack, rows := range plan.racks {
		if err := r.Meter.AttachIdle(rack, rows.n, cfg.Board.Power, boot); err != nil {
			return nil, err
		}
	}
	r.Nodes = make([]Node, len(plan.hosts))
	for i := range plan.hosts {
		hp := &plan.hosts[i]
		r.Nodes[i] = Node{Name: hp.name, Host: netsim.NodeID(hp.name), Rack: hp.rack, Idx: hp.idx}
	}
	table := &hostTable{Plan: plan, tmpl: tmpl, engine: engine, cloudMu: cloudMu, meter: r.Meter, boot: boot}
	if err := master.RegisterNodes(r.Nodes, table); err != nil {
		return nil, err
	}
	return r, nil
}

// buildTopology describes the configured fabric.
func buildTopology(cfg Config) (*topology.Topology, *netsim.Wiring, error) {
	switch cfg.Fabric {
	case topology.FabricFatTree:
		return topology.BuildFatTree(topology.FatTreeConfig{
			K:           cfg.FatTreeK,
			Hosts:       cfg.Racks * cfg.HostsPerRack,
			HostLinkBps: float64(cfg.Board.NIC.BitsPerSecond),
			UplinkBps:   cfg.UplinkBps,
			Latency:     cfg.LinkLatency,
		})
	case topology.FabricLeafSpine:
		spines := cfg.SpineSwitches
		if spines == 0 {
			spines = topology.DefaultSpineSwitches
		}
		return topology.BuildLeafSpine(topology.LeafSpineConfig{
			Leaves:       cfg.Racks,
			Spines:       spines,
			HostsPerLeaf: cfg.HostsPerRack,
			HostLinkBps:  float64(cfg.Board.NIC.BitsPerSecond),
			UplinkBps:    cfg.UplinkBps,
			Latency:      cfg.LinkLatency,
		})
	default:
		mrc := topology.DefaultMultiRoot()
		mrc.Racks = cfg.Racks
		mrc.HostsPerRack = cfg.HostsPerRack
		mrc.HostLinkBps = float64(cfg.Board.NIC.BitsPerSecond)
		if cfg.AggSwitches > 0 {
			mrc.AggSwitches = cfg.AggSwitches
		}
		if cfg.UplinkBps > 0 {
			mrc.UplinkBps = cfg.UplinkBps
		}
		if cfg.LinkLatency > 0 {
			mrc.Latency = cfg.LinkLatency
		}
		return topology.BuildMultiRoot(mrc)
	}
}
