// Package core assembles the complete Glasgow Raspberry Pi Cloud: 56
// Raspberry Pi Model B nodes in 4 Lego racks, the multi-root tree fabric
// with OpenFlow switches and an SDN controller, a Raspbian kernel model
// and LXC suite per node, a REST management daemon per node, power
// metering on every board, and the pimaster head node with DHCP, DNS,
// image management, placement and live migration.
//
// This is the public entry point of the reproduction: examples, the
// benchmark harness and the CLIs all build a Cloud and operate it through
// pimaster's API, exactly as a user of the physical testbed would.
//
// Construction itself lives in the fleet subsystem (internal/fleet):
// node templates, a construction plan and bulk registration. New is a
// thin composition over it and builds cold every time; Snapshot/Restore
// expose the warm boot, for repeated runs of one shape.
package core

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/energy"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pimaster"
	"repro/internal/sdn"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config sizes and seeds a cloud; it is the fleet builder's Config (see
// fleet.Config for the field reference). The zero value (with defaults
// applied) is the published PiCloud: 4 racks × 14 Raspberry Pi Model B.
type Config = fleet.Config

// Node bundles everything attached to one Pi: the fleet builder's and
// pimaster's record of it (pimaster.NodeRef).
type Node = fleet.Node

// Cloud is a running PiCloud.
type Cloud struct {
	// Mu is the cloud-wide lock: hold it for any direct access to
	// simulated state (engine, network, suites). The REST daemons take
	// it per request; the real-time driver takes it per tick.
	Mu sync.Mutex

	Config Config
	Engine *sim.Engine
	Net    *netsim.Network
	Topo   *topology.Topology
	Ctrl   *sdn.Controller
	Meter  *energy.CloudMeter
	Master *pimaster.Master
	Mig    *migration.Manager

	fleet *fleet.Result

	// tracer, when set, receives dual-stamped spans from the cloud's
	// layers (netsim flushes, kernel-state captures). See obs.go.
	tracer *obs.Tracer

	masterServer *httptest.Server
}

// New assembles and boots a cloud at virtual time zero: all boards
// powered, fabric wired, daemons stamped, pimaster populated. Every New
// validates the fabric and derives its construction plan; a repeated
// build of one shape warm-boots only through Snapshot and Restore.
func New(cfg Config) (*Cloud, error) {
	c := &Cloud{}
	res, err := fleet.Assemble(cfg, &c.Mu)
	if err != nil {
		return nil, err
	}
	c.adopt(res)
	return c, nil
}

// Snapshot captures the booted cloud's construction state for
// warm-booting identical clouds with Restore.
func (c *Cloud) Snapshot() *fleet.Snapshot { return c.fleet.Snapshot() }

// Restore warm-boots a fresh cloud from a snapshot. seed overrides the
// captured seed when non-negative. The restored cloud's behaviour —
// traces included — is byte-identical to a cold build of the same
// config.
func Restore(snap *fleet.Snapshot, seed int64) (*Cloud, error) {
	c := &Cloud{}
	res, err := snap.Restore(&c.Mu, seed)
	if err != nil {
		return nil, err
	}
	c.adopt(res)
	return c, nil
}

// adopt wires an assembled fleet into the facade.
func (c *Cloud) adopt(res *fleet.Result) {
	c.Config = res.Config
	c.Engine = res.Engine
	c.Net = res.Net
	c.Topo = res.Topo
	c.Ctrl = res.Ctrl
	c.Meter = res.Meter
	c.Master = res.Master
	c.Mig = res.Mig
	c.fleet = res
}

// Nodes returns all nodes in topology order: pimaster's registry, not a
// copy, so callers only read it.
func (c *Cloud) Nodes() []*Node { return c.Master.Nodes() }

// NodeByName resolves a node through pimaster's registry.
func (c *Cloud) NodeByName(name string) (*Node, error) {
	n, err := c.Master.Node(name)
	if err != nil {
		return nil, fmt.Errorf("core: no node %q", name)
	}
	return n, nil
}

// NodeByHost resolves a node by its network identity, which is its name.
func (c *Cloud) NodeByHost(host netsim.NodeID) (*Node, error) {
	n, err := c.Master.Node(string(host))
	if err != nil {
		return nil, fmt.Errorf("core: no node at %q", host)
	}
	return n, nil
}

// RunFor advances the cloud by d of virtual time under the lock.
func (c *Cloud) RunFor(d sim.Duration) error {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.Engine.RunFor(d)
}

// Settle drains all pending events (boots, transfers) under the lock.
func (c *Cloud) Settle() error {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.Engine.Run()
}

// Fabric returns the workload plumbing bound to this cloud.
func (c *Cloud) Fabric() *workload.Fabric {
	return &workload.Fabric{Engine: c.Engine, Net: c.Net, Ctrl: c.Ctrl, Policy: c.Config.RoutingPolicy}
}

// Endpoint resolves a spawned VM to a workload endpoint.
func (c *Cloud) Endpoint(vmName string) (workload.Endpoint, error) {
	rec, err := c.Master.VM(vmName)
	if err != nil {
		return workload.Endpoint{}, err
	}
	node, err := c.NodeByName(rec.Node)
	if err != nil {
		return workload.Endpoint{}, err
	}
	return workload.Endpoint{Host: node.Host, Suite: node.Suite(), Container: vmName}, nil
}

// PowerDraw returns the instantaneous whole-cloud draw in watts — the
// wall-socket reading of Section III.
func (c *Cloud) PowerDraw() float64 { return c.Meter.TotalWatts() }

// PowerOffNode cuts a node's power (consolidation experiments). All its
// containers must be stopped first; the daemon keeps answering (its
// management plane is assumed out-of-band) but reports PoweredOn=false.
func (c *Cloud) PowerOffNode(name string) error {
	node, err := c.NodeByName(name)
	if err != nil {
		return err
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	if node.Suite().RunningCount() > 0 {
		return fmt.Errorf("core: node %s still has running containers", name)
	}
	node.Meter().PowerOff(c.Engine.Now())
	return nil
}

// PowerOnNode restores a node's power.
func (c *Cloud) PowerOnNode(name string) error {
	node, err := c.NodeByName(name)
	if err != nil {
		return err
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	node.Meter().PowerOn(c.Engine.Now())
	return nil
}

// ServeMaster exposes pimaster's HTTP API+panel on an ephemeral local
// listener and returns its base URL. Call Close when done.
func (c *Cloud) ServeMaster() string {
	if c.masterServer == nil {
		c.masterServer = httptest.NewServer(c.Master.Handler())
	}
	return c.masterServer.URL
}

// Close shuts down any listeners.
func (c *Cloud) Close() {
	if c.masterServer != nil {
		c.masterServer.Close()
		c.masterServer = nil
	}
}

// DriveRealTime advances virtual time in step with the wall clock,
// multiplied by speed, until stop is closed. It is the loop behind
// cmd/picloud: the REST daemons and panel serve live state while the
// simulation ticks underneath. Blocks until stop.
func (c *Cloud) DriveRealTime(speed float64, stop <-chan struct{}) {
	if speed <= 0 {
		speed = 1
	}
	const tick = 50 * time.Millisecond
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	c.Mu.Lock()
	base := c.Engine.Now()
	c.Mu.Unlock()
	start := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			target := base.Add(time.Duration(float64(time.Since(start)) * speed))
			c.Mu.Lock()
			_ = c.Engine.RunUntil(target)
			c.Mu.Unlock()
		}
	}
}

// SoftwareStack reports the Fig. 3 layer diagram for one node, bottom-up.
func (c *Cloud) SoftwareStack(name string) ([]string, error) {
	node, err := c.NodeByName(name)
	if err != nil {
		return nil, err
	}
	c.Mu.Lock()
	defer c.Mu.Unlock()
	suite := node.Suite()
	spec := suite.Kernel().Spec()
	stack := []string{
		fmt.Sprintf("ARM System on Chip (%s, %d MB RAM)", spec.Model, spec.MemBytes/hw.MiB),
		"Raspbian Linux (kernel with CGROUPS)",
		"Linux Container (LXC)",
		"libvirt-style RESTful management daemon",
	}
	for _, cn := range suite.List() {
		info, err := suite.InfoOf(cn)
		if err != nil {
			continue
		}
		stack = append(stack, fmt.Sprintf("container %s [%s] (%s)", cn, info.Image, info.State))
	}
	return stack, nil
}

// Describe renders the rack layout (Fig. 1) plus a one-line summary.
func (c *Cloud) Describe() string {
	var b strings.Builder
	b.WriteString(topology.Render(c.Topo))
	fmt.Fprintf(&b, "board: %s, power draw %.1f W\n", c.Config.Board.Model, c.PowerDraw())
	return b.String()
}
