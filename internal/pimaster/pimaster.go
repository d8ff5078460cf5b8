// Package pimaster implements the PiCloud head node: the inventory of
// node daemons, placement-driven VM spawning, the DHCP and DNS services,
// image hosting, the migration driver and the outward-facing web control
// panel of Fig. 4. Per the paper, "an outward-facing webserver on
// pimaster provides a web-based control panel to users and
// administrators ... [which] interacts with the local daemons, and
// controls workloads running on the Pi devices using RESTful interfaces".
//
// Every node daemon runs in pimaster's process, so pimaster calls it
// through the daemon's direct methods (LoadDirect, StatusDirect,
// SpawnDirect, DeleteDirect): the same work and request accounting as
// the daemon's HTTP handlers, without the transport. The daemon's HTTP API stays its
// outside surface, which remote callers reach through restapi.Client.
//
// A VM is placed against a view of the fleet polled from the daemons,
// with declared CPU reservations overlaid. pimaster keeps no view
// between calls: SpawnVM polls every node for its one VM, and SpawnVMs
// polls every node once, then only the node each VM lands on.
//
// A node is its plan row until something touches it. Its host (kernel,
// energy meter, LXC suite and daemon) boots on the first call to one of
// NodeRef's accessors (Daemon, Suite, Meter), which every spawn,
// destroy, migration, fault, power change, status read and HTTP call
// goes through; the fleet's HostTable stamps it from the template, in
// the state it would have had, had it booted with the fleet. A
// fleet-wide poll (a placement view, a node listing or the panel) reads
// an untouched node from the template's idle status instead of booting
// it, and counts the poll once for the fleet; a daemon booted later
// starts its api_requests from that count.
//
// Nodes enter only as a whole fleet, once (RegisterNodes), with its
// HostTable, the construction plan's host rows: DHCP and DNS answer
// each row's static lease and A/PTR records from the table and store
// only runtime records (VMs, later additions, and tombstones for
// removed rows). A node name resolves through netsim's node index to
// pimaster's slot slice, so pimaster keeps no name map of its own, and
// Nodes hands out the registry itself, which no later call rewrites.
//
// Locking: pimaster's own registries are guarded by its internal mutex;
// the simulated cloud is guarded by the cloud-wide mutex shared with the
// node daemons and the engine driver. pimaster never holds its own mutex
// while acquiring the cloud mutex or calling a daemon (each daemon call
// locks the cloud itself). Booting a host takes only pimaster's boot
// lock, never the cloud mutex, so NodeRef's accessors may be called with
// or without the cloud mutex held.
package pimaster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dhcp"
	"repro/internal/dns"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/image"
	"repro/internal/lxc"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/placement"
	"repro/internal/restapi"
	"repro/internal/sdn"
	"repro/internal/sim"
)

// Errors.
var (
	ErrNoSuchNode = errors.New("pimaster: no such node")
	ErrNoSuchVM   = errors.New("pimaster: no such vm")
	ErrVMExists   = errors.New("pimaster: vm already exists")
)

// NodeRef is one managed node: the one record of a Pi that the fleet
// builder makes, pimaster registers and every layer above resolves. Its
// host boots on the first call to Daemon, Suite or Meter.
type NodeRef struct {
	// Name is the node's host name and also its netsim host id (Host).
	Name string
	Host netsim.NodeID
	Rack int
	// Idx is the node's position within its rack, recorded at
	// registration; it fixes the node's static address and names its
	// VMs.
	Idx int
	// m is the master that registered the node, and row the node's row
	// in its host table.
	m   *Master
	row int32
}

// Daemon returns the node's management daemon, booting its host on the
// first touch.
func (r *NodeRef) Daemon() *restapi.Daemon { return r.m.host(r.row).Daemon }

// Suite returns the node's LXC suite, booting its host on the first
// touch. Simulated-state access through it holds the cloud mutex.
func (r *NodeRef) Suite() *lxc.Suite { return r.m.host(r.row).Daemon.Suite() }

// Meter returns the node's energy meter, booting its host on the first
// touch.
func (r *NodeRef) Meter() *energy.Meter { return r.m.host(r.row).Daemon.Meter() }

// Touched reports whether the node's host has booted.
func (r *NodeRef) Touched() bool { return r.m.hosts[r.row].Load() != nil }

// Booted is a booted host as its fleet stamped it: its daemon, which
// fronts the host's LXC suite and energy meter.
type Booted struct {
	Daemon *restapi.Daemon
	// since is the number of fleet-wide polls answered for the host
	// before it booted; polls after those reach its daemon.
	since uint64
}

// VMRecord tracks a spawned VM cloud-wide.
type VMRecord struct {
	Name  string         `json:"name"`
	Node  string         `json:"node"`
	Image string         `json:"image"`
	IP    string         `json:"ip"`
	FQDN  string         `json:"fqdn"`
	Label openflow.Label `json:"label"`
	MAC   string         `json:"mac"`
	// CPUDemandMIPS is the demand declared at spawn time, reserved
	// against the node in the placement view.
	CPUDemandMIPS int64 `json:"cpu_demand_mips,omitempty"`
}

// SpawnVMRequest is the POST /vms body.
type SpawnVMRequest struct {
	Name          string   `json:"name"`
	Image         string   `json:"image"`
	MemLimitBytes int64    `json:"mem_limit_bytes,omitempty"`
	CPUShares     int      `json:"cpu_shares,omitempty"`
	CPUQuotaMIPS  int64    `json:"cpu_quota_mips,omitempty"`
	CPUDemandMIPS int64    `json:"cpu_demand_mips,omitempty"`
	Peers         []string `json:"peers,omitempty"`
	// Placer overrides the master's default for this request.
	Placer string `json:"placer,omitempty"`
}

// MigrateVMRequest is the POST /vms/{name}/migrate body.
type MigrateVMRequest struct {
	TargetNode string `json:"target_node"`
	// Routing is "label" (default; IP-less, flows survive) or "ip".
	Routing string `json:"routing,omitempty"`
}

// Config assembles a master.
type Config struct {
	Engine  *sim.Engine
	CloudMu *sync.Mutex
	Ctrl    *sdn.Controller
	Images  *image.Store
	Meter   *energy.CloudMeter
	// Placer is the default placement algorithm (best-fit if nil).
	Placer placement.Placer
	Policy placement.Policy
	// Migrations drives live migration; optional.
	Migrations *migration.Manager
}

// Master is the head node.
type Master struct {
	mu sync.Mutex // guards vms, macSeq, placerOverrides

	engine  *sim.Engine
	cloudMu *sync.Mutex
	ctrl    *sdn.Controller
	images  *image.Store
	meter   *energy.CloudMeter
	mig     *migration.Manager

	dhcp *dhcp.Server
	dns  *dns.Server

	net   *netsim.Network
	nodes []*NodeRef
	// slots maps a netsim node index to 1 + the node's position in
	// nodes (0: not a registered node), so a name resolves through
	// netsim's node index.
	slots []int32

	// table boots the nodes' hosts; hosts holds each row's booted host
	// (nil while untouched) and idle the status of an untouched one.
	table HostTable
	hosts []atomic.Pointer[Booted]
	idle  restapi.NodeStatus
	// bootMu serialises boots with the fleet-wide poll count, polls.
	bootMu sync.Mutex
	polls  uint64

	placer placement.Placer
	policy placement.Policy

	vms    map[string]*VMRecord
	macSeq int
	// placerOverrides caches named placers requested per spawn, so
	// stateful algorithms (round-robin) keep their cursor across calls.
	placerOverrides map[string]placement.Placer
}

// New builds a master with its DHCP and DNS services initialised.
func New(cfg Config) (*Master, error) {
	if cfg.Engine == nil || cfg.CloudMu == nil || cfg.Ctrl == nil {
		return nil, fmt.Errorf("pimaster: engine, cloud mutex and controller are required")
	}
	if cfg.Images == nil {
		cfg.Images = image.StockImages()
	}
	if cfg.Placer == nil {
		cfg.Placer = placement.BestFit{}
	}
	m := &Master{
		engine:          cfg.Engine,
		cloudMu:         cfg.CloudMu,
		ctrl:            cfg.Ctrl,
		images:          cfg.Images,
		meter:           cfg.Meter,
		mig:             cfg.Migrations,
		dhcp:            dhcp.NewServer(cfg.Engine, 0),
		dns:             dns.NewServer(),
		net:             cfg.Ctrl.Net(),
		placer:          cfg.Placer,
		policy:          cfg.Policy,
		vms:             make(map[string]*VMRecord),
		placerOverrides: make(map[string]placement.Placer),
	}
	if err := m.dns.AddZone(dns.DefaultZone); err != nil {
		return nil, err
	}
	if err := m.dns.AddZone("in-addr.arpa."); err != nil {
		return nil, err
	}
	return m, nil
}

// DNS exposes the naming service.
func (m *Master) DNS() *dns.Server { return m.dns }

// DHCP exposes the address service.
func (m *Master) DHCP() *dhcp.Server { return m.dhcp }

// Images exposes the image registry.
func (m *Master) Images() *image.Store { return m.images }

// NodeAddr returns the static address a node at (rack, idxInRack) gets
// under the 10.<rack>.0.0/20 addressing plan: pool base + 2 + idx.
func NodeAddr(rack, idxInRack int) netip.Addr {
	hostNum := 2 + idxInRack
	return netip.AddrFrom4([4]byte{10, byte(rack), byte(hostNum >> 8), byte(hostNum)})
}

// HostTable is a fleet's host rows, the construction plan, and the
// template its hosts boot from: row i is the i-th node RegisterNodes
// receives, with its FQDN NodeFQDN(rack, idx), its static address
// NodeAddr(rack, idx), its MAC dhcp.NodeMAC(rack, idx), its rack's pool
// RackPool(rack) and its netsim node index.
type HostTable interface {
	dns.HostTable
	dhcp.HostTable
	// NodeIndex returns row i's netsim node index.
	NodeIndex(i int) int32
	// Boot stamps row i's host as it stands untouched: booted with the
	// fleet, powered on and idle since. pimaster calls it once per row,
	// on the row's first touch, from any goroutine and with or without
	// the cloud mutex held, so it must not take that mutex.
	Boot(i int) *Booted
	// Idle returns the status of an untouched host, as its template's
	// probe reports it; pimaster fills in the node, rack, clock and
	// request count.
	Idle() restapi.NodeStatus
}

// RegisterNodes registers a whole fleet, the only way a node enters
// pimaster, before any other node: nodes in topology (rack) order, each
// carrying its in-rack index, and hosts, whose row i plans nodes[i] and
// boots its host when something first touches it. It
// creates each rack's DHCP pool "rack<N>", subnet 10.<N>.0.0/20 — room
// for ~4000 addresses per rack, so scale-out fleets keep the addressing
// plan of the published 4×14 testbed (small indices yield the identical
// 10.<rack>.0.<2+idx> addresses). Then it attaches hosts to DHCP and
// DNS, which answer every node's static lease (pool base + 2 + idx,
// immune to lease expiry) and A/PTR records from it without filing
// them. Each node's netsim index comes from its row, checked to name
// the node, so registration looks up no host by name. The registry is
// written once, after every node passed.
func (m *Master) RegisterNodes(nodes []NodeRef, hosts HostTable) error {
	if len(m.nodes) > 0 {
		return fmt.Errorf("pimaster: RegisterNodes registers a fleet before any other node")
	}
	if hosts.Hosts() != len(nodes) {
		return fmt.Errorf("pimaster: %d host rows for %d nodes", hosts.Hosts(), len(nodes))
	}
	refs := make([]*NodeRef, len(nodes))
	slots := make([]int32, m.net.NodeCount())
	for i := range nodes {
		ref := &nodes[i]
		if err := checkReg(ref); err != nil {
			return err
		}
		if row, ok := hosts.RowOfAddr(NodeAddr(ref.Rack, ref.Idx)); !ok || row != i {
			return fmt.Errorf("pimaster: host row %d does not plan node %s", i, ref.Name)
		}
		at := hosts.NodeIndex(i)
		if at < 0 || int(at) >= len(slots) || m.net.NodeAt(at).ID != ref.Host {
			return fmt.Errorf("pimaster: host row %d's node index %d does not name node %s of the fabric", i, at, ref.Name)
		}
		if slots[at] != 0 {
			return fmt.Errorf("pimaster: node %s already registered", ref.Name)
		}
		if i == 0 || ref.Rack != nodes[i-1].Rack {
			if err := m.addRackPool(ref.Rack); err != nil {
				return err
			}
		}
		refs[i] = ref
		slots[at] = int32(i + 1)
	}
	if err := m.dhcp.AttachHosts(hosts); err != nil {
		return err
	}
	if err := m.dns.AttachHosts(hosts); err != nil {
		return err
	}
	for i, ref := range refs {
		ref.m, ref.row = m, int32(i)
	}
	m.nodes, m.slots = refs, slots
	m.table, m.hosts, m.idle = hosts, make([]atomic.Pointer[Booted], len(refs)), hosts.Idle()
	return nil
}

// host returns row i's booted host, booting it on the first touch with
// the fleet-wide polls answered for it so far.
func (m *Master) host(i int32) *Booted {
	if h := m.hosts[i].Load(); h != nil {
		return h
	}
	m.bootMu.Lock()
	defer m.bootMu.Unlock()
	if h := m.hosts[i].Load(); h != nil {
		return h
	}
	h := m.table.Boot(int(i))
	h.since = m.polls
	h.Daemon.Polled(m.polls)
	m.hosts[i].Store(h)
	return h
}

// poll counts one fleet-wide poll and returns its number: the hosts
// booted before it (since < the number) answer it themselves, and the
// poll is counted for the rest.
func (m *Master) poll() uint64 {
	m.bootMu.Lock()
	defer m.bootMu.Unlock()
	m.polls++
	return m.polls
}

// polled returns row i's host if it answers poll p itself, nil if p
// reads the row from the idle status.
func (m *Master) polled(i int, p uint64) *Booted {
	if h := m.hosts[i].Load(); h != nil && h.since < p {
		return h
	}
	return nil
}

// statuses polls every node's status, as GET /nodes and the panel list
// them: each booted host's daemon counts the request, and the untouched
// ones read the idle status, counted as one fleet-wide poll. It also
// returns the clock the idle statuses read, taken under the cloud lock.
func (m *Master) statuses() ([]restapi.NodeStatus, string) {
	p := m.poll()
	m.cloudMu.Lock()
	now := m.engine.Now().String()
	m.cloudMu.Unlock()
	out := make([]restapi.NodeStatus, len(m.nodes))
	for i, ref := range m.nodes {
		if h := m.polled(i, p); h != nil {
			out[i] = h.Daemon.StatusDirect()
			continue
		}
		st := m.idle
		st.Node, st.NetsimID, st.Rack, st.SimTime, st.APIRequests = ref.Name, ref.Name, ref.Rack, now, p
		out[i] = st
	}
	return out, now
}

// RackPool names the DHCP pool of a rack.
func RackPool(rack int) string { return "rack" + strconv.Itoa(rack) }

// addRackPool creates the rack's DHCP pool unless it exists.
func (m *Master) addRackPool(rack int) error {
	if _, known := m.dhcp.Pool(RackPool(rack)); known {
		return nil
	}
	subnet := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(rack), 0, 0}), 20)
	return m.dhcp.AddPoolPrefix(RackPool(rack), subnet)
}

// checkReg validates one registration's shape against the /20 plan.
func checkReg(ref *NodeRef) error {
	if string(ref.Host) != ref.Name {
		return fmt.Errorf("pimaster: node %s has host id %q; a node's name is its host id", ref.Name, ref.Host)
	}
	if ref.Rack < 0 || ref.Rack > 255 {
		return fmt.Errorf("pimaster: rack %d outside the 10.<rack>.0.0/20 addressing plan", ref.Rack)
	}
	// 0xFFF is the /20 broadcast address — also off limits.
	if ref.Idx < 0 || 2+ref.Idx >= 0xFFF {
		return fmt.Errorf("pimaster: node index %d outside the rack /20 pool", ref.Idx)
	}
	return nil
}

// position returns a registered node's index in nodes.
func (m *Master) position(name string) (int, bool) {
	nd := m.net.Node(netsim.NodeID(name))
	if nd == nil || int(nd.Index()) >= len(m.slots) || m.slots[nd.Index()] == 0 {
		return 0, false
	}
	return int(m.slots[nd.Index()]) - 1, true
}

// Nodes returns the registered nodes in order: the registry itself,
// which RegisterNodes writes once. Callers only read it.
func (m *Master) Nodes() []*NodeRef { return m.nodes }

// Node resolves a node by name, which is also its host id.
func (m *Master) Node(name string) (*NodeRef, error) {
	i, ok := m.position(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, name)
	}
	return m.nodes[i], nil
}

// viewRow is a node's placement view row, from its load.
func viewRow(ref *NodeRef, ld restapi.NodeLoad) placement.NodeView {
	return placement.NodeView{
		ID:            ref.Host,
		Rack:          ref.Rack,
		CPU:           hw.MIPS(ld.CPUMIPS),
		CPUUsed:       hw.MIPS(ld.CPUUtil * ld.CPUMIPS),
		MemTotal:      ld.MemTotal,
		MemUsed:       ld.MemUsed,
		Containers:    ld.Containers,
		MaxContainers: ld.MaxComfort,
		PoweredOn:     ld.PoweredOn,
	}
}

// buildView polls every node's load into a placement view and returns
// it with each node's declared CPU reservations, by node position: a
// booted host's daemon answers the poll, and an untouched node's row is
// the template's idle load, the poll counted once for the fleet.
// Placement sees the larger of measured utilisation and declared
// reservations, so idle-but-reserved capacity is not double-booked.
func (m *Master) buildView() (*placement.View, []hw.MIPS) {
	v := &placement.View{
		Nodes:  make([]placement.NodeView, len(m.nodes)),
		Locate: make(map[string]netsim.NodeID),
	}
	p, idle := m.poll(), m.idle.Load()
	for i, ref := range m.nodes {
		if h := m.polled(i, p); h != nil {
			v.Nodes[i] = viewRow(ref, h.Daemon.LoadDirect())
		} else {
			v.Nodes[i] = viewRow(ref, idle)
		}
	}
	reserved := make([]hw.MIPS, len(m.nodes))
	m.mu.Lock()
	for name, rec := range m.vms {
		if i, ok := m.position(rec.Node); ok {
			v.Locate[name] = m.nodes[i].Host
			reserved[i] += hw.MIPS(rec.CPUDemandMIPS)
		}
	}
	m.mu.Unlock()
	for i, res := range reserved {
		v.Nodes[i].CPUUsed = max(v.Nodes[i].CPUUsed, res)
	}
	return v, reserved
}

// SpawnVM places and boots a VM cloud-wide: placement against a fresh
// poll of every node, DHCP lease, DNS registration, the node daemon's
// spawn, then the SDN label. A failed spawn leaves no lease, record or
// label behind.
func (m *Master) SpawnVM(req SpawnVMRequest) (*VMRecord, error) {
	placer, err := m.admit(req)
	if err != nil {
		return nil, err
	}
	view, _ := m.buildView()
	rec, _, err := m.spawn(req, placer, view)
	return rec, err
}

// SpawnVMs spawns reqs in order, placing each where SpawnVM would, with
// one fleet poll instead of one per VM: it polls every node once, at the
// first admitted request, and after each spawn re-polls only the node
// the VM landed on, its reservations overlaid, so the view stays what a
// fresh poll would read. That is O(VMs) status calls instead of
// O(VMs × nodes), the difference a 10⁵-node fleet boot needs. It stops
// at the first refusal and returns the records made before it. Nothing
// else may mutate the cloud during the call (the scenario installer's
// fleet boot, not concurrent HTTP handlers).
func (m *Master) SpawnVMs(reqs []SpawnVMRequest) ([]*VMRecord, error) {
	recs := make([]*VMRecord, 0, len(reqs))
	var (
		view     *placement.View
		reserved []hw.MIPS
	)
	for _, req := range reqs {
		placer, err := m.admit(req)
		if err != nil {
			return recs, err
		}
		if view == nil {
			view, reserved = m.buildView()
		}
		rec, i, err := m.spawn(req, placer, view)
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		reserved[i] += hw.MIPS(rec.CPUDemandMIPS)
		row := viewRow(m.nodes[i], m.nodes[i].Daemon().LoadDirect())
		row.CPUUsed = max(row.CPUUsed, reserved[i])
		view.SetRow(i, row)
		view.Locate[rec.Name] = m.nodes[i].Host
	}
	return recs, nil
}

// admit checks a spawn request before placement and resolves its
// placer.
func (m *Master) admit(req SpawnVMRequest) (placement.Placer, error) {
	if req.Name == "" || req.Image == "" {
		return nil, fmt.Errorf("pimaster: spawn needs name and image")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.vms[req.Name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrVMExists, req.Name)
	}
	if req.Placer == "" {
		return m.placer, nil
	}
	placer, ok := m.placerOverrides[req.Placer]
	if !ok {
		var err error
		if placer, err = placement.ByName(req.Placer); err != nil {
			return nil, err
		}
		m.placerOverrides[req.Placer] = placer
	}
	return placer, nil
}

// spawn places an admitted request against view and boots it on the
// chosen node, returning its record and the node's position.
func (m *Master) spawn(req SpawnVMRequest, placer placement.Placer, view *placement.View) (*VMRecord, int, error) {
	memNeed := req.MemLimitBytes
	if memNeed == 0 {
		memNeed = lxc.IdleRSSBytes
	}
	host, err := placer.Place(placement.Request{
		Name:          req.Name,
		CPUDemandMIPS: hw.MIPS(req.CPUDemandMIPS),
		MemBytes:      memNeed,
		Peers:         req.Peers,
	}, view, m.policy)
	if err != nil {
		return nil, 0, err
	}
	i, ok := m.position(string(host))
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNoSuchNode, host)
	}
	ref := m.nodes[i]
	// Address and name the VM.
	m.mu.Lock()
	m.macSeq++
	mac := dhcp.ContainerMAC(m.macSeq)
	m.mu.Unlock()
	lease, err := m.dhcp.Request(RackPool(ref.Rack), mac)
	if err != nil {
		return nil, 0, fmt.Errorf("pimaster: leasing address: %w", err)
	}
	fqdn := dns.ContainerFQDN(req.Name, ref.Rack, ref.Idx)
	if err := m.dns.RegisterHost(fqdn, lease.Addr); err != nil {
		_ = m.dhcp.Release(mac)
		return nil, 0, err
	}
	// Boot through the node's daemon.
	if _, err := ref.Daemon().SpawnDirect(restapi.SpawnRequest{
		Name:          req.Name,
		Image:         req.Image,
		MemLimitBytes: req.MemLimitBytes,
		CPUShares:     req.CPUShares,
		CPUQuotaMIPS:  req.CPUQuotaMIPS,
	}); err != nil {
		m.dns.RemoveName(fqdn)
		m.dns.RemoveName(dns.ReverseName(lease.Addr))
		_ = m.dhcp.Release(mac)
		return nil, 0, err
	}
	m.cloudMu.Lock()
	label := m.ctrl.AssignLabel(req.Name, ref.Host)
	m.cloudMu.Unlock()
	rec := &VMRecord{
		Name:          req.Name,
		Node:          ref.Name,
		Image:         req.Image,
		IP:            lease.Addr.String(),
		FQDN:          fqdn,
		Label:         label,
		MAC:           string(mac),
		CPUDemandMIPS: req.CPUDemandMIPS,
	}
	m.mu.Lock()
	m.vms[req.Name] = rec
	m.mu.Unlock()
	return rec, i, nil
}

// DestroyVM tears a VM down everywhere: node daemon, DNS, DHCP, registry.
func (m *Master) DestroyVM(name string) error {
	m.mu.Lock()
	rec, ok := m.vms[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchVM, name)
	}
	ref, err := m.Node(rec.Node)
	if err != nil {
		return err
	}
	if err := ref.Daemon().DeleteDirect(name); err != nil {
		return err
	}
	m.dns.RemoveName(rec.FQDN)
	if addr, perr := netip.ParseAddr(rec.IP); perr == nil {
		m.dns.RemoveName(dns.ReverseName(addr))
	}
	_ = m.dhcp.Release(dhcp.MAC(rec.MAC))
	m.mu.Lock()
	delete(m.vms, name)
	m.mu.Unlock()
	return nil
}

// VM returns a VM record.
func (m *Master) VM(name string) (*VMRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.vms[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchVM, name)
	}
	cp := *rec
	return &cp, nil
}

// VMs lists records sorted by name.
func (m *Master) VMs() []VMRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]VMRecord, 0, len(m.vms))
	for _, rec := range m.vms {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// VMsOn lists the records of the VMs on the named node, sorted by name:
// VMs filtered to one node, without copying the others' records.
func (m *Master) VMsOn(node string) []VMRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []VMRecord
	for _, rec := range m.vms {
		if rec.Node == node {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MigrateVM live-migrates a VM to the named node. The migration proceeds
// on the simulation clock; onDone (optional) observes the report.
func (m *Master) MigrateVM(name string, req MigrateVMRequest, onDone func(migration.Report)) error {
	if m.mig == nil {
		return fmt.Errorf("pimaster: migration manager not configured")
	}
	m.mu.Lock()
	rec, ok := m.vms[name]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchVM, name)
	}
	srcRef, err := m.Node(rec.Node)
	if err != nil {
		return err
	}
	dstRef, err := m.Node(req.TargetNode)
	if err != nil {
		return err
	}
	mode := migration.RoutingLabel
	if req.Routing == "ip" {
		mode = migration.RoutingIP
	}
	m.cloudMu.Lock()
	defer m.cloudMu.Unlock()
	return m.mig.Migrate(migration.Request{
		Container: name,
		SrcHost:   srcRef.Host,
		DstHost:   dstRef.Host,
		SrcSuite:  srcRef.Suite(),
		DstSuite:  dstRef.Suite(),
		Routing:   mode,
		Label:     rec.Label,
		OnDone: func(rep migration.Report) {
			if rep.Err == nil {
				m.mu.Lock()
				if cur, ok := m.vms[name]; ok {
					cur.Node = dstRef.Name
				}
				m.mu.Unlock()
			}
			if onDone != nil {
				onDone(rep)
			}
		},
	})
}

// PowerSummary reports instantaneous cloud power draw.
type PowerSummary struct {
	TotalWatts float64 `json:"total_watts"`
	// SocketOK reports whether a single UK trailing socket board could
	// supply the whole cloud (Section III's power claim).
	SocketOK     bool    `json:"single_socket_ok"`
	SocketLimitW float64 `json:"socket_limit_watts"`
	Nodes        int     `json:"nodes"`
}

// Power reads the cloud meter.
func (m *Master) Power() PowerSummary {
	total := 0.0
	if m.meter != nil {
		total = m.meter.TotalWatts()
	}
	sock := energy.UKTrailingSocket()
	return PowerSummary{
		TotalWatts:   total,
		SocketOK:     sock.CanSupply(total),
		SocketLimitW: sock.MaxWatts(),
		Nodes:        len(m.nodes),
	}
}

// --- HTTP API ---

// Handler returns pimaster's HTTP handler (API + control panel).
func (m *Master) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+restapi.APIPrefix+"/nodes", m.handleNodes)
	mux.HandleFunc("GET "+restapi.APIPrefix+"/nodes/{name}", m.handleNode)
	mux.HandleFunc("GET "+restapi.APIPrefix+"/vms", m.handleVMList)
	mux.HandleFunc("POST "+restapi.APIPrefix+"/vms", m.handleVMSpawn)
	mux.HandleFunc("GET "+restapi.APIPrefix+"/vms/{name}", m.handleVMGet)
	mux.HandleFunc("DELETE "+restapi.APIPrefix+"/vms/{name}", m.handleVMDelete)
	mux.HandleFunc("POST "+restapi.APIPrefix+"/vms/{name}/migrate", m.handleVMMigrate)
	mux.HandleFunc("GET "+restapi.APIPrefix+"/leases", m.handleLeases)
	mux.HandleFunc("GET "+restapi.APIPrefix+"/dns", m.handleDNS)
	mux.HandleFunc("GET "+restapi.APIPrefix+"/images", m.handleImages)
	mux.HandleFunc("POST "+restapi.APIPrefix+"/images/{name}/{tag}/{op}", m.handleImageOp)
	mux.HandleFunc("GET "+restapi.APIPrefix+"/power", m.handlePower)
	mux.HandleFunc("GET /panel", m.handlePanel)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/panel", http.StatusFound)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (m *Master) writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNoSuchNode), errors.Is(err, ErrNoSuchVM):
		code = http.StatusNotFound
	case errors.Is(err, ErrVMExists):
		code = http.StatusConflict
	case errors.Is(err, placement.ErrNoCapacity):
		code = http.StatusConflict
	}
	writeJSON(w, code, restapi.ErrorDoc{Error: err.Error()})
}

func (m *Master) handleNodes(w http.ResponseWriter, _ *http.Request) {
	statuses, _ := m.statuses()
	writeJSON(w, http.StatusOK, statuses)
}

func (m *Master) handleNode(w http.ResponseWriter, r *http.Request) {
	ref, err := m.Node(r.PathValue("name"))
	if err != nil {
		m.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ref.Daemon().StatusDirect())
}

func (m *Master) handleVMList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.VMs())
}

func (m *Master) handleVMSpawn(w http.ResponseWriter, r *http.Request) {
	var req SpawnVMRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, restapi.ErrorDoc{Error: "bad json: " + err.Error()})
		return
	}
	rec, err := m.SpawnVM(req)
	if err != nil {
		m.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, rec)
}

func (m *Master) handleVMGet(w http.ResponseWriter, r *http.Request) {
	rec, err := m.VM(r.PathValue("name"))
	if err != nil {
		m.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (m *Master) handleVMDelete(w http.ResponseWriter, r *http.Request) {
	if err := m.DestroyVM(r.PathValue("name")); err != nil {
		m.writeErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (m *Master) handleVMMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateVMRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, restapi.ErrorDoc{Error: "bad json: " + err.Error()})
		return
	}
	if err := m.MigrateVM(r.PathValue("name"), req, nil); err != nil {
		m.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "migrating"})
}

// LeaseDoc is the JSON view of one DHCP lease.
type LeaseDoc struct {
	MAC    string `json:"mac"`
	IP     string `json:"ip"`
	Pool   string `json:"pool"`
	Static bool   `json:"static"`
}

func (m *Master) handleLeases(w http.ResponseWriter, _ *http.Request) {
	leases := m.dhcp.Leases()
	out := make([]LeaseDoc, 0, len(leases))
	for _, l := range leases {
		out = append(out, LeaseDoc{MAC: string(l.MAC), IP: l.Addr.String(), Pool: l.Pool, Static: l.Static})
	}
	writeJSON(w, http.StatusOK, out)
}

// DNSDoc is the JSON view of one DNS record.
type DNSDoc struct {
	Name  string `json:"name"`
	Type  string `json:"type"`
	Value string `json:"value"`
}

func (m *Master) handleDNS(w http.ResponseWriter, _ *http.Request) {
	recs := m.dns.Dump()
	out := make([]DNSDoc, 0, len(recs))
	for _, rec := range recs {
		out = append(out, DNSDoc{Name: rec.Name, Type: rec.Type.String(), Value: rec.Value})
	}
	writeJSON(w, http.StatusOK, out)
}

func (m *Master) handleImages(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.images.List())
}

func (m *Master) handlePower(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, m.Power())
}

// StartLeaseSweeper arms periodic DHCP housekeeping: expired dynamic
// leases are reclaimed every period. Call under the cloud lock (it arms
// a simulation ticker); returns a stop function. Opt-in because a
// perpetual ticker keeps the event queue non-empty, which batch
// experiments that drain the queue would never finish.
func (m *Master) StartLeaseSweeper(period sim.Duration) func() {
	if period <= 0 {
		period = 15 * 60 * 1e9 // 15 minutes
	}
	ticker := m.engine.NewTicker(period, func(sim.Time) {
		m.dhcp.SweepExpired()
	})
	return ticker.Stop
}

// ImageOpRequest is the POST /images/{name}/{tag}/{op} body: patch adds
// a layer, upgrade replaces the base layer, spawn stamps a new name on
// the same layers — the pimaster "image upgrading, patching, and
// spawning" tools.
type ImageOpRequest struct {
	// NewTag names the resulting image's tag (patch/upgrade) and, with
	// NewName, the spawned reference.
	NewTag  string `json:"new_tag"`
	NewName string `json:"new_name,omitempty"` // spawn only
	// Layer describes the added/replacement layer (patch/upgrade).
	LayerSizeBytes int64    `json:"layer_size_bytes,omitempty"`
	LayerPackages  []string `json:"layer_packages,omitempty"`
	LayerNote      string   `json:"layer_note,omitempty"`
}

// handleImageOp serves POST /api/v1/images/{name}/{tag}/{op}.
func (m *Master) handleImageOp(w http.ResponseWriter, r *http.Request) {
	name, tag, op := r.PathValue("name"), r.PathValue("tag"), r.PathValue("op")
	var req ImageOpRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, restapi.ErrorDoc{Error: "bad json: " + err.Error()})
		return
	}
	ref := name + ":" + tag
	var (
		out *image.Image
		err error
	)
	switch op {
	case "patch", "upgrade":
		var layer image.Layer
		layer, err = image.NewLayer(req.LayerSizeBytes, req.LayerPackages, req.LayerNote)
		if err == nil && op == "patch" {
			out, err = m.images.Patch(ref, req.NewTag, layer)
		} else if err == nil {
			out, err = m.images.Upgrade(ref, req.NewTag, layer)
		}
	case "spawn":
		out, err = m.images.Spawn(ref, req.NewName, req.NewTag)
	default:
		writeJSON(w, http.StatusBadRequest, restapi.ErrorDoc{Error: fmt.Sprintf("unknown image op %q", op)})
		return
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, image.ErrNotFound) {
			code = http.StatusNotFound
		}
		if errors.Is(err, image.ErrExists) {
			code = http.StatusConflict
		}
		writeJSON(w, code, restapi.ErrorDoc{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"ref":        out.Ref(),
		"id":         out.ID(),
		"size_bytes": out.SizeBytes(),
		"layers":     len(out.Layers),
	})
}
