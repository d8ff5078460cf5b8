// Package pimaster implements the PiCloud head node: the inventory of
// node daemons, placement-driven VM spawning, the DHCP and DNS services,
// image hosting, the migration driver and the outward-facing web control
// panel of Fig. 4. Per the paper, "an outward-facing webserver on
// pimaster provides a web-based control panel to users and
// administrators ... [which] interacts with the local daemons, and
// controls workloads running on the Pi devices using RESTful interfaces".
//
// Every node daemon runs in pimaster's process, so pimaster calls it
// through the daemon's direct methods (StatusDirect, SpawnDirect,
// DeleteDirect): the same work and request accounting as the daemon's
// HTTP handlers, without the transport. The daemon's HTTP API stays its
// outside surface, which remote callers reach through restapi.Client.
//
// Locking: pimaster's own registries are guarded by its internal mutex;
// the simulated cloud is guarded by the cloud-wide mutex shared with the
// node daemons and the engine driver. pimaster never holds its own mutex
// while acquiring the cloud mutex or calling a daemon (each daemon call
// locks the cloud itself).
package pimaster

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"

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
// builder stamps, pimaster registers and every layer above resolves.
type NodeRef struct {
	// Name is the node's host name and also its netsim host id (Host).
	Name string
	Host netsim.NodeID
	Rack int
	// Idx is the node's position within its rack, recorded at
	// registration; it fixes the node's static address and names its
	// VMs.
	Idx    int
	Daemon *restapi.Daemon
	// Suite and Meter are direct handles used for migration and power
	// accounting; all simulated-state access goes through the cloud
	// mutex.
	Suite *lxc.Suite
	Meter *energy.Meter
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
	// LeaseDuration for the DHCP service (default 12h).
	LeaseDuration sim.Duration
}

// Master is the head node.
type Master struct {
	mu sync.Mutex // guards vms, macSeq, placer swaps

	engine  *sim.Engine
	cloudMu *sync.Mutex
	ctrl    *sdn.Controller
	images  *image.Store
	meter   *energy.CloudMeter
	mig     *migration.Manager

	dhcp *dhcp.Server
	dns  *dns.Server

	nodes []*NodeRef
	// byName maps a node's name (its host id) to its index in nodes.
	byName map[string]int
	// rackOf is the immutable host → rack map shared (read-only) with
	// every placement view, so views skip an O(nodes) rebuild.
	rackOf map[netsim.NodeID]int

	placer placement.Placer
	policy placement.Policy

	vms    map[string]*VMRecord
	macSeq int
	// placerOverrides caches named placers requested per spawn, so
	// stateful algorithms (round-robin) keep their cursor across calls.
	placerOverrides map[string]placement.Placer

	// Boot-batch placement-view cache. During a bulk fleet spawn the
	// only cloud mutations are the spawns the master itself performs, so
	// instead of re-polling every node daemon per placement the measured
	// view is cached and only the just-placed node is re-polled. The
	// cache is valid while the engine has neither advanced nor fired an
	// event since it was filled; any master-side mutation drops it. Boot
	// batches are single-threaded by contract (the caller is the fleet
	// installer, not concurrent HTTP handlers).
	bootBatch   bool
	viewCache   []placement.NodeView // measured values, index-aligned with nodes
	viewScratch []placement.NodeView
	viewAt      sim.Time
	viewFired   uint64
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
		dhcp:            dhcp.NewServer(cfg.Engine, cfg.LeaseDuration),
		dns:             dns.NewServer(),
		byName:          make(map[string]int),
		rackOf:          make(map[netsim.NodeID]int),
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

// SetPlacer swaps the default placement algorithm at runtime.
func (m *Master) SetPlacer(p placement.Placer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.placer = p
}

// NodeAddr returns the static address a node at (rack, idxInRack) gets
// under the 10.<rack>.0.0/20 addressing plan: pool base + 2 + idx.
func NodeAddr(rack, idxInRack int) netip.Addr {
	hostNum := 2 + idxInRack
	return netip.AddrFrom4([4]byte{10, byte(rack), byte(hostNum >> 8), byte(hostNum)})
}

// NodeReg is one entry of a bulk registration: a node ref plus its
// precomputed addressing, so registration is pure map inserts. The
// fleet builder derives MAC, Addr and FQDN once per fleet shape in its
// construction plan; they must equal dhcp.NodeMAC(rack, idx),
// NodeAddr(rack, idx) and dns.NodeFQDN(rack, idx) respectively.
type NodeReg struct {
	Ref  *NodeRef
	Idx  int
	MAC  dhcp.MAC
	Addr netip.Addr
	FQDN string
}

// RegisterNode adds a node: a DHCP pool/lease for its rack, DNS records,
// and its in-rack index on the record. Racks get pool "rack<N>" with
// subnet 10.<N>.0.0/20 — room for ~4000 addresses per rack so scale-out
// fleets keep the same addressing plan as the published 4×14 testbed
// (small indices yield the identical 10.<rack>.0.<2+idx> addresses).
func (m *Master) RegisterNode(ref *NodeRef, idxInRack int) error {
	if err := checkReg(ref, idxInRack); err != nil {
		return err
	}
	return m.registerOne(NodeReg{
		Ref:  ref,
		Idx:  idxInRack,
		MAC:  dhcp.NodeMAC(ref.Rack, idxInRack),
		Addr: NodeAddr(ref.Rack, idxInRack),
		FQDN: dns.NodeFQDN(ref.Rack, idxInRack),
	}, rackPool(ref.Rack))
}

// RegisterNodes bulk-registers nodes with precomputed addressing — the
// fleet builder's boot path. Entries must arrive in topology (rack)
// order; the resulting registry state is identical to calling
// RegisterNode per entry. The registries are sized once for the whole
// batch and each rack's pool name is formatted once.
func (m *Master) RegisterNodes(regs []NodeReg) error {
	m.growRegistries(len(regs))
	pool, poolRack := "", -1
	for i := range regs {
		reg := &regs[i]
		if err := checkReg(reg.Ref, reg.Idx); err != nil {
			return err
		}
		if reg.Ref.Rack != poolRack {
			pool, poolRack = rackPool(reg.Ref.Rack), reg.Ref.Rack
		}
		if err := m.registerOne(*reg, pool); err != nil {
			return err
		}
	}
	return nil
}

// growRegistries makes room for n more nodes in the node registries, so
// a bulk registration fills them without growing them step by step.
func (m *Master) growRegistries(n int) {
	m.nodes = slices.Grow(m.nodes, n)
	m.byName = grownMap(m.byName, n)
	m.rackOf = grownMap(m.rackOf, n)
}

// grownMap returns a copy of m with room for n more entries.
func grownMap[K comparable, V any](m map[K]V, n int) map[K]V {
	g := make(map[K]V, len(m)+n)
	maps.Copy(g, m)
	return g
}

// rackPool names the DHCP pool of a rack.
func rackPool(rack int) string { return "rack" + strconv.Itoa(rack) }

// checkReg validates one registration's shape against the /20 plan.
func checkReg(ref *NodeRef, idxInRack int) error {
	if ref == nil || ref.Name == "" || ref.Daemon == nil {
		return fmt.Errorf("pimaster: incomplete node ref")
	}
	if string(ref.Host) != ref.Name {
		return fmt.Errorf("pimaster: node %s has host id %q; a node's name is its host id", ref.Name, ref.Host)
	}
	if ref.Rack < 0 || ref.Rack > 255 {
		return fmt.Errorf("pimaster: rack %d outside the 10.<rack>.0.0/20 addressing plan", ref.Rack)
	}
	// 0xFFF is the /20 broadcast address — also off limits.
	if idxInRack < 0 || 2+idxInRack >= 0xFFF {
		return fmt.Errorf("pimaster: node index %d outside the rack /20 pool", idxInRack)
	}
	return nil
}

// registerOne performs the validated registration into the rack's
// DHCP pool.
func (m *Master) registerOne(reg NodeReg, pool string) error {
	ref := reg.Ref
	if _, dup := m.byName[ref.Name]; dup {
		return fmt.Errorf("pimaster: node %s already registered", ref.Name)
	}
	if _, known := m.dhcp.Pool(pool); !known {
		subnet := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(ref.Rack), 0, 0}), 20)
		if err := m.dhcp.AddPoolPrefix(pool, subnet); err != nil && !errors.Is(err, dhcp.ErrPoolExists) {
			return err
		}
	}
	// Nodes get static reservations (the administrator's IP policy):
	// pool base + 2 + idx, immune to lease expiry.
	lease, err := m.dhcp.Reserve(pool, reg.MAC, reg.Addr)
	if err != nil {
		return err
	}
	if err := m.dns.RegisterHost(reg.FQDN, lease.Addr); err != nil {
		return err
	}
	ref.Idx = reg.Idx
	m.byName[ref.Name] = len(m.nodes)
	m.nodes = append(m.nodes, ref)
	m.rackOf[ref.Host] = ref.Rack
	m.invalidateView()
	return nil
}

// Nodes returns the registered nodes in order.
func (m *Master) Nodes() []*NodeRef { return append([]*NodeRef(nil), m.nodes...) }

// Node resolves a node by name, which is also its host id.
func (m *Master) Node(name string) (*NodeRef, error) {
	i, ok := m.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, name)
	}
	return m.nodes[i], nil
}

// BeginBootBatch enables the incremental placement-view cache for a
// bulk spawn sequence (the scenario installer's fleet boot). Inside a
// batch, SpawnVM re-polls only the node it just placed on instead of
// polling the whole fleet per placement — the difference between O(VMs)
// and O(VMs × nodes) status calls at 10⁵-node scale. The batch is
// single-threaded by contract; any non-spawn mutation drops the cache.
func (m *Master) BeginBootBatch() {
	m.mu.Lock()
	m.bootBatch = true
	m.viewCache = nil
	m.mu.Unlock()
}

// EndBootBatch disables the view cache and returns to poll-per-spawn.
func (m *Master) EndBootBatch() {
	m.mu.Lock()
	m.bootBatch = false
	m.viewCache = nil
	m.viewScratch = nil
	m.mu.Unlock()
}

// invalidateView drops the boot-batch view cache. Caller holds m.mu or
// is single-threaded with respect to the batch.
func (m *Master) invalidateView() { m.viewCache = nil }

// pollNode converts one daemon status into the placement view row.
func (m *Master) pollNode(ref *NodeRef) placement.NodeView {
	st := ref.Daemon.StatusDirect()
	return placement.NodeView{
		ID:            ref.Host,
		Rack:          ref.Rack,
		CPU:           hw.MIPS(st.CPUMIPS),
		CPUUsed:       hw.MIPS(st.CPUUtil * st.CPUMIPS),
		MemTotal:      st.MemTotal,
		MemUsed:       st.MemUsed,
		Containers:    st.Containers,
		MaxContainers: st.MaxComfort,
		PoweredOn:     st.PoweredOn,
	}
}

// buildView polls every node daemon's status and assembles the placement
// view. Inside a boot batch the measured rows come from the incremental
// cache (filled once, then patched per spawn); the reservation overlay
// is applied to a scratch copy so the cached measurements stay pristine.
func (m *Master) buildView() *placement.View {
	v := &placement.View{
		Locate: make(map[string]netsim.NodeID),
		Rack:   m.rackOf, // immutable after registration; placers only read
	}
	m.mu.Lock()
	batch := m.bootBatch
	cacheValid := batch && m.viewCache != nil &&
		m.viewAt == m.engine.Now() && m.viewFired == m.engine.Fired()
	m.mu.Unlock()
	if cacheValid {
		if cap(m.viewScratch) < len(m.viewCache) {
			m.viewScratch = make([]placement.NodeView, len(m.viewCache))
		}
		m.viewScratch = m.viewScratch[:len(m.viewCache)]
		copy(m.viewScratch, m.viewCache)
		v.Nodes = m.viewScratch
	} else {
		v.Nodes = make([]placement.NodeView, 0, len(m.nodes))
		for _, ref := range m.nodes {
			v.Nodes = append(v.Nodes, m.pollNode(ref))
		}
		if batch {
			m.mu.Lock()
			m.viewCache = append(m.viewCache[:0], v.Nodes...)
			m.viewAt = m.engine.Now()
			m.viewFired = m.engine.Fired()
			m.mu.Unlock()
		}
	}
	m.mu.Lock()
	reserved := make(map[string]hw.MIPS)
	for name, rec := range m.vms {
		if i, ok := m.byName[rec.Node]; ok {
			v.Locate[name] = m.nodes[i].Host
		}
		reserved[rec.Node] += hw.MIPS(rec.CPUDemandMIPS)
	}
	m.mu.Unlock()
	// Placement sees the larger of measured utilisation and declared
	// reservations, so idle-but-reserved capacity is not double-booked.
	// v.Nodes is index-aligned with m.nodes.
	for name, res := range reserved {
		if i, ok := m.byName[name]; ok && res > v.Nodes[i].CPUUsed {
			v.Nodes[i].CPUUsed = res
		}
	}
	return v
}

// refreshViewNode re-polls one node into the boot-batch cache after a
// spawn landed on it, so the next placement sees the spawn's memory and
// container-count deltas without a fleet-wide poll.
func (m *Master) refreshViewNode(ref *NodeRef) {
	m.mu.Lock()
	ok := m.bootBatch && m.viewCache != nil
	var idx int
	if ok {
		idx, ok = m.byName[ref.Name]
		ok = ok && idx < len(m.viewCache)
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	nv := m.pollNode(ref)
	m.mu.Lock()
	if !m.bootBatch || m.viewCache == nil {
		m.viewCache = nil
	} else {
		m.viewCache[idx] = nv
	}
	m.mu.Unlock()
}

// SpawnVM places and boots a VM cloud-wide: placement, DHCP lease, DNS
// registration, the node daemon's spawn, then the SDN label. A failed
// spawn leaves no lease, record or label behind.
func (m *Master) SpawnVM(req SpawnVMRequest) (*VMRecord, error) {
	if req.Name == "" || req.Image == "" {
		return nil, fmt.Errorf("pimaster: spawn needs name and image")
	}
	m.mu.Lock()
	if _, dup := m.vms[req.Name]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrVMExists, req.Name)
	}
	placer := m.placer
	if req.Placer != "" {
		cached, ok := m.placerOverrides[req.Placer]
		if !ok {
			var err error
			cached, err = placement.ByName(req.Placer)
			if err != nil {
				m.mu.Unlock()
				return nil, err
			}
			m.placerOverrides[req.Placer] = cached
		}
		placer = cached
	}
	m.mu.Unlock()
	view := m.buildView()
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
		return nil, err
	}
	ref, err := m.Node(string(host))
	if err != nil {
		return nil, err
	}
	// Address and name the VM.
	m.mu.Lock()
	m.macSeq++
	mac := dhcp.ContainerMAC(m.macSeq)
	m.mu.Unlock()
	lease, err := m.dhcp.Request(rackPool(ref.Rack), mac)
	if err != nil {
		return nil, fmt.Errorf("pimaster: leasing address: %w", err)
	}
	fqdn := dns.ContainerFQDN(req.Name, ref.Rack, ref.Idx)
	if err := m.dns.RegisterHost(fqdn, lease.Addr); err != nil {
		_ = m.dhcp.Release(mac)
		return nil, err
	}
	// Boot through the node's daemon.
	if _, err := ref.Daemon.SpawnDirect(restapi.SpawnRequest{
		Name:          req.Name,
		Image:         req.Image,
		MemLimitBytes: req.MemLimitBytes,
		CPUShares:     req.CPUShares,
		CPUQuotaMIPS:  req.CPUQuotaMIPS,
	}); err != nil {
		m.dns.RemoveName(fqdn)
		m.dns.RemoveName(dns.ReverseName(lease.Addr))
		_ = m.dhcp.Release(mac)
		return nil, err
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
	// Inside a boot batch, patch just this node's cached view row.
	m.refreshViewNode(ref)
	return rec, nil
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
	if err := ref.Daemon.DeleteDirect(name); err != nil {
		return err
	}
	m.dns.RemoveName(rec.FQDN)
	if addr, perr := netip.ParseAddr(rec.IP); perr == nil {
		m.dns.RemoveName(dns.ReverseName(addr))
	}
	_ = m.dhcp.Release(dhcp.MAC(rec.MAC))
	m.mu.Lock()
	delete(m.vms, name)
	m.invalidateView()
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
	m.mu.Lock()
	m.invalidateView()
	m.mu.Unlock()
	m.cloudMu.Lock()
	defer m.cloudMu.Unlock()
	return m.mig.Migrate(migration.Request{
		Container: name,
		SrcHost:   srcRef.Host,
		DstHost:   dstRef.Host,
		SrcSuite:  srcRef.Suite,
		DstSuite:  dstRef.Suite,
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
	out := make([]restapi.NodeStatus, 0, len(m.nodes))
	for _, ref := range m.nodes {
		out = append(out, ref.Daemon.StatusDirect())
	}
	writeJSON(w, http.StatusOK, out)
}

func (m *Master) handleNode(w http.ResponseWriter, r *http.Request) {
	ref, err := m.Node(r.PathValue("name"))
	if err != nil {
		m.writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ref.Daemon.StatusDirect())
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
