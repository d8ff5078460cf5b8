package fleet

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dhcp"
	"repro/internal/dns"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/pimaster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// hostPlan is one host's precomputed identity: everything registration
// needs, derived once per cold build and shared by every fleet restored
// from its Snapshot.
type hostPlan struct {
	name string
	rack int
	idx  int // position within the rack; determines the static address
	mac  dhcp.MAC
	addr netip.Addr
	fqdn string
	// node is the host's netsim node index.
	node int32
	// slot is the host's position in its rack's cloud-meter group.
	slot int32
}

// rackRows is one rack's run of plan rows: hosts[start:start+n], in
// in-rack index order, and the rack's DHCP pool.
type rackRows struct {
	start, n int
	pool     string
}

// Plan is the immutable construction manifest for one fleet shape,
// derived by each cold build. It is safe to share across the builds a
// Snapshot restores: every field, the FQDN index included, is a value
// derived purely from the shape and never mutated after planFor
// returns. A plan is derived only from a fabric that passed
// topology.Validate, so a Snapshot.Restore from it skips the
// whole-fabric BFS.
//
// Its host rows are also the records pimaster's naming services answer
// fleet hosts from (the rows of each fleet's pimaster.HostTable): a
// build or a fork attaches the plan and files nothing per host. Address and MAC lookups are
// arithmetic on the 10.<rack>.0.0/20 plan, since a rack's rows are
// contiguous and in index order.
type Plan struct {
	// hosts are the rows. Each row's meter slot puts its rack's rows in
	// host-name order: the order every power and energy sum adds the
	// rack's meters in. Name order differs from index order past 100
	// hosts a rack (pi-r00-n100 sorts before pi-r00-n11), and the kernel
	// digests pin name order.
	hosts  []hostPlan
	racks  []rackRows
	byName map[string]int32 // FQDN → row
	// wiring and topo are the topology builder's fabric and its
	// topology, shared read-only by the cold build and every fleet
	// restored from the plan: each wires its network from the one and
	// reuses the other.
	wiring *netsim.Wiring
	topo   *topology.Topology
}

var _ pimaster.HostTable = (*hostTable)(nil)

// Hosts returns the number of planned hosts.
func (p *Plan) Hosts() int { return len(p.hosts) }

// NodeIndex returns row i's netsim node index.
func (p *Plan) NodeIndex(i int) int32 { return p.hosts[i].node }

// Host returns row i's FQDN and static address.
func (p *Plan) Host(i int) (string, netip.Addr) { return p.hosts[i].fqdn, p.hosts[i].addr }

// Reservation returns row i's MAC, static address and rack pool.
func (p *Plan) Reservation(i int) (dhcp.MAC, netip.Addr, string) {
	h := &p.hosts[i]
	return h.mac, h.addr, p.racks[h.rack].pool
}

// RowOfName returns the row whose FQDN is name.
func (p *Plan) RowOfName(name string) (int, bool) {
	i, ok := p.byName[name]
	return int(i), ok
}

// RowOfAddr returns the row whose static address is addr: the rack is
// the second octet and the in-rack index the host number minus 2.
func (p *Plan) RowOfAddr(addr netip.Addr) (int, bool) {
	if !addr.Is4() {
		return 0, false
	}
	b := addr.As4()
	if b[0] != 10 {
		return 0, false
	}
	i, ok := p.row(int(b[1]), int(b[2])<<8|int(b[3])-2)
	return i, ok && p.hosts[i].addr == addr
}

// RowOfMAC returns the row whose MAC is mac, decoded by
// dhcp.NodeMACPosition.
func (p *Plan) RowOfMAC(mac dhcp.MAC) (int, bool) {
	rack, idx, ok := dhcp.NodeMACPosition(mac)
	if !ok {
		return 0, false
	}
	i, ok := p.row(rack, idx)
	return i, ok && p.hosts[i].mac == mac
}

// row returns the row of the host at (rack, idx).
func (p *Plan) row(rack, idx int) (int, bool) {
	if rack < 0 || rack >= len(p.racks) || idx < 0 || idx >= p.racks[rack].n {
		return 0, false
	}
	return p.racks[rack].start + idx, true
}

// ShapeKey renders the config's fleet shape as a stable string: every
// field that influences the wiring or registration manifest, in
// declaration order. Seed, placement policy and routing policy are
// left out: they change behaviour, not shape. Two configs with equal
// ShapeKeys produce byte-identical fabrics and plans; the session layer
// keys its base-image registry on it (composed with the kernel state
// digest for checkpoint-backed images), so the string must not change.
func (c Config) ShapeKey() string {
	c.FillDefaults()
	return fmt.Sprintf("r%d.h%d.b%x.f%d.k%d.a%d.s%d.u%g.l%d",
		c.Racks, c.HostsPerRack, boardID(c.Board), c.Fabric,
		c.FatTreeK, c.AggSwitches, c.SpineSwitches, c.UplinkBps, int64(c.LinkLatency))
}

// boardID folds a board spec to a short stable identity for ShapeKey.
func boardID(b hw.BoardSpec) uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%+v", b)
	return h.Sum32()
}

// planFor derives the manifest from a freshly wired and validated
// fabric, rack by rack, with its FQDN index; nodes holds each host's
// node index, in Hosts order (topology.HostIndices). The in-rack index
// counts position within the rack, and each host must carry the
// canonical name of its rack and index, which the rows, DNS and DHCP
// assume. Every fabric lays its racks end to end in Hosts; a shape that
// did not could not be looked up by arithmetic, so it is refused. The
// rows' FQDNs are cut from one string, and so are their MACs, as the
// topology builders cut the host names.
func planFor(topo *topology.Topology, nodes []int32) (*Plan, error) {
	n := len(topo.Hosts)
	p := &Plan{
		hosts:  make([]hostPlan, 0, n),
		racks:  make([]rackRows, len(topo.Racks)),
		byName: make(map[string]int32, n),
	}
	// ends holds where each row's FQDN and MAC end in their buffers.
	fqdns := make([]byte, 0, n*len("pi-r00-n00."+dns.DefaultZone))
	macs := make([]byte, 0, n*len(dhcp.PiMACPrefix+":00:00:00"))
	ends := make([][2]int, 0, n)
	// Within a rack names differ only in the n<idx> suffix, so the name
	// order of a rack's rows depends on its size alone.
	orders := map[int][]int32{}
	var name []byte
	for rack, hosts := range topo.Racks {
		start := len(p.hosts)
		p.racks[rack] = rackRows{start: start, n: len(hosts), pool: pimaster.RackPool(rack)}
		for idx, host := range hosts {
			i := len(p.hosts)
			if i >= n || topo.Hosts[i] != host {
				return nil, fmt.Errorf("fleet: rack %d's host %s is not host %d of the fabric", rack, host, i)
			}
			if name = topology.AppendHostName(name[:0], rack, idx); string(name) != string(host) {
				return nil, fmt.Errorf("fleet: rack %d's host %d is %s, not %s", rack, idx, host, name)
			}
			fqdns = dns.AppendNodeFQDN(fqdns, rack, idx)
			macs = dhcp.AppendNodeMAC(macs, rack, idx)
			ends = append(ends, [2]int{len(fqdns), len(macs)})
			p.hosts = append(p.hosts, hostPlan{
				name: string(host),
				rack: rack,
				idx:  idx,
				addr: pimaster.NodeAddr(rack, idx),
				node: nodes[i],
			})
		}
		order, ok := orders[len(hosts)]
		if !ok {
			order = nameOrder(len(hosts))
			orders[len(hosts)] = order
		}
		for slot, j := range order {
			p.hosts[start+int(j)].slot = int32(slot)
		}
	}
	if len(p.hosts) != n {
		return nil, fmt.Errorf("fleet: racks hold %d hosts, fabric wired %d", len(p.hosts), n)
	}
	allFQDNs, allMACs := string(fqdns), string(macs)
	f, m := 0, 0
	for i, end := range ends {
		h := &p.hosts[i]
		h.fqdn, h.mac = allFQDNs[f:end[0]], dhcp.MAC(allMACs[m:end[1]])
		f, m = end[0], end[1]
		p.byName[h.fqdn] = int32(i)
	}
	return p, nil
}

// nameOrder returns the in-rack indices 0..n-1 sorted by host name.
func nameOrder(n int) []int32 {
	names := make([]netsim.NodeID, n)
	order := make([]int32, n)
	for i := range order {
		order[i], names[i] = int32(i), topology.HostName(0, i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return strings.Compare(string(names[a]), string(names[b]))
	})
	return order
}

// --- Snapshots ---

// Snapshot captures a booted fleet's construction state so an identical
// fleet can be warm-booted later; Restore is the only warm boot.
// Simulated state (kernels, flows, meters) is inherently per-run and is
// rebuilt fresh; what the snapshot carries — and Restore skips — is
// everything derivable: the full registration manifest, the fabric's
// wiring and its topology, and the fabric-validation proof. A restore
// runs no topology builder: it wires its network from the plan in
// bulk. Restored fleets are byte-identical to cold-built ones, traces
// included.
type Snapshot struct {
	cfg  Config
	plan *Plan
}

// Snapshot captures this fleet's shape and construction plan.
func (r *Result) Snapshot() *Snapshot {
	return &Snapshot{cfg: r.Config, plan: r.plan}
}

// Config returns the captured (defaults-filled) configuration.
func (s *Snapshot) Config() Config { return s.cfg }

// restores counts Snapshot.Restore calls, process-wide.
var restores atomic.Uint64

// WarmHits reports how many Snapshot.Restore calls, the only warm boot,
// the process has made: while it reads zero, every fleet the process
// built was a cold Assemble.
func WarmHits() uint64 { return restores.Load() }

// Restore warm-boots a fresh fleet from the snapshot. seed overrides
// the captured seed when non-negative, so one snapshot serves a whole
// seed sweep.
func (s *Snapshot) Restore(cloudMu *sync.Mutex, seed int64) (*Result, error) {
	restores.Add(1)
	cfg := s.cfg
	if seed >= 0 {
		cfg.Seed = seed
	}
	engine := sim.NewEngine(cfg.Seed)
	return assemble(cfg, cloudMu, s.plan, engine, netsim.Wire(engine, s.plan.wiring))
}
