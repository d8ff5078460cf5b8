package fleet

import (
	"fmt"
	"hash/fnv"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"repro/internal/dhcp"
	"repro/internal/dns"
	"repro/internal/hw"
	"repro/internal/pimaster"
	"repro/internal/topology"
)

// hostPlan is one host's precomputed identity: everything registration
// needs, derived once per fleet shape instead of once per build.
type hostPlan struct {
	name string
	rack int
	idx  int // position within the rack; determines the static address
	mac  dhcp.MAC
	addr netip.Addr
	fqdn string
}

// rackRows is one rack's run of plan rows: hosts[start:start+n], in
// in-rack index order, and the rack's DHCP pool.
type rackRows struct {
	start, n int
	pool     string
}

// Plan is the immutable construction manifest for one fleet shape. It
// is safe to share across builds: every field is a value derived purely
// from the shape, never mutated after planFor returns, except the name
// index, which the first lookup by name builds once for every fleet of
// the shape. A plan is derived only from a fabric that passed
// topology.Validate, so a build from a cached plan skips the
// whole-fabric BFS.
//
// Its host rows are also the records pimaster's naming services answer
// fleet hosts from (pimaster.HostTable): a build or a fork attaches the
// plan and files nothing per host. Address and MAC lookups are
// arithmetic on the 10.<rack>.0.0/20 plan, since a rack's rows are
// contiguous and in index order.
type Plan struct {
	key   shapeKey
	hosts []hostPlan
	racks []rackRows
	// meterOrder lists the rows rack by rack, each rack's rows sorted
	// by host name: the order a build attaches the energy meters in,
	// and so the order every power and energy sum adds them. Name order
	// differs from index order past 100 hosts a rack (pi-r00-n100 sorts
	// before pi-r00-n11), and the kernel digests pin name order.
	meterOrder []int32

	nameOnce sync.Once
	byName   map[string]int32 // FQDN → row
}

var _ pimaster.HostTable = (*Plan)(nil)

// Hosts returns the number of planned hosts.
func (p *Plan) Hosts() int { return len(p.hosts) }

// Host returns row i's FQDN and static address.
func (p *Plan) Host(i int) (string, netip.Addr) { return p.hosts[i].fqdn, p.hosts[i].addr }

// Reservation returns row i's MAC, static address and rack pool.
func (p *Plan) Reservation(i int) (dhcp.MAC, netip.Addr, string) {
	h := &p.hosts[i]
	return h.mac, h.addr, p.racks[h.rack].pool
}

// RowOfName returns the row whose FQDN is name.
func (p *Plan) RowOfName(name string) (int, bool) {
	p.nameOnce.Do(func() {
		p.byName = make(map[string]int32, len(p.hosts))
		for i := range p.hosts {
			p.byName[p.hosts[i].fqdn] = int32(i)
		}
	})
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

// shapeKey identifies a fleet shape: every Config field that influences
// the wiring or the registration manifest. Seed, placement policy and
// routing policy deliberately excluded — they change behaviour, not
// shape. hw.BoardSpec is comparable (plain nested structs), so the key
// can index a map directly.
type shapeKey struct {
	racks, hostsPerRack int
	board               hw.BoardSpec
	fabric              topology.Fabric
	fatTreeK            int
	aggSwitches         int
	spineSwitches       int
	uplinkBps           float64
	linkLatencyNs       int64
}

// ShapeKey renders the config's fleet shape as a stable string:
// every field that influences the wiring or registration manifest, in
// declaration order. Two configs with equal ShapeKeys warm-boot from
// the same plan and produce byte-identical fabrics; the session layer
// keys its base-image registry on it (composed with the kernel state
// digest for checkpoint-backed images).
func (c Config) ShapeKey() string {
	c.FillDefaults()
	k := shapeOf(c)
	return fmt.Sprintf("r%d.h%d.b%x.f%d.k%d.a%d.s%d.u%g.l%d",
		k.racks, k.hostsPerRack, boardID(k.board), k.fabric,
		k.fatTreeK, k.aggSwitches, k.spineSwitches, k.uplinkBps, k.linkLatencyNs)
}

// boardID folds a board spec to a short stable identity for ShapeKey.
func boardID(b hw.BoardSpec) uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%+v", b)
	return h.Sum32()
}

// shapeOf derives the key from a defaults-filled config.
func shapeOf(cfg Config) shapeKey {
	return shapeKey{
		racks:         cfg.Racks,
		hostsPerRack:  cfg.HostsPerRack,
		board:         cfg.Board,
		fabric:        cfg.Fabric,
		fatTreeK:      cfg.FatTreeK,
		aggSwitches:   cfg.AggSwitches,
		spineSwitches: cfg.SpineSwitches,
		uplinkBps:     cfg.UplinkBps,
		linkLatencyNs: int64(cfg.LinkLatency),
	}
}

// planFor derives the manifest from a freshly wired and validated
// fabric, rack by rack. The in-rack index counts position within the
// rack, which matches the n<idx> suffix of the canonical host names for
// every fabric. Every fabric lays its racks end to end in Hosts; a
// shape that did not could not be looked up by arithmetic, so it is
// refused.
func planFor(cfg Config, topo *topology.Topology) (*Plan, error) {
	p := &Plan{
		key:        shapeOf(cfg),
		hosts:      make([]hostPlan, 0, len(topo.Hosts)),
		racks:      make([]rackRows, len(topo.Racks)),
		meterOrder: make([]int32, 0, len(topo.Hosts)),
	}
	for rack, hosts := range topo.Racks {
		start := len(p.hosts)
		p.racks[rack] = rackRows{start: start, n: len(hosts), pool: pimaster.RackPool(rack)}
		for idx, host := range hosts {
			if i := len(p.hosts); i >= len(topo.Hosts) || topo.Hosts[i] != host {
				return nil, fmt.Errorf("fleet: rack %d's host %s is not host %d of the fabric", rack, host, i)
			}
			p.meterOrder = append(p.meterOrder, int32(len(p.hosts)))
			p.hosts = append(p.hosts, hostPlan{
				name: string(host),
				rack: rack,
				idx:  idx,
				mac:  dhcp.NodeMAC(rack, idx),
				addr: pimaster.NodeAddr(rack, idx),
				fqdn: dns.NodeFQDN(rack, idx),
			})
		}
		slices.SortFunc(p.meterOrder[start:], func(a, b int32) int {
			return strings.Compare(p.hosts[a].name, p.hosts[b].name)
		})
	}
	if len(p.hosts) != len(topo.Hosts) {
		return nil, fmt.Errorf("fleet: racks hold %d hosts, fabric wired %d", len(p.hosts), len(topo.Hosts))
	}
	return p, nil
}

// --- Warm cache ---

// warmCacheCap bounds the process-wide plan cache; plans are cheap to
// re-derive, so overflowing simply resets the cache.
const warmCacheCap = 16

var (
	warmMu     sync.Mutex
	warmPlans  = map[shapeKey]*Plan{}
	warmHits   uint64
	warmMisses uint64
)

// lookupWarmPlan returns the cached plan for the config's shape, or nil.
func lookupWarmPlan(cfg Config) *Plan {
	warmMu.Lock()
	defer warmMu.Unlock()
	p := warmPlans[shapeOf(cfg)]
	if p != nil {
		warmHits++
	} else {
		warmMisses++
	}
	return p
}

// storeWarmPlan publishes a freshly derived plan.
func storeWarmPlan(p *Plan) {
	warmMu.Lock()
	defer warmMu.Unlock()
	if len(warmPlans) >= warmCacheCap {
		warmPlans = map[shapeKey]*Plan{}
	}
	warmPlans[p.key] = p
}

// WarmHits reports how many Assemble calls warm-booted from a cached
// plan (process-wide).
func WarmHits() uint64 {
	warmMu.Lock()
	defer warmMu.Unlock()
	return warmHits
}

// CacheStats is the warm plan cache's hit/miss/occupancy snapshot for
// the observability layer.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	Plans  int
}

// WarmCacheStats samples the process-wide plan cache counters.
func WarmCacheStats() CacheStats {
	warmMu.Lock()
	defer warmMu.Unlock()
	return CacheStats{Hits: warmHits, Misses: warmMisses, Plans: len(warmPlans)}
}

// ResetWarmCache drops all cached plans (test isolation).
func ResetWarmCache() {
	warmMu.Lock()
	defer warmMu.Unlock()
	warmPlans = map[shapeKey]*Plan{}
	warmHits = 0
	warmMisses = 0
}

// --- Snapshots ---

// Snapshot captures a booted fleet's construction state so an identical
// fleet can be warm-booted later. Simulated state (kernels, flows,
// meters) is inherently per-run and is rebuilt fresh; what the snapshot
// carries — and Restore skips — is everything derivable: the full
// registration manifest and the fabric-validation proof. Restored fleets are byte-identical to cold-built ones, traces
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

// Restore warm-boots a fresh fleet from the snapshot. seed overrides
// the captured seed when non-negative, so one snapshot serves a whole
// seed sweep.
func (s *Snapshot) Restore(cloudMu *sync.Mutex, seed int64) (*Result, error) {
	cfg := s.cfg
	if seed >= 0 {
		cfg.Seed = seed
	}
	return assemble(cfg, cloudMu, s.plan)
}
