// Package topology builds the PiCloud network fabrics over the netsim
// substrate: the canonical multi-root tree of Fig. 2 (hosts → per-rack
// ToR switches → OpenFlow aggregation switches → university gateway), and
// the fat-tree and Clos/leaf-spine fabrics the paper says the clusters
// "can easily be re-cabled to form".
//
// A builder does not touch a live network: it records the fabric's
// nodes and cables by index into a netsim.WiringBuilder sized for them
// up front, and returns the finished netsim.Wiring with the Topology;
// netsim.Wire instantiates networks from the wiring. A Topology records
// which netsim nodes are hosts, ToR/edge, aggregation and core
// switches, plus the racks (Racks, laid end to end in Hosts) that
// placement, DHCP subnetting and the cross-rack traffic experiments
// rely on. Host names are cut from one string, and each rack is a run
// of Hosts.
package topology

import (
	"fmt"
	"iter"
	"strconv"
	"strings"
	"time"

	"repro/internal/netsim"
)

// Default link parameters for the PiCloud: Pi on-board Ethernet is
// 100 Mb/s; switch uplinks are gigabit; per-hop latency is that of a
// small store-and-forward Ethernet switch.
const (
	DefaultHostLinkBps   = 100e6
	DefaultUplinkBps     = 1e9
	DefaultLinkLatency   = 100 * time.Microsecond
	DefaultRacks         = 4
	DefaultHostsPerRack  = 14
	DefaultAggSwitches   = 2
	DefaultSpineSwitches = 2
)

// Fabric identifies the wiring pattern.
type Fabric int

// Supported fabrics.
const (
	FabricMultiRoot Fabric = iota + 1
	FabricFatTree
	FabricLeafSpine
)

// String names the fabric.
func (f Fabric) String() string {
	switch f {
	case FabricMultiRoot:
		return "multi-root-tree"
	case FabricFatTree:
		return "fat-tree"
	case FabricLeafSpine:
		return "leaf-spine"
	default:
		return fmt.Sprintf("fabric(%d)", int(f))
	}
}

// Topology describes a wired fabric's nodes by role.
type Topology struct {
	Fabric Fabric
	// Hosts lists every server NIC in deterministic order: every
	// builder wires Racks laid end to end.
	Hosts []netsim.NodeID
	// Racks groups hosts by rack (or pod/leaf for the alternative
	// fabrics); Racks[i] lists the hosts in rack i.
	Racks [][]netsim.NodeID
	// Edge lists every ToR, leaf or edge switch in creation order. On
	// the multi-root tree and leaf-spine there is one per rack, so Edge
	// is index-aligned with Racks; a fat-tree rack is a pod with k/2 of
	// them. RackEdges says which belong to which rack.
	Edge []netsim.NodeID
	// RackEdges lists each rack's edge switches, index-aligned with
	// Racks: the rack's ToR or leaf, or a fat-tree pod's k/2 edge
	// switches.
	RackEdges [][]netsim.NodeID
	// Agg lists the aggregation (OpenFlow) switches.
	Agg []netsim.NodeID
	// Core lists core switches; for the PiCloud multi-root tree this is
	// the single university gateway.
	Core []netsim.NodeID
}

// Switches returns all switch IDs: edge, aggregation, core.
func (t *Topology) Switches() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(t.Edge)+len(t.Agg)+len(t.Core))
	out = append(out, t.Edge...)
	out = append(out, t.Agg...)
	out = append(out, t.Core...)
	return out
}

// HostName formats the canonical PiCloud host name: pi-r<rack>-n<idx>.
func HostName(rack, idx int) netsim.NodeID {
	var buf [24]byte
	return netsim.NodeID(AppendHostName(buf[:0], rack, idx))
}

// AppendHostName appends HostName(rack, idx) to buf. Both numbers print
// as fmt's %02d does: at least two digits, zero-padded.
func AppendHostName(buf []byte, rack, idx int) []byte {
	buf = append(buf, "pi-r"...)
	buf = appendPad2(buf, rack)
	buf = append(buf, "-n"...)
	return appendPad2(buf, idx)
}

// appendPad2 appends n in decimal with at least two digits, like %02d.
func appendPad2(buf []byte, n int) []byte {
	if n >= 0 && n < 10 {
		return append(buf, '0', byte('0'+n))
	}
	return strconv.AppendInt(buf, int64(n), 10)
}

// MultiRootConfig parameterises the canonical PiCloud fabric of Fig. 2.
type MultiRootConfig struct {
	Racks        int
	HostsPerRack int
	// AggSwitches is the number of aggregation roots (the "multi-root"
	// of the tree); the prototype uses OpenFlow switches here.
	AggSwitches int
	HostLinkBps float64
	UplinkBps   float64
	Latency     time.Duration
}

// DefaultMultiRoot returns the published PiCloud shape: 4 racks × 14 Pis
// with 2 aggregation roots and a single gateway.
func DefaultMultiRoot() MultiRootConfig {
	return MultiRootConfig{
		Racks:        DefaultRacks,
		HostsPerRack: DefaultHostsPerRack,
		AggSwitches:  DefaultAggSwitches,
		HostLinkBps:  DefaultHostLinkBps,
		UplinkBps:    DefaultUplinkBps,
		Latency:      DefaultLinkLatency,
	}
}

func (c *MultiRootConfig) fillDefaults() {
	if c.HostLinkBps == 0 {
		c.HostLinkBps = DefaultHostLinkBps
	}
	if c.UplinkBps == 0 {
		c.UplinkBps = DefaultUplinkBps
	}
	if c.Latency == 0 {
		c.Latency = DefaultLinkLatency
	}
	if c.AggSwitches == 0 {
		c.AggSwitches = DefaultAggSwitches
	}
}

// BuildMultiRoot wires the canonical multi-root tree: hosts in rack r
// connect to tor-r; every ToR connects to every aggregation switch;
// every aggregation switch connects to the gateway (core/border
// router). It returns the topology and the fabric's wiring, from which
// netsim.Wire instantiates the network.
func BuildMultiRoot(cfg MultiRootConfig) (*Topology, *netsim.Wiring, error) {
	cfg.fillDefaults()
	if cfg.Racks <= 0 || cfg.HostsPerRack <= 0 {
		return nil, nil, fmt.Errorf("topology: need positive racks and hosts per rack, got %d×%d", cfg.Racks, cfg.HostsPerRack)
	}
	if cfg.AggSwitches < 0 {
		return nil, nil, fmt.Errorf("topology: need a non-negative number of aggregation switches, got %d", cfg.AggSwitches)
	}
	r, h, a := cfg.Racks, cfg.HostsPerRack, cfg.AggSwitches
	t := &Topology{
		Fabric:    FabricMultiRoot,
		Edge:      make([]netsim.NodeID, 0, r),
		RackEdges: make([][]netsim.NodeID, 0, r),
	}
	t.Hosts, t.Racks = hostNames(r, func(int) int { return h })
	f := newFabric(1+a+r*(1+h), a+r*(a+h))

	gw := netsim.NodeID("gw-00")
	t.Core = []netsim.NodeID{gw}
	gwi := f.node(gw, netsim.KindSwitch)
	aggs := make([]int32, a)
	for i := range aggs {
		agg := netsim.NodeID(fmt.Sprintf("agg-%02d", i))
		aggs[i] = f.node(agg, netsim.KindSwitch)
		f.cable(aggs[i], gwi, cfg.UplinkBps, cfg.Latency)
		t.Agg = append(t.Agg, agg)
	}
	for rack, hosts := range t.Racks {
		tor := netsim.NodeID(fmt.Sprintf("tor-%02d", rack))
		tori := f.node(tor, netsim.KindSwitch)
		for _, agg := range aggs {
			f.cable(tori, agg, cfg.UplinkBps, cfg.Latency)
		}
		t.Edge = append(t.Edge, tor)
		t.RackEdges = append(t.RackEdges, t.Edge[rack:rack+1:rack+1])
		for _, host := range hosts {
			f.cable(f.node(host, netsim.KindHost), tori, cfg.HostLinkBps, cfg.Latency)
		}
	}
	return f.finish(t)
}

// fabric records a fabric's nodes and cables, in creation order, into a
// netsim wiring builder sized for them. It keeps the first refusal and
// records nothing after it.
type fabric struct {
	b   *netsim.WiringBuilder
	err error
}

func newFabric(nodes, cables int) *fabric {
	return &fabric{b: netsim.NewWiringBuilder(nodes, cables)}
}

// node records a device and returns its node index.
func (f *fabric) node(id netsim.NodeID, kind netsim.NodeKind) int32 {
	if f.err != nil {
		return -1
	}
	i, err := f.b.AddNode(id, kind)
	f.err = err
	return i
}

// cable records a duplex cable between nodes a and b.
func (f *fabric) cable(a, b int32, capacityBps float64, latency time.Duration) {
	if f.err == nil {
		f.err = f.b.AddDuplexLink(a, b, capacityBps, latency)
	}
}

// finish returns t with the finished wiring, or the first refusal.
func (f *fabric) finish(t *Topology) (*Topology, *netsim.Wiring, error) {
	if f.err != nil {
		return nil, nil, f.err
	}
	w, err := f.b.Finish()
	if err != nil {
		return nil, nil, err
	}
	return t, w, nil
}

// hostNames returns the canonical names of every host, racks laid end
// to end with size(r) hosts in rack r, and each rack's run of them (nil
// for an empty rack). The names are cut from one string, so naming a
// fabric's hosts makes a few allocations, not one per host.
func hostNames(racks int, size func(rack int) int) ([]netsim.NodeID, [][]netsim.NodeID) {
	total := 0
	for r := 0; r < racks; r++ {
		total += size(r)
	}
	buf := make([]byte, 0, total*len("pi-r00-n00"))
	ends := make([]int, 0, total)
	for r := 0; r < racks; r++ {
		for i := 0; i < size(r); i++ {
			buf = AppendHostName(buf, r, i)
			ends = append(ends, len(buf))
		}
	}
	all := string(buf)
	hosts := make([]netsim.NodeID, total)
	start := 0
	for k, end := range ends {
		hosts[k], start = netsim.NodeID(all[start:end]), end
	}
	byRack := make([][]netsim.NodeID, racks)
	start = 0
	for r := range byRack {
		if n := size(r); n > 0 {
			byRack[r] = hosts[start : start+n : start+n]
			start += n
		}
	}
	return hosts, byRack
}

// Uplinks yields the uplinks of edge switch e: its links to other
// switches, in the order of its hop array, down ones included. A rack's
// uplinks are those of its edge switches (RackEdges); its cross-rack
// traffic and the rack faults both read them here. Every builder cables
// an edge switch to its uplink switches in Agg (or Core, for the
// leaf-spine spines) order before its hosts.
func Uplinks(net *netsim.Network, e netsim.NodeID) iter.Seq[*netsim.Link] {
	return func(yield func(*netsim.Link) bool) {
		for _, h := range net.NeighborLinks(e) {
			if h.Kind() == netsim.KindSwitch && !yield(h.Link()) {
				return
			}
		}
	}
}

// FatTreeConfig parameterises a k-ary fat-tree. k must be even and ≥ 2.
// Hosts may be fewer than the fabric's k³/4 capacity; they fill edge
// switches in order. 56 Pis need k=8 (capacity 128); k=6 holds 54.
type FatTreeConfig struct {
	K           int
	Hosts       int // 0 means fill to capacity (k³/4)
	HostLinkBps float64
	UplinkBps   float64
	Latency     time.Duration
}

// BuildFatTree wires a k-ary fat-tree: k pods each with k/2 edge and k/2
// aggregation switches, and (k/2)² core switches. Edge switch e of pod p
// connects to all k/2 aggregation switches of p; aggregation switch a of
// p connects to core switches a·k/2 … a·k/2+k/2-1. Racks are pods. It
// returns the topology and the fabric's wiring.
func BuildFatTree(cfg FatTreeConfig) (*Topology, *netsim.Wiring, error) {
	if cfg.K < 2 || cfg.K%2 != 0 {
		return nil, nil, fmt.Errorf("topology: fat-tree k must be even and ≥2, got %d", cfg.K)
	}
	if cfg.HostLinkBps == 0 {
		cfg.HostLinkBps = DefaultHostLinkBps
	}
	if cfg.UplinkBps == 0 {
		cfg.UplinkBps = DefaultUplinkBps
	}
	if cfg.Latency == 0 {
		cfg.Latency = DefaultLinkLatency
	}
	k := cfg.K
	half := k / 2
	perPod := half * half // hosts per pod: k/2 edge switches of k/2 hosts
	capacity := k * perPod
	hosts := cfg.Hosts
	if hosts == 0 {
		hosts = capacity
	}
	if hosts < 0 {
		return nil, nil, fmt.Errorf("topology: fat-tree needs a non-negative host count, got %d", hosts)
	}
	if hosts > capacity {
		return nil, nil, fmt.Errorf("topology: %d hosts exceed k=%d fat-tree capacity %d", hosts, k, capacity)
	}
	t := &Topology{
		Fabric:    FabricFatTree,
		Core:      make([]netsim.NodeID, perPod),
		Agg:       make([]netsim.NodeID, 0, k*half),
		Edge:      make([]netsim.NodeID, 0, k*half),
		RackEdges: make([][]netsim.NodeID, k),
	}
	// Pods fill in order, k/2 hosts to an edge switch.
	t.Hosts, t.Racks = hostNames(k, func(pod int) int { return min(perPod, max(0, hosts-pod*perPod)) })
	f := newFabric(perPod+k*k+hosts, k*k*half+hosts)

	cores := make([]int32, perPod)
	for c := range cores {
		t.Core[c] = netsim.NodeID(fmt.Sprintf("coresw-%02d", c))
		cores[c] = f.node(t.Core[c], netsim.KindSwitch)
	}
	// Pods. A pod's edge switches are its rack's, so each pod's run of
	// t.Edge doubles as its RackEdges entry.
	edges := make([]int32, 0, k*half)
	podAggs := make([]int32, half)
	for p := 0; p < k; p++ {
		for a := range podAggs {
			agg := netsim.NodeID(fmt.Sprintf("aggsw-p%02d-%02d", p, a))
			podAggs[a] = f.node(agg, netsim.KindSwitch)
			for _, core := range cores[a*half : (a+1)*half] {
				f.cable(podAggs[a], core, cfg.UplinkBps, cfg.Latency)
			}
			t.Agg = append(t.Agg, agg)
		}
		for e := 0; e < half; e++ {
			edge := netsim.NodeID(fmt.Sprintf("edge-p%02d-%02d", p, e))
			ei := f.node(edge, netsim.KindSwitch)
			for _, agg := range podAggs {
				f.cable(ei, agg, cfg.UplinkBps, cfg.Latency)
			}
			t.Edge = append(t.Edge, edge)
			edges = append(edges, ei)
		}
		n := len(t.Edge)
		t.RackEdges[p] = t.Edge[n-half : n : n]
	}
	// Hosts fill the edge switches in order; rack = pod of the edge.
	for i, host := range t.Hosts {
		f.cable(f.node(host, netsim.KindHost), edges[i/half], cfg.HostLinkBps, cfg.Latency)
	}
	return f.finish(t)
}

// LeafSpineConfig parameterises a 2-tier Clos (leaf-spine) fabric: every
// leaf connects to every spine.
type LeafSpineConfig struct {
	Leaves       int
	Spines       int
	HostsPerLeaf int
	HostLinkBps  float64
	UplinkBps    float64
	Latency      time.Duration
}

// DefaultLeafSpine matches the PiCloud scale: 4 leaves of 14 hosts and 2
// spines (the paper's conclusion describes the build as "a DC Clos
// network topology").
func DefaultLeafSpine() LeafSpineConfig {
	return LeafSpineConfig{
		Leaves:       DefaultRacks,
		Spines:       DefaultSpineSwitches,
		HostsPerLeaf: DefaultHostsPerRack,
		HostLinkBps:  DefaultHostLinkBps,
		UplinkBps:    DefaultUplinkBps,
		Latency:      DefaultLinkLatency,
	}
}

// BuildLeafSpine wires the 2-tier Clos and returns the topology and the
// fabric's wiring.
func BuildLeafSpine(cfg LeafSpineConfig) (*Topology, *netsim.Wiring, error) {
	if cfg.Leaves <= 0 || cfg.Spines <= 0 || cfg.HostsPerLeaf <= 0 {
		return nil, nil, fmt.Errorf("topology: leaf-spine needs positive dimensions")
	}
	if cfg.HostLinkBps == 0 {
		cfg.HostLinkBps = DefaultHostLinkBps
	}
	if cfg.UplinkBps == 0 {
		cfg.UplinkBps = DefaultUplinkBps
	}
	if cfg.Latency == 0 {
		cfg.Latency = DefaultLinkLatency
	}
	l, sp, h := cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf
	t := &Topology{
		Fabric:    FabricLeafSpine,
		Core:      make([]netsim.NodeID, sp),
		Edge:      make([]netsim.NodeID, l),
		RackEdges: make([][]netsim.NodeID, l),
	}
	t.Hosts, t.Racks = hostNames(l, func(int) int { return h })
	f := newFabric(sp+l*(1+h), l*(sp+h))
	spines := make([]int32, sp)
	for i := range spines {
		t.Core[i] = netsim.NodeID(fmt.Sprintf("spine-%02d", i))
		spines[i] = f.node(t.Core[i], netsim.KindSwitch)
	}
	for leaf, hosts := range t.Racks {
		t.Edge[leaf] = netsim.NodeID(fmt.Sprintf("leaf-%02d", leaf))
		t.RackEdges[leaf] = t.Edge[leaf : leaf+1 : leaf+1]
		li := f.node(t.Edge[leaf], netsim.KindSwitch)
		for _, spine := range spines {
			f.cable(li, spine, cfg.UplinkBps, cfg.Latency)
		}
		for _, host := range hosts {
			f.cable(f.node(host, netsim.KindHost), li, cfg.HostLinkBps, cfg.Latency)
		}
	}
	return f.finish(t)
}

// Validate checks structural invariants of the wired fabric: every host
// has exactly one up link (to its edge switch), every node is reachable
// from the first host, and racks partition the hosts.
func Validate(t *Topology, net *netsim.Network) error {
	_, err := HostIndices(t, net)
	return err
}

// HostIndices validates the wired fabric as Validate does and returns
// each host's node index, in Hosts order. It walks the network by dense
// node index, with one mark per node, and resolves each host name once:
// a rack host that is also the next host of Hosts, as on every fabric
// the builders wire, reuses that host's index.
func HostIndices(t *Topology, net *netsim.Network) ([]int32, error) {
	if len(t.Hosts) == 0 {
		return nil, fmt.Errorf("topology: no hosts")
	}
	nodes := make([]int32, len(t.Hosts))
	for i, h := range t.Hosts {
		nodes[i] = indexOf(net, h)
	}
	inRack := make([]bool, net.NodeCount())
	racked := 0
	for _, rack := range t.Racks {
		for _, h := range rack {
			var nd int32
			if racked < len(t.Hosts) && t.Hosts[racked] == h {
				nd = nodes[racked]
			} else {
				nd = indexOf(net, h)
			}
			if nd < 0 {
				return nil, fmt.Errorf("topology: rack host %s is not in the network", h)
			}
			if inRack[nd] {
				return nil, fmt.Errorf("topology: host %s in two racks", h)
			}
			inRack[nd] = true
			racked++
		}
	}
	if racked != len(t.Hosts) {
		return nil, fmt.Errorf("topology: racks hold %d hosts, topology lists %d", racked, len(t.Hosts))
	}
	for i, h := range t.Hosts {
		nd := nodes[i]
		if nd < 0 || !inRack[nd] {
			return nil, fmt.Errorf("topology: host %s not in any rack", h)
		}
		up := 0
		for _, hop := range net.LinksFrom(nd) {
			if hop.Up() {
				up++
			}
		}
		if up != 1 {
			return nil, fmt.Errorf("topology: host %s has %d links, want 1", h, up)
		}
	}
	// BFS connectivity from the first host.
	visited := make([]bool, net.NodeCount())
	visited[nodes[0]] = true
	queue := make([]int32, 1, net.NodeCount())
	queue[0] = nodes[0]
	for head := 0; head < len(queue); head++ {
		for _, hop := range net.LinksFrom(queue[head]) {
			if nb := hop.To(); hop.Up() && !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	want := len(t.Hosts) + len(t.Switches())
	if len(queue) != want {
		return nil, fmt.Errorf("topology: only %d of %d nodes reachable", len(queue), want)
	}
	return nodes, nil
}

// indexOf returns the index of the named node, or -1.
func indexOf(net *netsim.Network, id netsim.NodeID) int32 {
	if nd := net.Node(id); nd != nil {
		return nd.Index()
	}
	return -1
}

// Render draws the rack layout as ASCII art — the reproduction of Fig. 1
// (four PiCloud racks). Each cell is one Pi.
func Render(t *Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "PiCloud fabric: %s — %d hosts in %d racks\n", t.Fabric, len(t.Hosts), len(t.Racks))
	for r, rack := range t.Racks {
		fmt.Fprintf(&b, "rack %d %v\n", r, t.RackEdges[r])
		for _, h := range rack {
			fmt.Fprintf(&b, "  ├─ %s\n", h)
		}
	}
	fmt.Fprintf(&b, "aggregation: %v\n", t.Agg)
	fmt.Fprintf(&b, "core/gateway: %v\n", t.Core)
	return b.String()
}
