// Package topology builds the PiCloud network fabrics over the netsim
// substrate: the canonical multi-root tree of Fig. 2 (hosts → per-rack
// ToR switches → OpenFlow aggregation switches → university gateway), and
// the fat-tree and Clos/leaf-spine fabrics the paper says the clusters
// "can easily be re-cabled to form".
//
// A Topology records which netsim nodes are hosts, ToR/edge, aggregation
// and core switches, plus the racks (Racks, laid end to end in Hosts)
// that placement, DHCP subnetting and the cross-rack traffic experiments
// rely on.
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

// Topology is the result of wiring a fabric into a netsim.Network.
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

// BuildMultiRoot wires the canonical multi-root tree into net: hosts in
// rack r connect to tor-r; every ToR connects to every aggregation
// switch; every aggregation switch connects to the gateway (core/border
// router).
func BuildMultiRoot(net *netsim.Network, cfg MultiRootConfig) (*Topology, error) {
	cfg.fillDefaults()
	if cfg.Racks <= 0 || cfg.HostsPerRack <= 0 {
		return nil, fmt.Errorf("topology: need positive racks and hosts per rack, got %d×%d", cfg.Racks, cfg.HostsPerRack)
	}
	t := &Topology{Fabric: FabricMultiRoot}

	gw := netsim.NodeID("gw-00")
	if err := net.AddNode(gw, netsim.KindSwitch); err != nil {
		return nil, err
	}
	t.Core = []netsim.NodeID{gw}

	for a := 0; a < cfg.AggSwitches; a++ {
		agg := netsim.NodeID(fmt.Sprintf("agg-%02d", a))
		if err := net.AddNode(agg, netsim.KindSwitch); err != nil {
			return nil, err
		}
		if err := net.AddDuplexLink(agg, gw, cfg.UplinkBps, cfg.Latency); err != nil {
			return nil, err
		}
		t.Agg = append(t.Agg, agg)
	}

	for r := 0; r < cfg.Racks; r++ {
		tor := netsim.NodeID(fmt.Sprintf("tor-%02d", r))
		if err := net.AddNode(tor, netsim.KindSwitch); err != nil {
			return nil, err
		}
		for _, agg := range t.Agg {
			if err := net.AddDuplexLink(tor, agg, cfg.UplinkBps, cfg.Latency); err != nil {
				return nil, err
			}
		}
		t.Edge = append(t.Edge, tor)
		t.RackEdges = append(t.RackEdges, []netsim.NodeID{tor})

		var rack []netsim.NodeID
		for h := 0; h < cfg.HostsPerRack; h++ {
			host := HostName(r, h)
			if err := net.AddNode(host, netsim.KindHost); err != nil {
				return nil, err
			}
			if err := net.AddDuplexLink(host, tor, cfg.HostLinkBps, cfg.Latency); err != nil {
				return nil, err
			}
			rack = append(rack, host)
			t.Hosts = append(t.Hosts, host)
		}
		t.Racks = append(t.Racks, rack)
	}
	return finishBuild(net, t)
}

// finishBuild seals a wired fabric: the topology epoch is bumped once
// more so SDN route caches keyed on it can never survive a build or
// re-cable, whatever mix of netsim mutations produced the fabric.
func finishBuild(net *netsim.Network, t *Topology) (*Topology, error) {
	net.BumpTopoEpoch()
	return t, nil
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
// p connects to core switches a·k/2 … a·k/2+k/2-1. Racks are pods.
func BuildFatTree(net *netsim.Network, cfg FatTreeConfig) (*Topology, error) {
	if cfg.K < 2 || cfg.K%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree k must be even and ≥2, got %d", cfg.K)
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
	capacity := k * k * k / 4
	hosts := cfg.Hosts
	if hosts == 0 {
		hosts = capacity
	}
	if hosts > capacity {
		return nil, fmt.Errorf("topology: %d hosts exceed k=%d fat-tree capacity %d", hosts, k, capacity)
	}
	t := &Topology{Fabric: FabricFatTree}

	// Core switches.
	for c := 0; c < k*k/4; c++ {
		id := netsim.NodeID(fmt.Sprintf("coresw-%02d", c))
		if err := net.AddNode(id, netsim.KindSwitch); err != nil {
			return nil, err
		}
		t.Core = append(t.Core, id)
	}
	// Pods. A pod's edge switches are its rack's, so each pod's run of
	// t.Edge doubles as its RackEdges entry.
	t.Edge = make([]netsim.NodeID, 0, k*k/2)
	for p := 0; p < k; p++ {
		var podAggs []netsim.NodeID
		for a := 0; a < k/2; a++ {
			agg := netsim.NodeID(fmt.Sprintf("aggsw-p%02d-%02d", p, a))
			if err := net.AddNode(agg, netsim.KindSwitch); err != nil {
				return nil, err
			}
			for i := 0; i < k/2; i++ {
				core := t.Core[a*(k/2)+i]
				if err := net.AddDuplexLink(agg, core, cfg.UplinkBps, cfg.Latency); err != nil {
					return nil, err
				}
			}
			podAggs = append(podAggs, agg)
			t.Agg = append(t.Agg, agg)
		}
		for e := 0; e < k/2; e++ {
			edge := netsim.NodeID(fmt.Sprintf("edge-p%02d-%02d", p, e))
			if err := net.AddNode(edge, netsim.KindSwitch); err != nil {
				return nil, err
			}
			for _, agg := range podAggs {
				if err := net.AddDuplexLink(edge, agg, cfg.UplinkBps, cfg.Latency); err != nil {
					return nil, err
				}
			}
			t.Edge = append(t.Edge, edge)
		}
		t.Racks = append(t.Racks, nil)
		n := len(t.Edge)
		t.RackEdges = append(t.RackEdges, t.Edge[n-k/2:n:n])
	}
	// Hosts round-robin over edge switches; rack = pod of the edge.
	perEdge := k / 2 // max hosts per edge switch
	placed := 0
	for ei, edge := range t.Edge {
		pod := ei / (k / 2)
		for s := 0; s < perEdge && placed < hosts; s++ {
			host := HostName(pod, len(t.Racks[pod]))
			if err := net.AddNode(host, netsim.KindHost); err != nil {
				return nil, err
			}
			if err := net.AddDuplexLink(host, edge, cfg.HostLinkBps, cfg.Latency); err != nil {
				return nil, err
			}
			t.Hosts = append(t.Hosts, host)
			t.Racks[pod] = append(t.Racks[pod], host)
			placed++
		}
	}
	return finishBuild(net, t)
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

// BuildLeafSpine wires the 2-tier Clos.
func BuildLeafSpine(net *netsim.Network, cfg LeafSpineConfig) (*Topology, error) {
	if cfg.Leaves <= 0 || cfg.Spines <= 0 || cfg.HostsPerLeaf <= 0 {
		return nil, fmt.Errorf("topology: leaf-spine needs positive dimensions")
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
	t := &Topology{Fabric: FabricLeafSpine}
	for s := 0; s < cfg.Spines; s++ {
		spine := netsim.NodeID(fmt.Sprintf("spine-%02d", s))
		if err := net.AddNode(spine, netsim.KindSwitch); err != nil {
			return nil, err
		}
		t.Core = append(t.Core, spine)
	}
	for l := 0; l < cfg.Leaves; l++ {
		leaf := netsim.NodeID(fmt.Sprintf("leaf-%02d", l))
		if err := net.AddNode(leaf, netsim.KindSwitch); err != nil {
			return nil, err
		}
		for _, spine := range t.Core {
			if err := net.AddDuplexLink(leaf, spine, cfg.UplinkBps, cfg.Latency); err != nil {
				return nil, err
			}
		}
		t.Edge = append(t.Edge, leaf)
		t.RackEdges = append(t.RackEdges, []netsim.NodeID{leaf})
		var rack []netsim.NodeID
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			host := HostName(l, h)
			if err := net.AddNode(host, netsim.KindHost); err != nil {
				return nil, err
			}
			if err := net.AddDuplexLink(host, leaf, cfg.HostLinkBps, cfg.Latency); err != nil {
				return nil, err
			}
			rack = append(rack, host)
			t.Hosts = append(t.Hosts, host)
		}
		t.Racks = append(t.Racks, rack)
	}
	return finishBuild(net, t)
}

// Validate checks structural invariants of the wired fabric: every host
// has exactly one up link (to its edge switch), every node is reachable
// from the first host, and racks partition the hosts. It walks the
// network by dense node index, with one mark per node.
func Validate(t *Topology, net *netsim.Network) error {
	if len(t.Hosts) == 0 {
		return fmt.Errorf("topology: no hosts")
	}
	inRack := make([]bool, net.NodeCount())
	racked := 0
	for _, rack := range t.Racks {
		for _, h := range rack {
			nd := net.Node(h)
			if nd == nil {
				return fmt.Errorf("topology: rack host %s is not in the network", h)
			}
			if inRack[nd.Index()] {
				return fmt.Errorf("topology: host %s in two racks", h)
			}
			inRack[nd.Index()] = true
			racked++
		}
	}
	if racked != len(t.Hosts) {
		return fmt.Errorf("topology: racks hold %d hosts, topology lists %d", racked, len(t.Hosts))
	}
	for _, h := range t.Hosts {
		nd := net.Node(h)
		if nd == nil || !inRack[nd.Index()] {
			return fmt.Errorf("topology: host %s not in any rack", h)
		}
		up := 0
		for _, hop := range net.LinksFrom(nd.Index()) {
			if hop.Up() {
				up++
			}
		}
		if up != 1 {
			return fmt.Errorf("topology: host %s has %d links, want 1", h, up)
		}
	}
	// BFS connectivity from the first host.
	start := net.Node(t.Hosts[0]).Index()
	visited := make([]bool, net.NodeCount())
	visited[start] = true
	queue := make([]int32, 1, net.NodeCount())
	queue[0] = start
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
		return fmt.Errorf("topology: only %d of %d nodes reachable", len(queue), want)
	}
	return nil
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
