// Package sdn is the logically centralised control plane of the PiCloud:
// it keeps the global network view, computes paths under pluggable
// routing policies (shortest-path, ECMP, congestion-aware), reacts to
// packet-in events from the OpenFlow switches by installing rules, and
// manages the IP-less forwarding labels that let transport connections
// survive VM migration (Section III's "IP-less routing ... to support
// more flexible and efficient migration").
//
// Routes are node indices (netsim's Node.Index) from the route cache to
// the flow: PathFor and Admit return hop indices that netsim's StartFlow
// and SetPath take as they are, the route cache keys on the (src, dst)
// index pair, and names are read only where they decide an order (a
// route DAG's parent runs, the ECMP and flow hashes) or reach an error.
package sdn

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
)

// Policy selects how the controller routes a new flow.
type Policy int

// Routing policies.
const (
	// PolicyShortestPath picks the deterministic first minimum-hop path.
	PolicyShortestPath Policy = iota + 1
	// PolicyECMP hashes the flow key over equal-cost minimum-hop paths.
	PolicyECMP
	// PolicyCongestionAware weighs links by instantaneous utilisation,
	// steering new flows around hotspots.
	PolicyCongestionAware
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyShortestPath:
		return "shortest-path"
	case PolicyECMP:
		return "ecmp"
	case PolicyCongestionAware:
		return "congestion-aware"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Errors.
var (
	ErrNoPath        = errors.New("sdn: no path")
	ErrDropped       = errors.New("sdn: flow dropped by policy rule")
	ErrUnknownSwitch = errors.New("sdn: switch not registered")
	ErrUnknownLabel  = errors.New("sdn: unknown label")
	ErrForwardLoop   = errors.New("sdn: forwarding loop detected")

	// errTableMiss is a table walk's miss: the packet-in that sends a
	// flow to the controller. It names no switch, so a miss formats
	// nothing; the one error that reports a miss names the switch itself.
	errTableMiss = errors.New("sdn: table miss")
)

// Reactively installed rules expire after ruleIdleTimeout without a
// matching packet, so the pair's next packet is a fresh packet-in (and
// fresh routing), as in common reactive-OpenFlow deployments; no hard
// timeout bounds a rule's lifetime.
const (
	ruleIdleTimeout = 30 * time.Second
	ruleHardTimeout = time.Duration(0)
)

// routeCacheEntries caps the (src, dst) route cache; when full the
// least-recently-used entry is evicted, so a hot working set of pairs
// survives even on fleets whose active pair set exceeds the cap.
const routeCacheEntries = 1 << 16

// Controller is the SDN brain. Single-threaded on the simulation engine.
type Controller struct {
	engine *sim.Engine
	net    *netsim.Network
	// disableRouteSynthesis turns off the structured route synthesis
	// fast path on cache misses, forcing every cold pair through the
	// full Dijkstra — the reference the synthesis tests set it for (the
	// synthesised DAGs are provably identical where the fast path
	// answers — see synthDAG). It is off on every controller
	// NewController returns.
	disableRouteSynthesis bool
	// congestionExponent sharpens the penalty in congestion-aware
	// weights: weight = 1 + (8·util)^exp. NewController sets 2; the
	// ablation tests vary it.
	congestionExponent float64
	// switches holds the managed switches by node index (nil where no
	// switch is registered); registered lists their indices in
	// registration order, so a flush visits switches, not every node.
	switches   []*openflow.Switch
	registered []int32

	labels    map[openflow.Label]netsim.NodeID // label → current host
	labelName map[string]openflow.Label        // endpoint name → label
	nextLabel openflow.Label
	// nameBuf is AppendState's reused name buffer.
	nameBuf []string

	packetIns      uint64
	rulesInstalled uint64

	// routeCache memoises the hop-count shortest-path DAG per
	// (src, dst) index pair (see pairKey). Entries are valid only while
	// the network's topology epoch matches, so any link up/down or
	// shaping change invalidates the whole cache at zero cost.
	// Congestion-aware routing is never cached: its weights move with
	// utilisation, which advances without an epoch bump.
	//
	// Entries form an intrusive LRU list (most recent at lruHead): when
	// the cache is at capacity the coldest pair is evicted, so fleets
	// whose active pair set exceeds the cap keep their hot pairs cached
	// instead of losing the whole working set to a wholesale clear.
	// cacheCap is routeCacheEntries; the eviction tests lower it.
	routeCache       map[uint64]*routeEntry
	lruHead, lruTail *routeEntry
	cacheCap         int
	cacheHits        uint64
	cacheMisses      uint64
	cacheEvictions   uint64
	// synthHits counts cache misses answered by structured route
	// synthesis instead of a full Dijkstra; synthTierHits splits the
	// same count by which structured case answered (the slices always
	// sum to synthHits).
	synthHits     uint64
	synthTierHits [numSynthTiers]uint64

	// scratch is route computation's reusable working memory.
	scratch routeScratch
	// hops receives a route's node indices from walkBack, and walk a
	// table walk's; uncached holds the one route the cache does not keep
	// (congestion-aware). All three are reused across calls.
	hops, walk []int32
	uncached   routeEntry
}

// routeScratch is the controller-owned working memory of synthesis and
// Dijkstra, indexed by node and reused across calls, so a cold route
// allocates little beyond the DAG it caches.
type routeScratch struct {
	// into holds eB's live in-neighbours; s2 and s3 are the cross-pod
	// distance-2 and distance-3 relays, and used marks the cores the
	// cross-pod DAG routes over.
	into, s2, s3, used stampSet
	s2list             []int32
	dag                dagBuilder
	// Dijkstra: seen marks nodes given a distance, done the settled
	// ones; dist and par are valid for seen nodes. stack is the
	// walk-back over dst's ancestors.
	seen, done stampSet
	dist       []float64
	par        [][]int32
	frontier   distHeap
	stack      []int32
}

// pairKey packs one cached routing question, the (src, dst) node index
// pair, into one word.
func pairKey(src, dst int32) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// routeEntry is one cached shortest-path DAG and its materialised
// tiebreak-0 path, threaded on the controller's LRU list.
type routeEntry struct {
	key   uint64
	epoch uint64
	// src and dst are the pair's node indices.
	src, dst int32
	// dag holds, per reached node, its equal-cost predecessors in name
	// order — ready for the deterministic ECMP walk-back. It is one
	// int32 allocation (see routeDAG).
	dag routeDAG
	// shortest is the tiebreak-0 path's node indices, shared across
	// callers: treat as read-only. Returning it is what makes the cache
	// hit path allocation-free.
	shortest []int32
	// prev/next thread the LRU list; nil at the respective end.
	prev, next *routeEntry
}

// NewController returns a controller over the given network. Switches
// must be registered before flows are admitted.
func NewController(engine *sim.Engine, net *netsim.Network) *Controller {
	return &Controller{
		engine:             engine,
		net:                net,
		congestionExponent: 2,
		labels:             make(map[openflow.Label]netsim.NodeID),
		labelName:          make(map[string]openflow.Label),
		routeCache:         make(map[uint64]*routeEntry),
		cacheCap:           routeCacheEntries,
		scratch:            routeScratch{frontier: distHeap{net: net}},
	}
}

// RouteCacheHits returns how many PathFor calls were served from the
// route cache.
func (c *Controller) RouteCacheHits() uint64 { return c.cacheHits }

// RouteCacheMisses returns how many PathFor calls ran a fresh Dijkstra.
func (c *Controller) RouteCacheMisses() uint64 { return c.cacheMisses }

// RouteCacheEvictions returns how many entries the LRU policy has
// dropped to stay under the capacity.
func (c *Controller) RouteCacheEvictions() uint64 { return c.cacheEvictions }

// RouteCacheSize returns the number of cached (src, dst) entries,
// including any invalidated by a later epoch bump.
func (c *Controller) RouteCacheSize() int { return len(c.routeCache) }

// RouteSynthHits returns how many cache misses were answered by the
// structured route synthesis fast path instead of a full Dijkstra.
func (c *Controller) RouteSynthHits() uint64 { return c.synthHits }

// synthTier indexes which structured case answered a synthesis — the
// four provable shapes of synthDAG, cheapest first.
type synthTier int

const (
	tierSameEdge synthTier = iota
	tierAdjacent
	tierOneMid
	tierCrossPod
	numSynthTiers
)

// SynthTierNames are the exposition labels for the per-tier synthesis
// counters, indexed like RouteSynthHitsByTier.
var SynthTierNames = [numSynthTiers]string{"same-edge", "adjacent", "one-mid", "cross-pod"}

// RouteSynthHitsByTier returns the synthesis hit counts split by
// structured case (same order as SynthTierNames); the entries sum to
// RouteSynthHits.
func (c *Controller) RouteSynthHitsByTier() [numSynthTiers]uint64 { return c.synthTierHits }

// AppendState appends the control plane's simulated state to buf in a
// deterministic text form — one layer of the cross-layer kernel
// fingerprint core.KernelState hashes: the label bindings (the
// IP-less forwarding table, sorted by endpoint name), the reactive-rule
// counters, and the route-cache epoch/occupancy statistics. Two
// controllers that served the same admission history append the same
// bytes. The names are sorted in a buffer the controller keeps
// for the next call. The buffer is handed to spill after each line (nil
// keeps it all).
func (c *Controller) AppendState(buf []byte, spill *sim.StateHash) []byte {
	buf = append(buf, "sdn switches="...)
	buf = strconv.AppendInt(buf, int64(len(c.registered)), 10)
	buf = append(buf, " packetIns="...)
	buf = strconv.AppendUint(buf, c.packetIns, 10)
	buf = append(buf, " rules="...)
	buf = strconv.AppendUint(buf, c.rulesInstalled, 10)
	buf = append(buf, " epoch="...)
	buf = strconv.AppendUint(buf, c.net.TopoEpoch(), 10)
	buf = append(buf, " cache="...)
	buf = strconv.AppendInt(buf, int64(len(c.routeCache)), 10)
	buf = append(buf, " hits="...)
	buf = strconv.AppendUint(buf, c.cacheHits, 10)
	buf = append(buf, " misses="...)
	buf = strconv.AppendUint(buf, c.cacheMisses, 10)
	buf = append(buf, " evictions="...)
	buf = strconv.AppendUint(buf, c.cacheEvictions, 10)
	buf = append(buf, " synth="...)
	buf = strconv.AppendUint(buf, c.synthHits, 10)
	buf = append(buf, " nextLabel="...)
	buf = strconv.AppendUint(buf, uint64(c.nextLabel), 10)
	buf = append(buf, '\n')
	names := c.nameBuf[:0]
	for name := range c.labelName {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		l := c.labelName[name]
		buf = append(buf, "label "...)
		buf = append(buf, name...)
		buf = append(buf, '=')
		buf = strconv.AppendUint(buf, uint64(l), 10)
		buf = append(buf, '@')
		buf = append(buf, c.labels[l]...)
		buf = append(buf, '\n')
		buf = spill.Spill(buf)
	}
	clear(names)
	c.nameBuf = names[:0]
	return buf
}

// lruTouch moves e to the head of the LRU list (most recently used).
func (c *Controller) lruTouch(e *routeEntry) {
	if c.lruHead == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.lruTail == e {
		c.lruTail = e.prev
	}
	// Push front.
	e.prev = nil
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

// lruInsert adds a fresh entry at the head, evicting the coldest entry
// if the cache is at capacity.
func (c *Controller) lruInsert(e *routeEntry) {
	if len(c.routeCache) >= c.cacheCap {
		if cold := c.lruTail; cold != nil {
			if cold.prev != nil {
				cold.prev.next = nil
			}
			c.lruTail = cold.prev
			if c.lruHead == cold {
				c.lruHead = nil
			}
			delete(c.routeCache, cold.key)
			c.cacheEvictions++
		}
	}
	c.routeCache[e.key] = e
	e.prev, e.next = nil, c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

// RegisterSwitch places a switch under this controller's management,
// replacing any switch registered for the same node. A switch whose ID
// the network does not know is refused.
func (c *Controller) RegisterSwitch(sw *openflow.Switch) error {
	nd := c.net.Node(sw.ID)
	if nd == nil {
		return fmt.Errorf("%w: %s is not a network node", ErrUnknownSwitch, sw.ID)
	}
	i := nd.Index()
	if int(i) >= len(c.switches) {
		// Double, but never past the node count: a fat-tree's switches
		// have the lowest indices, a tree's sit between its racks.
		n := min(max(int(i)+1, 2*len(c.switches)), c.net.NodeCount())
		c.switches = append(c.switches, make([]*openflow.Switch, n-len(c.switches))...)
	}
	if c.switches[i] == nil {
		c.registered = append(c.registered, i)
	}
	c.switches[i] = sw
	return nil
}

// switchAt returns the switch managed for node index i, or nil.
func (c *Controller) switchAt(i int32) *openflow.Switch {
	if i < 0 || int(i) >= len(c.switches) {
		return nil
	}
	return c.switches[i]
}

// Switch returns a managed switch, or nil.
func (c *Controller) Switch(id netsim.NodeID) *openflow.Switch {
	if nd := c.net.Node(id); nd != nil {
		return c.switchAt(nd.Index())
	}
	return nil
}

// Net returns the network the controller routes over.
func (c *Controller) Net() *netsim.Network { return c.net }

// PacketIns returns how many table misses reached the controller.
func (c *Controller) PacketIns() uint64 { return c.packetIns }

// RulesInstalled returns how many rules the controller has pushed.
func (c *Controller) RulesInstalled() uint64 { return c.rulesInstalled }

// AssignLabel allocates (or returns the existing) forwarding label for a
// named endpoint currently hosted on host.
func (c *Controller) AssignLabel(name string, host netsim.NodeID) openflow.Label {
	if l, ok := c.labelName[name]; ok {
		c.labels[l] = host
		return l
	}
	c.nextLabel++
	l := c.nextLabel
	c.labelName[name] = l
	c.labels[l] = host
	return l
}

// HostOfLabel resolves a label to its current host.
func (c *Controller) HostOfLabel(l openflow.Label) (netsim.NodeID, bool) {
	h, ok := c.labels[l]
	return h, ok
}

// LabelOf returns the label previously assigned to name.
func (c *Controller) LabelOf(name string) (openflow.Label, bool) {
	l, ok := c.labelName[name]
	return l, ok
}

// MoveLabel re-binds a label to a new host (VM migration) and flushes the
// label's rules from every switch so the next packet triggers fresh
// routing to the new location. Live flows are re-pointed by the caller
// (the migration manager) using PathFor against the updated binding.
func (c *Controller) MoveLabel(l openflow.Label, newHost netsim.NodeID) error {
	if _, ok := c.labels[l]; !ok {
		return fmt.Errorf("%w: %d", ErrUnknownLabel, l)
	}
	c.labels[l] = newHost
	c.removeByCookie(labelCookie(l))
	return nil
}

// removeByCookie deletes the rules carrying cookie from every managed
// switch and returns how many went.
func (c *Controller) removeByCookie(cookie uint64) int {
	removed := 0
	for _, i := range c.registered {
		removed += c.switches[i].RemoveByCookie(cookie)
	}
	return removed
}

func labelCookie(l openflow.Label) uint64 { return 1<<32 | uint64(l) }

// The 64-bit FNV-1a parameters (hash/fnv's New64a), for the hashes
// below: computed inline, they allocate no hasher.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvString folds s into the FNV-1a state h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvByte folds one byte into the FNV-1a state h.
func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// pairCookie tags an address flow's rules: the FNV-1a hash of src, a
// zero byte and dst, with bit 32 clear so it never equals a label's
// cookie.
func pairCookie(src, dst netsim.NodeID) uint64 {
	h := fnvString(fnvOffset64, string(src))
	h = fnvByte(h, 0)
	h = fnvString(h, string(dst))
	return h &^ (1 << 32)
}

// flowKey derives the deterministic ECMP hash for a packet: the FNV-1a
// hash of src, a zero byte, dst, the label's four big-endian bytes, the
// protocol and the port's two big-endian bytes.
func flowKey(p openflow.PacketInfo) uint64 {
	h := fnvString(fnvOffset64, string(p.Src))
	h = fnvByte(h, 0)
	h = fnvString(h, string(p.Dst))
	for shift := 24; shift >= 0; shift -= 8 {
		h = fnvByte(h, byte(p.Label>>shift))
	}
	h = fnvString(h, p.Proto)
	h = fnvByte(h, byte(p.DstPort>>8))
	return fnvByte(h, byte(p.DstPort))
}

// weightFunc scores a directed link; lower is cheaper.
type weightFunc func(l *netsim.Link) float64

func weightHops(*netsim.Link) float64 { return 1 }

func (c *Controller) weightCongestion(l *netsim.Link) float64 {
	return 1 + math.Pow(8*l.Utilisation(), c.congestionExponent)
}

// PathFor computes a path from src to dst hosts under the policy, without
// touching any flow table, and returns its hops as node indices, the
// form netsim's StartFlow and SetPath take. key disambiguates ECMP
// choices.
//
// Shortest-path and ECMP run against the route cache: the hop-count
// shortest-path DAG for (src, dst) is computed once per topology epoch
// and every later admission is a map lookup plus, for an ECMP key, a
// walk down the cached DAG. The returned slice is read-only and is not
// the caller's to keep: on a cache hit with no ECMP tiebreak it is the
// cached path, and otherwise the controller's walk buffer, which its
// next route overwrites. No call allocates on a cache hit.
func (c *Controller) PathFor(src, dst netsim.NodeID, policy Policy, key uint64) ([]int32, error) {
	e, err := c.route(src, dst, c.index(src), c.index(dst), policy)
	if err != nil {
		return nil, err
	}
	tiebreak := tiebreakFor(policy, key)
	if tiebreak == 0 && e.shortest != nil {
		return e.shortest, nil
	}
	return c.walkBack(&e.dag, e.src, e.dst, tiebreak)
}

// tiebreakFor returns the ECMP tiebreak a policy applies to a flow key:
// none for shortest-path.
func tiebreakFor(policy Policy, key uint64) uint64 {
	if policy == PolicyShortestPath {
		return 0
	}
	return key
}

// route returns the shortest-path DAG that answers src→dst under the
// policy; si and di are their node indices, -1 for a name the network
// does not know, and the names only word an error. Shortest-path and
// ECMP share the cached entry, computed and cached on a miss: a pair
// naming an unknown node, or a node and itself, is never cached, so it
// counts one miss and fails. Congestion-aware routing re-reads link
// utilisation every time — caching it would freeze the hotspot picture
// it exists to track — so its DAG is a fresh Dijkstra in c.uncached,
// whose shortest path is nil.
func (c *Controller) route(src, dst netsim.NodeID, si, di int32, policy Policy) (*routeEntry, error) {
	if policy == PolicyCongestionAware {
		if err := checkPair(src, dst, si, di); err != nil {
			return nil, err
		}
		dag, err := c.shortestDAG(si, di, c.weightCongestion)
		if err != nil {
			return nil, err
		}
		c.uncached = routeEntry{src: si, dst: di, dag: dag}
		return &c.uncached, nil
	}
	epoch := c.net.TopoEpoch()
	k := pairKey(si, di)
	if e := c.routeCache[k]; e != nil && e.epoch == epoch {
		c.cacheHits++
		c.lruTouch(e)
		return e, nil
	}
	c.cacheMisses++
	err := checkPair(src, dst, si, di)
	if err != nil {
		return nil, err
	}
	dag, tier, ok := c.synthDAG(si, di)
	if ok {
		c.synthHits++
		c.synthTierHits[tier]++
	} else {
		dag, err = c.shortestDAG(si, di, weightHops)
		if err != nil {
			return nil, err
		}
	}
	hops, err := c.walkBack(&dag, si, di, 0)
	if err != nil {
		return nil, err
	}
	shortest := slices.Clone(hops)
	e := c.routeCache[k]
	if e != nil {
		// Stale entry from an earlier epoch: refresh in place.
		e.epoch, e.dag, e.shortest = epoch, dag, shortest
		c.lruTouch(e)
	} else {
		e = &routeEntry{key: k, epoch: epoch, src: si, dst: di, dag: dag, shortest: shortest}
		c.lruInsert(e)
	}
	return e, nil
}

// checkPair refuses a routing question whose endpoints, named src and
// dst with node indices si and di, include an unknown node (index -1)
// or are one node.
func checkPair(src, dst netsim.NodeID, si, di int32) error {
	if si < 0 || di < 0 {
		return fmt.Errorf("%w: %s -> %s (unknown node)", ErrNoPath, src, dst)
	}
	if si == di {
		return fmt.Errorf("%w: src equals dst %s", ErrNoPath, src)
	}
	return nil
}

// index returns the node index of the node named id, or -1.
func (c *Controller) index(id netsim.NodeID) int32 {
	if nd := c.net.Node(id); nd != nil {
		return nd.Index()
	}
	return -1
}

// name returns the name of the node with index i.
func (c *Controller) name(i int32) netsim.NodeID { return c.net.NodeAt(i).ID }

// soleUplink returns the index of the switch at the far end of host h's
// single up link, or -1 when h is not a host with exactly one live
// uplink to a switch: one pass over h's hop array, which holds one entry
// per cable.
func (c *Controller) soleUplink(h int32) int32 {
	if c.net.NodeAt(h).Kind != netsim.KindHost {
		return -1
	}
	var up netsim.Hop
	for _, hop := range c.net.LinksFrom(h) {
		if !hop.Up() {
			continue
		}
		if up.Link() != nil {
			return -1
		}
		up = hop
	}
	if up.Link() == nil || up.Kind() != netsim.KindSwitch {
		return -1
	}
	return up.To()
}

// synthDAG is the structured route synthesis fast path: for host pairs
// whose edge switches are at most two middle tiers apart — the
// same-rack and rack-to-rack cases of the multi-root tree and
// leaf-spine fabrics, and both the pod-local and the cross-pod
// (edge→agg→core→agg→edge) cases of a fat-tree — the hop-count
// shortest-path DAG is written down directly from the local wiring
// instead of running Dijkstra over the whole fabric. At 10⁵–10⁶ nodes
// a cold cross-rack Dijkstra settles every host in the fleet before
// reaching dst; the synthesised answer touches a handful of hop arrays.
//
// The fast path must be invisible: where it answers (ok=true), the DAG
// is provably the one shortestDAG would compute — same parent sets,
// same name order, so the tiebreak-0 path and every ECMP choice are
// identical and cached traces cannot depend on which path built the
// entry. The proof sketch, relying on hosts never relaying traffic and
// each host having one uplink:
//
//   - same edge (eA == eB): [src eA dst] is the unique 2-hop path; no
//     shorter or equal-cost alternative exists.
//   - adjacent edges (eA→eB up): dst settles at 3 hops with parents
//     {dst:[eB], eB:[eA], eA:[src]}; eB cannot be reached in one hop
//     (src's only neighbour is eA), and any other 3-hop route would
//     need another eB predecessor at distance 2, i.e. another common
//     neighbour path — those are 4 hops, not equal cost.
//   - one middle tier (some switch m with eA→m and m→eB up): dst
//     settles at 4 hops; the distance-2 predecessors of eB are exactly
//     the common switch neighbours of eA and eB (hosts at distance 2
//     never relay), which is the mids list.
//   - two middle tiers (no mid, but a live agg→core→agg relay): dst
//     settles at 6 hops; see crossPodDAG for the construction and the
//     proof.
//
// Every "x→y is up" probe reads the cable's up flag, which both legs of
// a duplex cable share and both legs' hop entries carry: so "x→eB is
// up" is the flag on eB's hop entry for x, and the set into (the
// switches x whose link x→eB is up) is one pass over eB's hop array.
// For the same reason dst's sole up uplink means the return leg eB→dst
// is up too.
//
// If none of the four shapes applies — any uplink asymmetry or partial
// failure that would put dst at 5 hops, or at ≥ 7 — the pair is beyond
// the fast path and falls back (ok=false), e.g. a multi-root fabric
// whose agg tier is down and detours via the gateway.
//
// Link state is read live, so a synthesised entry is exactly as valid
// as a Dijkstra one for the topology epoch it is cached under.
func (c *Controller) synthDAG(src, dst int32) (routeDAG, synthTier, bool) {
	if c.disableRouteSynthesis {
		return routeDAG{}, 0, false
	}
	eA, eB := c.soleUplink(src), c.soleUplink(dst)
	if eA < 0 || eB < 0 {
		return routeDAG{}, 0, false
	}
	s := &c.scratch
	b := &s.dag
	b.reset()
	if eA == eB {
		b.add(dst, eA)
		b.add(eA, src)
		return b.build(c.net), tierSameEdge, true
	}
	s.into.reset(c.net.NodeCount())
	for _, h := range c.net.LinksFrom(eB) {
		if h.Up() && h.Kind() == netsim.KindSwitch {
			s.into.add(h.To())
		}
	}
	if s.into.has(eA) {
		b.add(dst, eB)
		b.add(eB, eA)
		b.add(eA, src)
		return b.build(c.net), tierAdjacent, true
	}
	mids := 0
	for _, h := range c.net.LinksFrom(eA) {
		if m := h.To(); h.Up() && h.Kind() == netsim.KindSwitch && s.into.has(m) {
			b.add(eB, m)
			b.add(m, eA)
			mids++
		}
	}
	if mids == 0 {
		return c.crossPodDAG(src, dst, eA, eB)
	}
	b.add(dst, eB)
	b.add(eA, src)
	return b.build(c.net), tierOneMid, true
}

// crossPodDAG synthesizes the fourth structured shape: dst at exactly
// six hops through two middle tiers — src→eA→agg→core→agg→eB→dst, the
// cross-pod case of a k-ary fat-tree. It is entered only from synthDAG
// with the first three cases already excluded: soleUplinks exist on
// both sides, eA ≠ eB, eA→eB is not up, and no single mid connects
// them; scratch.into holds eB's live in-neighbours.
//
// Construction, mirroring the BFS layers Dijkstra would settle:
//
//	S2 = up switch neighbours of eA            (all distance-2 relays)
//	S3 = up switch neighbours of S2 \ (S2∪{eA}) (all distance-3 relays)
//	P  = switches b with b→eB up whose set Cb of S3 members c with
//	     c→b up is non-empty                   (eB's distance-4 parents)
//
// and the DAG is dst←eB←P, each b∈P←Cb, each used core←its S2 aggs,
// each used agg←eA←src, every parent list in ascending name order.
// Every "x→y is up" probe is a cable-flag probe: both legs of a duplex
// cable share one up flag, carried by both legs' hop entries, so c→b
// and b→eB are read from the entries for c and b in b's and eB's own
// hop arrays, found while walking them.
//
// Proof that this is exactly shortestDAG's answer when it returns
// ok=true (relying, like the other cases, on hosts never relaying and
// each endpoint having one live uplink):
//
//   - S2 and S3 are complete and exact: distance-2 relays are
//     precisely eA's up switch neighbours; distance-3 relays are
//     precisely their up switch neighbours that are not eA or already
//     at distance 2 (a member of S3 cannot secretly be closer — the
//     distance-1 set is {eA} and the distance-2 relays are all of S2).
//     eB itself can never appear in S3: an up a→eB link with a ∈ S2 is
//     exactly the mid condition, and mids was empty.
//   - dst settles at 6: eB is not at distance ≤ 3 (the same-edge,
//     adjacent and mid checks excluded distances 1–3), and the guard
//     below falls back if any S3 member has a live link into eB — so
//     dist(eB) ≥ 5, and a non-empty P pins dist(eB) = 5, dist(dst) = 6.
//     An empty P means dist(eB) ≥ 6 (beyond the shape) — fall back.
//   - The parent sets match: every candidate b with Cb non-empty is at
//     distance exactly 4 (it has a distance-3 predecessor, and b ∈
//     S2∪S3∪{eA} is impossible — a b ∈ S2 with b→eB up would have been
//     a mid, b ∈ S3 trips the guard, b = eA failed the adjacent
//     check), so P is exactly eB's equal-cost parent set, Cb exactly
//     b's, and the used cores' parents are exactly their S2 neighbours
//     a with a→core up. parents(dst) = {eB} because dst's sole up
//     cable is the only live link into dst, and its flag also makes
//     eB→dst up. The builder sorts each list by name, reproducing
//     shortestDAG's order, so walkBack draws identical ECMP
//     tiebreaks no matter which path built the entry.
func (c *Controller) crossPodDAG(src, dst, eA, eB int32) (routeDAG, synthTier, bool) {
	s := &c.scratch
	n := c.net.NodeCount()
	s.s2.reset(n)
	s.s2list = s.s2list[:0]
	for _, h := range c.net.LinksFrom(eA) {
		if h.Up() && h.Kind() == netsim.KindSwitch {
			s.s2.add(h.To())
			s.s2list = append(s.s2list, h.To())
		}
	}
	s.s3.reset(n)
	s3empty := true
	for _, a := range s.s2list {
		for _, h := range c.net.LinksFrom(a) {
			m := h.To()
			if !h.Up() || h.Kind() != netsim.KindSwitch || m == eA || s.s2.has(m) {
				continue
			}
			s.s3.add(m)
			s3empty = false
		}
	}
	if s3empty {
		return routeDAG{}, 0, false
	}
	// Guard: a live S3→eB link would settle eB at distance 4 — a
	// 5-hop DAG this case does not model. Fall back to Dijkstra.
	for _, h := range c.net.LinksFrom(eB) {
		if s.s3.has(h.To()) && s.into.has(h.To()) {
			return routeDAG{}, 0, false
		}
	}
	// P(eB): enumerate eB's hop array, keep switches with a live cable
	// to eB, and compute each candidate's distance-3 parent set Cb from
	// its own hop array.
	b := &s.dag
	b.reset()
	s.used.reset(n)
	inP := 0
	for _, h := range c.net.LinksFrom(eB) {
		p := h.To()
		if !s.into.has(p) {
			continue
		}
		cb := 0
		for _, hb := range c.net.LinksFrom(p) {
			if cn := hb.To(); s.s3.has(cn) && hb.Up() {
				b.add(p, cn)
				s.used.add(cn)
				cb++
			}
		}
		if cb > 0 {
			b.add(eB, p)
			inP++
		}
		// cb == 0: dist(p) > 4, not a parent of eB.
	}
	if inP == 0 {
		return routeDAG{}, 0, false
	}
	// The used cores' parents, inverted: one pass over the S2 aggs' hop
	// arrays instead of one pass per core (a fat-tree core sees every
	// pod; its parent agg is found from the src side).
	for _, a := range s.s2list {
		usedAgg := false
		for _, h := range c.net.LinksFrom(a) {
			if h.Up() && s.used.has(h.To()) {
				b.add(h.To(), a)
				usedAgg = true
			}
		}
		if usedAgg {
			b.add(a, eA)
		}
	}
	b.add(eA, src)
	b.add(dst, eB)
	return b.build(c.net), tierCrossPod, true
}

// shortestDAG runs Dijkstra from src until dst is settled, returning the
// equal-cost predecessor DAG of dst's ancestors (parent runs in name
// order for the ECMP walk-back) — the rest of the search tree never
// routes this pair. Neighbours are explored over the network's
// creation-order adjacency lists and equal-distance nodes settle in
// name order (see distHeap), so the parent sets the float tolerance
// admits are deterministic. All working state is the controller's
// index-keyed scratch.
func (c *Controller) shortestDAG(src, dst int32, w weightFunc) (routeDAG, error) {
	const eps = 1e-12
	s := &c.scratch
	n := c.net.NodeCount()
	s.seen.reset(n)
	s.done.reset(n)
	if len(s.dist) < n {
		s.dist = append(s.dist, make([]float64, n-len(s.dist))...)
		s.par = append(s.par, make([][]int32, n-len(s.par))...)
	}
	s.seen.add(src)
	s.dist[src] = 0
	s.par[src] = s.par[src][:0]
	q := &s.frontier
	q.items = q.items[:0]
	q.push(distItem{node: src, dist: 0})
	for len(q.items) > 0 {
		it := q.pop()
		if s.done.has(it.node) {
			continue
		}
		s.done.add(it.node)
		if it.node == dst {
			break
		}
		for _, h := range c.net.LinksFrom(it.node) {
			nb := h.To()
			if !h.Up() || s.done.has(nb) {
				continue
			}
			// Hosts other than src/dst never relay traffic.
			if nb != dst && h.Kind() == netsim.KindHost {
				continue
			}
			nd := it.dist + w(h.Link())
			switch {
			case !s.seen.has(nb) || nd < s.dist[nb]-eps:
				s.seen.add(nb)
				s.dist[nb] = nd
				s.par[nb] = append(s.par[nb][:0], it.node)
				q.push(distItem{node: nb, dist: nd})
			case nd <= s.dist[nb]+eps:
				s.par[nb] = append(s.par[nb], it.node)
			}
		}
	}
	if !s.done.has(dst) {
		return routeDAG{}, fmt.Errorf("%w: %s -> %s", ErrNoPath, c.name(src), c.name(dst))
	}
	// Walk back from dst, reusing seen to mark the ancestors found.
	s.dag.reset()
	s.seen.reset(n)
	s.seen.add(dst)
	s.stack = append(s.stack[:0], dst)
	for len(s.stack) > 0 {
		x := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, p := range s.par[x] {
			s.dag.add(x, p)
			if !s.seen.has(p) {
				s.seen.add(p)
				s.stack = append(s.stack, p)
			}
		}
	}
	return s.dag.build(c.net), nil
}

// ecmpHash is the 64-bit FNV-1a hash of a hop's name followed by the
// tiebreak's eight little-endian bytes: the deterministic ECMP choice
// among a hop's equal-cost parents.
func ecmpHash(hop netsim.NodeID, tiebreak uint64) uint64 {
	h := fnvString(fnvOffset64, string(hop))
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(tiebreak>>(8*i)))
	}
	return h
}

// walkBack walks the predecessor DAG back from dst, choosing among
// equal-cost parents by tiebreak hash (deterministic ECMP), and returns
// the src..dst hop indices in c.hops, which the next walk reuses.
func (c *Controller) walkBack(d *routeDAG, src, dst int32, tiebreak uint64) ([]int32, error) {
	rev := c.hops[:0]
	cur := dst
	for cur != src {
		rev = append(rev, cur)
		ps := d.parents(cur)
		if len(ps) == 0 {
			return nil, fmt.Errorf("%w: broken parent chain at %s", ErrNoPath, c.name(cur))
		}
		idx := 0
		if tiebreak != 0 && len(ps) > 1 {
			idx = int(ecmpHash(c.name(cur), tiebreak) % uint64(len(ps)))
		}
		cur = ps[idx]
		if len(rev) > len(d.nodes)+1 {
			return nil, ErrForwardLoop
		}
	}
	rev = append(rev, src)
	slices.Reverse(rev)
	c.hops = rev
	return rev, nil
}

// names returns the node names of a hop sequence, for an error.
func (c *Controller) names(hops []int32) []netsim.NodeID {
	path := make([]netsim.NodeID, len(hops))
	for i, x := range hops {
		path[i] = c.name(x)
	}
	return path
}

// Admit runs the OpenFlow pipeline for a new flow described by pkt: walk
// the switch tables from the source's edge switch; on a miss, compute a
// path under the policy and install rules along it (reactive control).
// It returns the walked hops as node indices, the path netsim's
// StartFlow takes, and whether the controller was consulted. The path
// is the controller's walk buffer: read-only, and valid until the next
// admission.
//
// The packet's endpoints (and a label's host) are resolved to node
// indices once. The table walk, the route cache's key, the route's
// hops, the rules installed along them and the returned path are
// index-keyed; names are read only by the hashes.
func (c *Controller) Admit(pkt openflow.PacketInfo, policy Policy) (path []int32, viaController bool, err error) {
	p := openflow.Packet{Src: c.ref(pkt.Src), Dst: c.ref(pkt.Dst), Label: pkt.Label, DstPort: pkt.DstPort, Proto: pkt.Proto}
	if _, err = c.walkTables(&p); err == nil {
		return c.walk, false, nil
	}
	if errors.Is(err, ErrDropped) {
		return nil, false, err
	}
	// Table miss somewhere: packet-in.
	c.packetIns++
	dst, di := pkt.Dst, p.Dst.Index()
	if pkt.Label != 0 {
		if h, ok := c.labels[pkt.Label]; ok {
			dst, di = h, c.index(h)
		}
	}
	e, err := c.route(pkt.Src, dst, p.Src.Index(), di, policy)
	if err != nil {
		return nil, true, err
	}
	hops, err := c.walkBack(&e.dag, e.src, e.dst, tiebreakFor(policy, flowKey(pkt)))
	if err != nil {
		return nil, true, err
	}
	// Label-carrying flows match on the label alone (IP-less
	// forwarding); address flows match the src/dst pair.
	match, cookie := openflow.Match{Label: pkt.Label}, labelCookie(pkt.Label)
	if pkt.Label == 0 {
		match, cookie = openflow.Match{Src: p.Src, Dst: p.Dst}, pairCookie(pkt.Src, pkt.Dst)
	}
	if err := c.installPath(hops, match, cookie); err != nil {
		return nil, true, err
	}
	// Re-walk so the tables, not the controller's answer, define the
	// forwarding behaviour (catches rule bugs in tests).
	at, err := c.walkTables(&p)
	if errors.Is(err, errTableMiss) {
		return nil, true, fmt.Errorf("sdn: tables inconsistent after install: %w at %s", err, c.name(at))
	}
	if err != nil {
		return nil, true, fmt.Errorf("sdn: tables inconsistent after install: %w", err)
	}
	return c.walk, true, nil
}

// ref returns the table reference of the node named id: zero, which
// only a wildcard matches, when the network does not know it.
func (c *Controller) ref(id netsim.NodeID) openflow.Ref {
	if nd := c.net.Node(id); nd != nil {
		return openflow.RefOf(nd.Index())
	}
	return 0
}

// walkTables follows switch flow tables hop by hop from the source host,
// leaving the hop indices in c.walk. A table miss returns errTableMiss
// and the index of the switch that missed. The walk reads each hop's
// next hop from the table, not from the wiring, exactly as forwarding
// would; a repeated hop is a loop.
func (c *Controller) walkTables(p *openflow.Packet) (int32, error) {
	src := p.Src.Index()
	if src < 0 {
		return -1, fmt.Errorf("%w: unknown source", ErrNoPath)
	}
	up, live := int32(-1), 0
	for _, h := range c.net.LinksFrom(src) {
		if h.Up() {
			up = h.To()
			live++
		}
	}
	if live != 1 {
		return -1, fmt.Errorf("sdn: host %s has %d uplinks, want 1", c.name(src), live)
	}
	c.walk = append(c.walk[:0], src, up)
	for cur := up; ; {
		sw := c.switchAt(cur)
		if sw == nil {
			return cur, fmt.Errorf("%w: %s", ErrUnknownSwitch, c.name(cur))
		}
		action, verdict := sw.Lookup(p)
		switch verdict {
		case openflow.VerdictDrop:
			return cur, ErrDropped
		case openflow.VerdictMiss:
			return cur, errTableMiss
		}
		next := action.NextHop.Index()
		if next < 0 || int(next) >= c.net.NodeCount() {
			return cur, fmt.Errorf("%w: next hop %d of %s is not a network node", ErrUnknownSwitch, next, c.name(cur))
		}
		if slices.Contains(c.walk, next) {
			return cur, ErrForwardLoop
		}
		c.walk = append(c.walk, next)
		if c.net.NodeAt(next).Kind == netsim.KindHost {
			return -1, nil
		}
		cur = next
	}
}

// installPath pushes one rule per switch along a host-to-host path of
// node indices, each matching match, tagged with cookie, and forwarding
// to the path's next hop. The path's rules share one allocation.
func (c *Controller) installPath(hops []int32, match openflow.Match, cookie uint64) error {
	if len(hops) < 3 {
		return fmt.Errorf("%w: path %v too short", ErrNoPath, c.names(hops))
	}
	rules := make([]openflow.Rule, len(hops)-2)
	for i := 1; i < len(hops)-1; i++ {
		sw := c.switchAt(hops[i])
		if sw == nil {
			return fmt.Errorf("%w: %s", ErrUnknownSwitch, c.name(hops[i]))
		}
		rule := &rules[i-1]
		*rule = openflow.Rule{
			Priority:    100,
			Match:       match,
			Action:      openflow.Action{Type: openflow.ActionOutput, NextHop: openflow.RefOf(hops[i+1])},
			IdleTimeout: ruleIdleTimeout,
			HardTimeout: ruleHardTimeout,
			Cookie:      cookie,
		}
		if err := sw.Install(rule); err != nil {
			return err
		}
		c.rulesInstalled++
	}
	return nil
}

// FlushPair removes the reactive rules for a src/dst address pair (used
// when IP-routed flows must be torn down after migration).
func (c *Controller) FlushPair(src, dst netsim.NodeID) int {
	return c.removeByCookie(pairCookie(src, dst))
}

// InstallDrop blocks traffic matching m at one switch (administrative
// policy; exercised by the management-plane tests).
func (c *Controller) InstallDrop(swID netsim.NodeID, m openflow.Match, priority int) error {
	sw := c.Switch(swID)
	if sw == nil {
		return fmt.Errorf("%w: %s", ErrUnknownSwitch, swID)
	}
	c.rulesInstalled++
	return sw.Install(&openflow.Rule{Priority: priority, Match: m, Action: openflow.Action{Type: openflow.ActionDrop}})
}
