// Package sdn is the logically centralised control plane of the PiCloud:
// it keeps the global network view, computes paths under pluggable
// routing policies (shortest-path, ECMP, congestion-aware), reacts to
// packet-in events from the OpenFlow switches by installing rules, and
// manages the IP-less forwarding labels that let transport connections
// survive VM migration (Section III's "IP-less routing ... to support
// more flexible and efficient migration").
package sdn

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
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
)

// Config tunes the controller.
type Config struct {
	// RuleIdleTimeout is applied to reactively installed rules; expired
	// rules trigger a fresh packet-in (and fresh routing) next time.
	RuleIdleTimeout time.Duration
	// RuleHardTimeout bounds total rule lifetime. Zero disables.
	RuleHardTimeout time.Duration
	// CongestionExponent sharpens the penalty in congestion-aware
	// weights: weight = 1 + (8·util)^exp. Defaults to 2.
	CongestionExponent float64
	// DisableRouteSynthesis turns off the structured route synthesis
	// fast path on cache misses, forcing every cold pair through the
	// full Dijkstra — the reference the synthesis tests compare against
	// (the synthesised DAGs are provably identical where the fast path
	// answers — see synthDAG). The fleet builder never sets it.
	DisableRouteSynthesis bool
	// RouteCacheEntries caps the (src, dst) route cache; when full the
	// least-recently-used entry is evicted, so a hot working set of
	// pairs survives even on fleets whose active pair set exceeds the
	// cap. Zero means DefaultRouteCacheEntries.
	RouteCacheEntries int
}

// DefaultRouteCacheEntries is the route-cache capacity applied when
// Config.RouteCacheEntries is zero.
const DefaultRouteCacheEntries = 1 << 16

// DefaultConfig mirrors common reactive-OpenFlow deployments.
func DefaultConfig() Config {
	return Config{
		RuleIdleTimeout:    30 * time.Second,
		RuleHardTimeout:    0,
		CongestionExponent: 2,
	}
}

// Controller is the SDN brain. Single-threaded on the simulation engine.
type Controller struct {
	engine   *sim.Engine
	net      *netsim.Network
	cfg      Config
	switches map[netsim.NodeID]*openflow.Switch

	labels    map[openflow.Label]netsim.NodeID // label → current host
	labelName map[string]openflow.Label        // endpoint name → label
	nextLabel openflow.Label

	packetIns      uint64
	rulesInstalled uint64

	// routeCache memoises the hop-count shortest-path DAG per
	// (src, dst) pair. Entries are valid only while the network's
	// topology epoch matches, so any re-cable, link up/down or shaping
	// change invalidates the whole cache at zero cost. Congestion-aware
	// routing is never cached: its weights move with utilisation, which
	// advances without an epoch bump.
	//
	// Entries form an intrusive LRU list (most recent at lruHead): when
	// the cache is at capacity the coldest pair is evicted, so fleets
	// whose active pair set exceeds the cap keep their hot pairs cached
	// instead of losing the whole working set to a wholesale clear.
	routeCache       map[pairKey]*routeEntry
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

	// uplink memoises soleUplink per host, by node index, for the
	// topology epoch uplinkEpoch: every cache-miss route consults both
	// endpoints' uplinks, and re-scanning their adjacency for each is
	// the dominant cost of the short synthesis cases. uplinkSeen marks
	// the resolved entries (negative answers included); any epoch bump
	// (link state, shaping, re-cable) empties it, exactly like the
	// route cache.
	uplink      []*netsim.Link
	uplinkSeen  stampSet
	uplinkEpoch uint64

	// scratch is route computation's reusable working memory.
	scratch routeScratch
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

// pairKey identifies one cached routing question.
type pairKey struct{ src, dst netsim.NodeID }

// routeEntry is one cached shortest-path DAG and its materialised
// tiebreak-0 path, threaded on the controller's LRU list.
type routeEntry struct {
	key   pairKey
	epoch uint64
	// src and dst are the pair's node indices.
	src, dst int32
	// dag holds, per reached node, its equal-cost predecessors in name
	// order — ready for the deterministic ECMP walk-back. It is one
	// int32 allocation (see routeDAG).
	dag routeDAG
	// shortest is the tiebreak-0 path, shared across callers: treat as
	// read-only. Returning it is what makes the cache hit path
	// allocation-free.
	shortest []netsim.NodeID
	// prev/next thread the LRU list; nil at the respective end.
	prev, next *routeEntry
}

// NewController returns a controller over the given network. Switches
// must be registered before flows are admitted.
func NewController(engine *sim.Engine, net *netsim.Network, cfg Config) *Controller {
	if cfg.CongestionExponent == 0 {
		cfg.CongestionExponent = 2
	}
	if cfg.RouteCacheEntries <= 0 {
		cfg.RouteCacheEntries = DefaultRouteCacheEntries
	}
	return &Controller{
		engine:     engine,
		net:        net,
		cfg:        cfg,
		switches:   make(map[netsim.NodeID]*openflow.Switch),
		labels:     make(map[openflow.Label]netsim.NodeID),
		labelName:  make(map[string]openflow.Label),
		routeCache: make(map[pairKey]*routeEntry),
		cacheCap:   cfg.RouteCacheEntries,
		scratch:    routeScratch{frontier: distHeap{net: net}},
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

// WriteState writes the control plane's simulated state in a
// deterministic text form — one layer of the cross-layer kernel
// fingerprint behind core's Checkpoint/Resume: the label bindings (the
// IP-less forwarding table, sorted by endpoint name), the reactive-rule
// counters, and the route-cache epoch/occupancy statistics. Two
// controllers that served the same admission history write the same
// bytes.
func (c *Controller) WriteState(w io.Writer) {
	fmt.Fprintf(w, "sdn switches=%d packetIns=%d rules=%d epoch=%d cache=%d hits=%d misses=%d evictions=%d synth=%d nextLabel=%d\n",
		len(c.switches), c.packetIns, c.rulesInstalled, c.net.TopoEpoch(),
		len(c.routeCache), c.cacheHits, c.cacheMisses, c.cacheEvictions, c.synthHits, c.nextLabel)
	names := make([]string, 0, len(c.labelName))
	for name := range c.labelName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := c.labelName[name]
		fmt.Fprintf(w, "label %s=%d@%s\n", name, l, c.labels[l])
	}
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

// RegisterSwitch places a switch under this controller's management.
func (c *Controller) RegisterSwitch(sw *openflow.Switch) {
	c.switches[sw.ID] = sw
}

// Switch returns a managed switch, or nil.
func (c *Controller) Switch(id netsim.NodeID) *openflow.Switch { return c.switches[id] }

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
	cookie := labelCookie(l)
	for _, sw := range c.switches {
		sw.RemoveByCookie(cookie)
	}
	return nil
}

func labelCookie(l openflow.Label) uint64 { return 1<<32 | uint64(l) }

func pairCookie(src, dst netsim.NodeID) uint64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(dst))
	return h.Sum64() &^ (1 << 32)
}

// flowKey derives the deterministic ECMP hash for a packet.
func flowKey(p openflow.PacketInfo) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.Src))
	h.Write([]byte{0})
	h.Write([]byte(p.Dst))
	h.Write([]byte{byte(p.Label >> 24), byte(p.Label >> 16), byte(p.Label >> 8), byte(p.Label)})
	h.Write([]byte(p.Proto))
	h.Write([]byte{byte(p.DstPort >> 8), byte(p.DstPort)})
	return h.Sum64()
}

// weightFunc scores a directed link; lower is cheaper.
type weightFunc func(l *netsim.Link) float64

func weightHops(*netsim.Link) float64 { return 1 }

func (c *Controller) weightCongestion(l *netsim.Link) float64 {
	return 1 + math.Pow(8*l.Utilisation(), c.cfg.CongestionExponent)
}

// PathFor computes a path from src to dst hosts under the policy, without
// touching any flow table. key disambiguates ECMP choices.
//
// Shortest-path and ECMP run against the route cache: the hop-count
// shortest-path DAG for (src, dst) is computed once per topology epoch
// and every later admission is a map lookup plus, for an ECMP key, a
// walk down the cached DAG. On a cache hit with no ECMP tiebreak the
// returned slice is the shared cached path — treat it as read-only (no
// caller mutates paths; netsim copies on SetPath).
func (c *Controller) PathFor(src, dst netsim.NodeID, policy Policy, key uint64) ([]netsim.NodeID, error) {
	if policy == PolicyCongestionAware {
		// Utilisation-weighted routing re-reads link state every time;
		// caching it would freeze the hotspot picture it exists to track.
		return c.dijkstra(src, dst, c.weightCongestion, key)
	}
	tiebreak := uint64(0)
	if policy == PolicyECMP {
		tiebreak = key
	}
	epoch := c.net.TopoEpoch()
	k := pairKey{src, dst}
	if e := c.routeCache[k]; e != nil && e.epoch == epoch {
		c.cacheHits++
		c.lruTouch(e)
		if tiebreak == 0 {
			return e.shortest, nil
		}
		return c.materialisePath(&e.dag, e.src, e.dst, tiebreak)
	}
	c.cacheMisses++
	si, di, err := c.endpoints(src, dst)
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
	shortest, err := c.materialisePath(&dag, si, di, 0)
	if err != nil {
		return nil, err
	}
	if e := c.routeCache[k]; e != nil {
		// Stale entry from an earlier epoch: refresh in place.
		e.epoch, e.dag, e.shortest = epoch, dag, shortest
		c.lruTouch(e)
	} else {
		c.lruInsert(&routeEntry{key: k, epoch: epoch, src: si, dst: di, dag: dag, shortest: shortest})
	}
	if tiebreak == 0 {
		return shortest, nil
	}
	return c.materialisePath(&dag, si, di, tiebreak)
}

// endpoints resolves a routing question's names to node indices.
func (c *Controller) endpoints(src, dst netsim.NodeID) (int32, int32, error) {
	sn, dn := c.net.Node(src), c.net.Node(dst)
	if sn == nil || dn == nil {
		return 0, 0, fmt.Errorf("%w: %s -> %s (unknown node)", ErrNoPath, src, dst)
	}
	if src == dst {
		return 0, 0, fmt.Errorf("%w: src equals dst %s", ErrNoPath, src)
	}
	return sn.Index(), dn.Index(), nil
}

// name returns the name of the node with index i.
func (c *Controller) name(i int32) netsim.NodeID { return c.net.NodeAt(i).ID }

// soleUplink returns the single up link leaving host h, or nil when h
// is not a host with exactly one live uplink to a switch. Resolutions
// (including negative ones) are memoised per topology epoch: the
// answer is a pure function of wiring and link state, both of which
// bump the epoch on every change.
func (c *Controller) soleUplink(h int32) *netsim.Link {
	if epoch := c.net.TopoEpoch(); epoch != c.uplinkEpoch || c.uplinkSeen.gen == 0 {
		n := c.net.NodeCount()
		c.uplinkSeen.reset(n)
		if len(c.uplink) < n {
			c.uplink = append(c.uplink, make([]*netsim.Link, n-len(c.uplink))...)
		}
		c.uplinkEpoch = epoch
	}
	if c.uplinkSeen.has(h) {
		return c.uplink[h]
	}
	up := c.scanSoleUplink(h)
	c.uplink[h] = up
	c.uplinkSeen.add(h)
	return up
}

// scanSoleUplink is the uncached resolution: one pass over h's
// adjacency list.
func (c *Controller) scanSoleUplink(h int32) *netsim.Link {
	if c.net.NodeAt(h).Kind != netsim.KindHost {
		return nil
	}
	var up *netsim.Link
	for _, l := range c.net.LinksFrom(h) {
		if !l.Up() {
			continue
		}
		if up != nil {
			return nil
		}
		up = l
	}
	if up == nil || up.DstKind() != netsim.KindSwitch {
		return nil
	}
	return up
}

// synthDAG is the structured route synthesis fast path: for host pairs
// whose edge switches are at most two middle tiers apart — the
// same-rack and rack-to-rack cases of the multi-root tree and
// leaf-spine fabrics, and both the pod-local and the cross-pod
// (edge→agg→core→agg→edge) cases of a fat-tree — the hop-count
// shortest-path DAG is written down directly from the local wiring
// instead of running Dijkstra over the whole fabric. At 10⁵–10⁶ nodes
// a cold cross-rack Dijkstra settles every host in the fleet before
// reaching dst; the synthesised answer touches a handful of adjacency
// lists.
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
// Every "x→eB is up" probe is answered by the set into: the switches x
// whose link x→eB is up, read as the reverse legs of eB's own
// adjacency (links exist only as duplex pairs, so every link into eB
// is the reverse leg of one out of it): one pass over eB's links
// answers them all.
//
// If none of the four shapes applies — any uplink asymmetry or partial
// failure that would put dst at 5 hops, or at ≥ 7 — the pair is beyond
// the fast path and falls back (ok=false), e.g. a multi-root fabric
// whose agg tier is down and detours via the gateway.
//
// Link state is read live (l.Up), so a synthesised entry is exactly as
// valid as a Dijkstra one for the topology epoch it is cached under.
func (c *Controller) synthDAG(src, dst int32) (routeDAG, synthTier, bool) {
	if c.cfg.DisableRouteSynthesis {
		return routeDAG{}, 0, false
	}
	upA := c.soleUplink(src)
	upB := c.soleUplink(dst)
	if upA == nil || upB == nil {
		return routeDAG{}, 0, false
	}
	eA, eB := upA.ToIndex(), upB.ToIndex()
	// The return leg eB→dst of dst's cable (SetLinkUp fails both
	// directions together, but verify — the DAG walks src→dst).
	if !upB.Reverse().Up() {
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
	for _, l := range c.net.LinksFrom(eB) {
		if l.DstKind() == netsim.KindSwitch && l.Reverse().Up() {
			s.into.add(l.ToIndex())
		}
	}
	if s.into.has(eA) {
		b.add(dst, eB)
		b.add(eB, eA)
		b.add(eA, src)
		return b.build(c.net), tierAdjacent, true
	}
	mids := 0
	for _, l := range c.net.LinksFrom(eA) {
		if m := l.ToIndex(); l.Up() && l.DstKind() == netsim.KindSwitch && s.into.has(m) {
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
// both sides, eB→dst is up, eA ≠ eB, eA→eB is not up, and no single
// mid connects them; scratch.into holds eB's live in-neighbours.
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
// Every "x→y is up" probe with y on the dst side (c→b, b→eB) reads the
// reverse leg of the y→x link found in y's adjacency: links exist only
// as duplex pairs, so that leg is exactly the link x→y.
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
//     a with a→core up. parents(dst) = {eB} because the reverse leg of
//     dst's sole up link is the only live link into dst. The builder
//     sorts each list by name, reproducing shortestDAG's order, so
//     materialisePath draws identical ECMP tiebreaks no matter which
//     path built the entry.
func (c *Controller) crossPodDAG(src, dst, eA, eB int32) (routeDAG, synthTier, bool) {
	s := &c.scratch
	n := c.net.NodeCount()
	s.s2.reset(n)
	s.s2list = s.s2list[:0]
	for _, l := range c.net.LinksFrom(eA) {
		if l.Up() && l.DstKind() == netsim.KindSwitch {
			s.s2.add(l.ToIndex())
			s.s2list = append(s.s2list, l.ToIndex())
		}
	}
	s.s3.reset(n)
	s3empty := true
	for _, a := range s.s2list {
		for _, l := range c.net.LinksFrom(a) {
			m := l.ToIndex()
			if !l.Up() || l.DstKind() != netsim.KindSwitch || m == eA || s.s2.has(m) {
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
	for _, l := range c.net.LinksFrom(eB) {
		if s.s3.has(l.ToIndex()) && s.into.has(l.ToIndex()) {
			return routeDAG{}, 0, false
		}
	}
	// P(eB): enumerate eB's adjacency, keep switches with a live leg
	// towards eB, and compute each candidate's distance-3 parent set Cb
	// from its own adjacency list.
	b := &s.dag
	b.reset()
	s.used.reset(n)
	inP := 0
	for _, l := range c.net.LinksFrom(eB) {
		p := l.ToIndex()
		if !s.into.has(p) {
			continue
		}
		cb := 0
		for _, lb := range c.net.LinksFrom(p) {
			if cn := lb.ToIndex(); s.s3.has(cn) && lb.Reverse().Up() {
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
	// The used cores' parents, inverted: one pass over the S2 aggs'
	// adjacency lists instead of one pass per core (a fat-tree core
	// sees every pod; its parent agg is found from the src side).
	for _, a := range s.s2list {
		usedAgg := false
		for _, l := range c.net.LinksFrom(a) {
			if l.Up() && s.used.has(l.ToIndex()) {
				b.add(l.ToIndex(), a)
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

// dijkstra computes a least-weight path keeping all equal-cost parents,
// then materialises one path choosing among parents by tiebreak hash
// (deterministic ECMP). Uncached — the congestion-aware policy comes
// through here; the cache-miss path calls shortestDAG directly.
func (c *Controller) dijkstra(src, dst netsim.NodeID, w weightFunc, tiebreak uint64) ([]netsim.NodeID, error) {
	si, di, err := c.endpoints(src, dst)
	if err != nil {
		return nil, err
	}
	dag, err := c.shortestDAG(si, di, w)
	if err != nil {
		return nil, err
	}
	return c.materialisePath(&dag, si, di, tiebreak)
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
		for _, l := range c.net.LinksFrom(it.node) {
			nb := l.ToIndex()
			if !l.Up() || s.done.has(nb) {
				continue
			}
			// Hosts other than src/dst never relay traffic.
			if nb != dst && l.DstKind() == netsim.KindHost {
				continue
			}
			nd := it.dist + w(l)
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
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(hop); i++ {
		h = (h ^ uint64(hop[i])) * prime
	}
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(tiebreak>>(8*i)))) * prime
	}
	return h
}

// materialisePath walks the predecessor DAG back from dst, choosing
// among equal-cost parents by tiebreak hash (deterministic ECMP), and
// returns the src..dst hop sequence.
func (c *Controller) materialisePath(d *routeDAG, src, dst int32, tiebreak uint64) ([]netsim.NodeID, error) {
	var buf [16]int32
	rev := buf[:0]
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
	path := make([]netsim.NodeID, len(rev))
	for i, x := range rev {
		path[len(rev)-1-i] = c.name(x)
	}
	return path, nil
}

// Admit runs the OpenFlow pipeline for a new flow described by pkt: walk
// the switch tables from the source's edge switch; on a miss, compute a
// path under the policy and install rules along it (reactive control).
// It returns the hop path for netsim and whether the controller was
// consulted.
func (c *Controller) Admit(pkt openflow.PacketInfo, policy Policy) (path []netsim.NodeID, viaController bool, err error) {
	path, err = c.walkTables(pkt)
	if err == nil {
		return path, false, nil
	}
	if errors.Is(err, ErrDropped) {
		return nil, false, err
	}
	// Table miss somewhere: packet-in.
	c.packetIns++
	dst := pkt.Dst
	if pkt.Label != 0 {
		if h, ok := c.labels[pkt.Label]; ok {
			dst = h
		}
	}
	full, rerr := c.PathFor(pkt.Src, dst, policy, flowKey(pkt))
	if rerr != nil {
		return nil, true, rerr
	}
	if ierr := c.installPath(pkt, full); ierr != nil {
		return nil, true, ierr
	}
	// Re-walk so the tables, not the controller's answer, define the
	// forwarding behaviour (catches rule bugs in tests).
	path, err = c.walkTables(pkt)
	if err != nil {
		return nil, true, fmt.Errorf("sdn: tables inconsistent after install: %w", err)
	}
	return path, true, nil
}

// walkTables follows switch flow tables hop by hop from the source host.
func (c *Controller) walkTables(pkt openflow.PacketInfo) ([]netsim.NodeID, error) {
	src := pkt.Src
	nbrs := c.net.Neighbors(src)
	if len(nbrs) != 1 {
		return nil, fmt.Errorf("sdn: host %s has %d uplinks, want 1", src, len(nbrs))
	}
	path := []netsim.NodeID{src, nbrs[0]}
	visited := map[netsim.NodeID]bool{src: true, nbrs[0]: true}
	cur := nbrs[0]
	for {
		sw, ok := c.switches[cur]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownSwitch, cur)
		}
		action, verdict := sw.Lookup(pkt)
		switch verdict {
		case openflow.VerdictDrop:
			return nil, ErrDropped
		case openflow.VerdictMiss:
			return nil, fmt.Errorf("sdn: table miss at %s", cur)
		}
		next := action.NextHop
		if visited[next] {
			return nil, ErrForwardLoop
		}
		visited[next] = true
		path = append(path, next)
		if node := c.net.Node(next); node != nil && node.Kind == netsim.KindHost {
			return path, nil
		}
		cur = next
	}
}

// installPath pushes one rule per switch along the host-to-host path.
// Label-carrying flows match on the label alone (IP-less forwarding);
// address flows match the src/dst pair.
func (c *Controller) installPath(pkt openflow.PacketInfo, path []netsim.NodeID) error {
	if len(path) < 3 {
		return fmt.Errorf("%w: path %v too short", ErrNoPath, path)
	}
	match := openflow.Match{Src: pkt.Src, Dst: pkt.Dst}
	cookie := pairCookie(pkt.Src, pkt.Dst)
	if pkt.Label != 0 {
		match = openflow.Match{Label: pkt.Label}
		cookie = labelCookie(pkt.Label)
	}
	for i := 1; i < len(path)-1; i++ {
		sw, ok := c.switches[path[i]]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownSwitch, path[i])
		}
		rule := &openflow.Rule{
			Priority:    100,
			Match:       match,
			Action:      openflow.Action{Type: openflow.ActionOutput, NextHop: path[i+1]},
			IdleTimeout: c.cfg.RuleIdleTimeout,
			HardTimeout: c.cfg.RuleHardTimeout,
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
	cookie := pairCookie(src, dst)
	removed := 0
	for _, sw := range c.switches {
		removed += sw.RemoveByCookie(cookie)
	}
	return removed
}

// InstallDrop blocks traffic matching m at one switch (administrative
// policy; exercised by the management-plane tests).
func (c *Controller) InstallDrop(swID netsim.NodeID, m openflow.Match, priority int) error {
	sw, ok := c.switches[swID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSwitch, swID)
	}
	c.rulesInstalled++
	return sw.Install(&openflow.Rule{Priority: priority, Match: m, Action: openflow.Action{Type: openflow.ActionDrop}})
}
