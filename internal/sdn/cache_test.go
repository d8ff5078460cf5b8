package sdn

// Route-cache behaviour: hits are served from the per-epoch shortest
// path DAG without running Dijkstra (and, for the tiebreak-0 path,
// without allocating at all); any topology or link-state mutation bumps
// netsim's epoch and invalidates every entry; the congestion-aware
// policy bypasses the cache entirely because its weights move with link
// utilisation, which advances without an epoch bump.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestRouteCacheHitsAndEpochInvalidation(t *testing.T) {
	r := newRig(t)
	src, dst := r.host(0, 0), r.host(3, 13)

	first, err := r.ctrl.PathFor(src, dst, PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ctrl.RouteCacheMisses() != 1 || r.ctrl.RouteCacheHits() != 0 {
		t.Fatalf("after first call: hits %d misses %d, want 0/1",
			r.ctrl.RouteCacheHits(), r.ctrl.RouteCacheMisses())
	}
	second, err := r.ctrl.PathFor(src, dst, PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ctrl.RouteCacheHits() != 1 {
		t.Fatalf("second identical call missed the cache (hits %d)", r.ctrl.RouteCacheHits())
	}
	if len(first) != len(second) {
		t.Fatalf("cached path differs: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached path differs at hop %d: %v vs %v", i, first, second)
		}
	}

	// ECMP shares the DAG: a keyed call on the same pair is still a hit.
	if _, err := r.ctrl.PathFor(src, dst, PolicyECMP, 42); err != nil {
		t.Fatal(err)
	}
	if r.ctrl.RouteCacheHits() != 2 {
		t.Fatalf("ECMP call on cached pair missed (hits %d)", r.ctrl.RouteCacheHits())
	}

	// A link-state change invalidates: the next call re-routes around
	// the failure instead of replaying the stale path.
	if err := r.net.SetLinkUp(r.topo.Edge[0], r.topo.Agg[0], false); err != nil {
		t.Fatal(err)
	}
	rerouted, err := r.ctrl.PathFor(src, dst, PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ctrl.RouteCacheMisses() != 2 {
		t.Fatalf("epoch bump did not invalidate (misses %d)", r.ctrl.RouteCacheMisses())
	}
	for _, hop := range rerouted {
		if r.net.NodeAt(hop).ID == r.topo.Agg[0] {
			t.Fatalf("rerouted path %v still crosses the failed uplink's agg", rerouted)
		}
	}

	// Shaping bumps the epoch too (the fault injectors' contract).
	before := r.net.TopoEpoch()
	if err := r.net.ShapeLink(r.topo.Edge[1], r.topo.Agg[1], netsim.Shaping{CapacityScale: 0.5}); err != nil {
		t.Fatal(err)
	}
	if r.net.TopoEpoch() == before {
		t.Fatal("shaping did not advance the topology epoch")
	}
}

func TestCongestionAwareBypassesCache(t *testing.T) {
	r := newRig(t)
	src, dst := r.host(0, 0), r.host(1, 0)
	for i := 0; i < 3; i++ {
		if _, err := r.ctrl.PathFor(src, dst, PolicyCongestionAware, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.ctrl.RouteCacheHits() != 0 || r.ctrl.RouteCacheMisses() != 0 {
		t.Fatalf("congestion-aware routing touched the cache: hits %d misses %d",
			r.ctrl.RouteCacheHits(), r.ctrl.RouteCacheMisses())
	}
}

// TestCacheHitPathAllocationFree pins the microbench claim: a
// shortest-path cache hit performs zero heap allocations.
func TestCacheHitPathAllocationFree(t *testing.T) {
	r := newRig(t)
	src, dst := r.host(0, 0), r.host(3, 13)
	if _, err := r.ctrl.PathFor(src, dst, PolicyShortestPath, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := r.ctrl.PathFor(src, dst, PolicyShortestPath, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f objects/op, want 0", allocs)
	}
}

// cappedRig builds the default 4×14 fabric under a controller whose
// route cache holds only cap entries, so LRU behaviour is observable
// with a small fleet: the 56-host pair set (3080 pairs) vastly exceeds
// the cap, exactly like a 10⁵-node fleet against the production 2¹⁶.
func cappedRig(t *testing.T, cap int) (*netsim.Network, *topology.Topology, *Controller) {
	t.Helper()
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.DefaultMultiRoot())
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := NewController(e, n)
	ctrl.cacheCap = cap
	for _, id := range topo.Switches() {
		ctrl.RegisterSwitch(openflow.NewSwitch(id, e))
	}
	return n, topo, ctrl
}

// TestRouteCacheLRUKeepsHotPairs is the eviction-policy gate: a hot
// working set smaller than the cap must keep hitting while a stream of
// cold pairs larger than the cap churns through. The seed's wholesale
// clear-at-capacity dropped the hot set with the cold tail; LRU must
// not.
func TestRouteCacheLRUKeepsHotPairs(t *testing.T) {
	const cacheCap = 16
	_, topo, ctrl := cappedRig(t, cacheCap)

	// Hot set: 4 cross-rack pairs. Cold stream: every rack-0 host to
	// every rack-2/3 host — 28×2 = far more than the cap.
	hot := [][2]netsim.NodeID{
		{topo.Racks[0][0], topo.Racks[1][0]},
		{topo.Racks[0][1], topo.Racks[1][1]},
		{topo.Racks[0][2], topo.Racks[1][2]},
		{topo.Racks[0][3], topo.Racks[1][3]},
	}
	lookup := func(src, dst netsim.NodeID) {
		t.Helper()
		if _, err := ctrl.PathFor(src, dst, PolicyShortestPath, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the hot set.
	for _, p := range hot {
		lookup(p[0], p[1])
	}
	warmMisses := ctrl.RouteCacheMisses()

	// Interleave: each round touches every hot pair, then streams a
	// handful of cold pairs. Cold volume per round (8) stays below
	// cap - len(hot), so LRU never needs to evict a just-touched hot
	// entry; a wholesale clear would nuke them regardless.
	cold := 0
	for round := 0; round < 12; round++ {
		for _, p := range hot {
			lookup(p[0], p[1])
		}
		for i := 0; i < 8; i++ {
			src := topo.Racks[2][cold%14]
			dst := topo.Racks[3][(cold/14)%14]
			cold++
			lookup(src, dst)
		}
	}
	// Every post-warmup hot lookup must have been a hit: no hot pair
	// was ever evicted.
	hotLookups := uint64(12 * len(hot))
	if got := ctrl.RouteCacheHits(); got < hotLookups {
		t.Fatalf("hot pairs evicted: %d hits, want ≥ %d", got, hotLookups)
	}
	// The cold stream exceeded the cap, so the LRU must have evicted.
	if ctrl.RouteCacheEvictions() == 0 {
		t.Fatalf("cold stream of %d pairs never evicted (cap %d)", cold, cacheCap)
	}
	if got := ctrl.RouteCacheSize(); got > cacheCap {
		t.Fatalf("cache holds %d entries, cap %d", got, cacheCap)
	}
	// Hot-pair hit rate stays high despite the over-cap pair set.
	misses := ctrl.RouteCacheMisses() - warmMisses
	hits := ctrl.RouteCacheHits()
	if rate := float64(hits) / float64(hits+misses); rate < 0.30 {
		t.Fatalf("hit rate %.2f collapsed under cold streaming", rate)
	}
}

// TestRouteCacheLRUEvictsColdest pins the eviction order: filling the
// cache beyond capacity drops the least-recently-used pair, and
// re-querying it is a miss while the most recent pair is still a hit.
func TestRouteCacheLRUEvictsColdest(t *testing.T) {
	_, topo, ctrl := cappedRig(t, 2)
	a := [2]netsim.NodeID{topo.Racks[0][0], topo.Racks[1][0]}
	b := [2]netsim.NodeID{topo.Racks[0][1], topo.Racks[1][1]}
	c := [2]netsim.NodeID{topo.Racks[0][2], topo.Racks[1][2]}

	mustPath := func(p [2]netsim.NodeID) {
		t.Helper()
		if _, err := ctrl.PathFor(p[0], p[1], PolicyShortestPath, 0); err != nil {
			t.Fatal(err)
		}
	}
	mustPath(a) // cache: [a]
	mustPath(b) // cache: [b a]
	mustPath(a) // touch a → [a b]
	mustPath(c) // evicts b → [c a]
	if ctrl.RouteCacheEvictions() != 1 {
		t.Fatalf("evictions = %d, want 1", ctrl.RouteCacheEvictions())
	}
	misses := ctrl.RouteCacheMisses()
	mustPath(a) // must still be cached
	if ctrl.RouteCacheMisses() != misses {
		t.Fatal("recently-touched pair was evicted")
	}
	mustPath(b) // was evicted → miss
	if ctrl.RouteCacheMisses() != misses+1 {
		t.Fatal("evicted pair did not miss")
	}
}

// benchRig is newRig without the testing.T plumbing, at a 1000-node
// scale so the cache is amortising a genuinely expensive Dijkstra.
func benchRig(b *testing.B) (*netsim.Network, *topology.Topology, *Controller) {
	b.Helper()
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.MultiRootConfig{
		Racks: 20, HostsPerRack: 52, AggSwitches: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := NewController(e, n)
	for _, id := range topo.Switches() {
		ctrl.RegisterSwitch(openflow.NewSwitch(id, e))
	}
	return n, topo, ctrl
}

// BenchmarkSDNAdmitCached measures steady-state admission on a warm
// route cache: a cross-rack shortest-path lookup on a 1040-node fabric.
// Run with -benchmem: the headline claim is 0 B/op, 0 allocs/op.
func BenchmarkSDNAdmitCached(b *testing.B) {
	_, topo, ctrl := benchRig(b)
	src, dst := topo.Racks[0][0], topo.Racks[19][51]
	if _, err := ctrl.PathFor(src, dst, PolicyShortestPath, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.PathFor(src, dst, PolicyShortestPath, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ctrl.RouteCacheHits() < uint64(b.N) {
		b.Fatalf("cache hits %d < iterations %d", ctrl.RouteCacheHits(), b.N)
	}
}

// BenchmarkSDNAdmitUncached is the contrast case: every iteration pays
// a full Dijkstra across a 10,000-host multi-root tree (40 racks × 250,
// 8 roots). An epoch bump busts the cached pair each time (a cold pair
// each time would grow the cache unboundedly), and synthesis is off so
// the miss cannot take the structured fast path.
func BenchmarkSDNAdmitUncached(b *testing.B) {
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.MultiRootConfig{
		Racks: 40, HostsPerRack: 250, AggSwitches: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := NewController(e, n)
	ctrl.disableRouteSynthesis = true
	src, dst := topo.Racks[0][0], topo.Racks[39][249]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.BumpTopoEpoch()
		if _, err := ctrl.PathFor(src, dst, PolicyShortestPath, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// oracleCache is the route cache as it was keyed before routes became
// node indices: a map on the (src, dst) name pair, threaded on an
// intrusive LRU list, whose entries hold the name-keyed oracle's DAG
// (oracle_test.go). It counts hits, misses and evictions where the old
// cache did, so the index-keyed cache must match it step for step.
type oracleCache struct {
	net                     *netsim.Network
	cap                     int
	entries                 map[[2]netsim.NodeID]*oracleEntry
	head, tail              *oracleEntry
	hits, misses, evictions uint64
}

type oracleEntry struct {
	key        [2]netsim.NodeID
	epoch      uint64
	parents    map[netsim.NodeID][]netsim.NodeID
	visited    int
	prev, next *oracleEntry
}

func (o *oracleCache) unlink(e *oracleEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		o.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		o.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (o *oracleCache) pushFront(e *oracleEntry) {
	e.next = o.head
	if o.head != nil {
		o.head.prev = e
	}
	o.head = e
	if o.tail == nil {
		o.tail = e
	}
}

// pathFor answers PathFor over names: congestion-aware routing bypasses
// the cache, any other question is a hit on an entry of the current
// epoch, or a miss that routes afresh and files or refreshes the pair's
// entry, evicting the coldest at capacity.
func (o *oracleCache) pathFor(src, dst netsim.NodeID, policy Policy, key uint64, congestion weightFunc) ([]netsim.NodeID, error) {
	if policy == PolicyCongestionAware {
		parents, visited, err := oracleShortestDAG(o.net, src, dst, congestion)
		if err != nil {
			return nil, err
		}
		return oracleMaterialisePath(parents, src, dst, key, visited)
	}
	k := [2]netsim.NodeID{src, dst}
	e := o.entries[k]
	if e != nil && e.epoch == o.net.TopoEpoch() {
		o.hits++
	} else {
		o.misses++
		parents, visited, err := oracleShortestDAG(o.net, src, dst, weightHops)
		if err != nil {
			return nil, err
		}
		if e == nil {
			if len(o.entries) >= o.cap {
				cold := o.tail
				o.unlink(cold)
				delete(o.entries, cold.key)
				o.evictions++
			}
			e = &oracleEntry{key: k}
			o.entries[k] = e
			o.pushFront(e)
		}
		e.epoch, e.parents, e.visited = o.net.TopoEpoch(), parents, visited
	}
	o.unlink(e)
	o.pushFront(e)
	return oracleMaterialisePath(e.parents, src, dst, tiebreakFor(policy, key), e.visited)
}

// TestRouteCacheMatchesNameKeyedOracle drives the index-keyed route
// cache and the name-keyed oracle cache through the same random routing
// questions on a cache of eight entries: known and unknown names, a node
// and itself, all three policies, and epoch bumps from cable failures,
// repairs and explicit bumps. After every step the two agree on the
// path or error, on the hit, miss and eviction counts, on the size, and
// on the LRU order of the cached pairs.
func TestRouteCacheMatchesNameKeyedOracle(t *testing.T) {
	const cacheCap = 8
	n, topo, ctrl := cappedRig(t, cacheCap)
	oracle := &oracleCache{net: n, cap: cacheCap, entries: map[[2]netsim.NodeID]*oracleEntry{}}
	rng := rand.New(rand.NewSource(29))
	names := []netsim.NodeID{"ghost-a", "ghost-b"}
	for r := range topo.Racks {
		names = append(names, topo.Racks[r][:3]...)
	}
	policies := []Policy{PolicyShortestPath, PolicyECMP, PolicyECMP, PolicyCongestionAware}
	var down [][2]netsim.NodeID
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(100); {
		case op < 2:
			edge, agg := topo.Edge[rng.Intn(len(topo.Edge))], topo.Agg[rng.Intn(len(topo.Agg))]
			if err := n.SetLinkUp(edge, agg, false); err != nil {
				t.Fatal(err)
			}
			down = append(down, [2]netsim.NodeID{edge, agg})
		case op < 4 && len(down) > 0:
			c := down[0]
			down = down[1:]
			if err := n.SetLinkUp(c[0], c[1], true); err != nil {
				t.Fatal(err)
			}
		case op < 5:
			n.BumpTopoEpoch()
		default:
			src, dst := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			policy := policies[rng.Intn(len(policies))]
			key := uint64(rng.Intn(4))
			want, wantErr := oracle.pathFor(src, dst, policy, key, ctrl.weightCongestion)
			hops, err := ctrl.PathFor(src, dst, policy, key)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("step %d: %s->%s %v key %d: err %v, oracle %v", step, src, dst, policy, key, err, wantErr)
			}
			if got := ctrl.names(hops); err == nil && !slices.Equal(got, want) {
				t.Fatalf("step %d: %s->%s %v key %d: path %v, oracle %v", step, src, dst, policy, key, got, want)
			}
		}
		if ctrl.RouteCacheHits() != oracle.hits || ctrl.RouteCacheMisses() != oracle.misses ||
			ctrl.RouteCacheEvictions() != oracle.evictions || ctrl.RouteCacheSize() != len(oracle.entries) {
			t.Fatalf("step %d: hits/misses/evictions/size %d/%d/%d/%d, oracle %d/%d/%d/%d", step,
				ctrl.RouteCacheHits(), ctrl.RouteCacheMisses(), ctrl.RouteCacheEvictions(), ctrl.RouteCacheSize(),
				oracle.hits, oracle.misses, oracle.evictions, len(oracle.entries))
		}
		var lru, want [][2]netsim.NodeID
		for e := ctrl.lruHead; e != nil; e = e.next {
			lru = append(lru, [2]netsim.NodeID{ctrl.name(e.src), ctrl.name(e.dst)})
		}
		for e := oracle.head; e != nil; e = e.next {
			want = append(want, e.key)
		}
		if !slices.Equal(lru, want) {
			t.Fatalf("step %d: LRU order %v, oracle %v", step, lru, want)
		}
	}
	if oracle.hits == 0 || oracle.evictions == 0 {
		t.Fatalf("the walk never hit (%d) or never evicted (%d)", oracle.hits, oracle.evictions)
	}
}
