package sdn

// Route-cache behaviour: hits are served from the per-epoch shortest
// path DAG without running Dijkstra (and, for the tiebreak-0 path,
// without allocating at all); any topology or link-state mutation bumps
// netsim's epoch and invalidates every entry; the congestion-aware
// policy bypasses the cache entirely because its weights move with link
// utilisation, which advances without an epoch bump.

import (
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
		if hop == r.topo.Agg[0] {
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
	cfg := DefaultConfig()
	cfg.RouteCacheEntries = cap
	ctrl := NewController(e, n, cfg)
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
	ctrl := NewController(e, n, DefaultConfig())
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
	cfg := DefaultConfig()
	cfg.DisableRouteSynthesis = true
	ctrl := NewController(e, n, cfg)
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
