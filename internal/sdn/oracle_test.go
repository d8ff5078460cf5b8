package sdn

// The name-keyed reference oracle. oracleShortestDAG and
// oracleMaterialisePath are the controller's route computation as it
// was written over node names — string-keyed maps and container/heap —
// before route computation moved to dense node indices. The index-keyed
// code must return exactly their paths: the parent runs of a route DAG
// are in name order, not index order, because the ECMP hash indexes
// into them and every admission path, trace and digest follows.
//
// The differential runs on a k=22 fat-tree: its 121 cores number past
// 99, so coresw-100 sorts before coresw-11 and creation order differs
// from name order — a parent run left in index order would pick other
// ECMP branches there, which no smaller fabric can show.

import (
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

type oracleItem struct {
	node netsim.NodeID
	dist float64
}

type oracleQueue []oracleItem

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(oracleItem)) }
func (q *oracleQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// oracleShortestDAG runs Dijkstra from src until dst is settled and
// returns the equal-cost predecessor DAG with every parent list sorted
// by name, plus the number of nodes given a distance.
func oracleShortestDAG(net *netsim.Network, src, dst netsim.NodeID, w weightFunc) (map[netsim.NodeID][]netsim.NodeID, int, error) {
	if net.Node(src) == nil || net.Node(dst) == nil {
		return nil, 0, fmt.Errorf("%w: %s -> %s (unknown node)", ErrNoPath, src, dst)
	}
	if src == dst {
		return nil, 0, fmt.Errorf("%w: src equals dst %s", ErrNoPath, src)
	}
	const eps = 1e-12
	dist := map[netsim.NodeID]float64{src: 0}
	parents := make(map[netsim.NodeID][]netsim.NodeID)
	done := make(map[netsim.NodeID]bool)
	q := &oracleQueue{{node: src, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(oracleItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		if it.node == dst {
			break
		}
		for _, h := range net.NeighborLinks(it.node) {
			l := h.Link()
			nb := l.To()
			if !l.Up() || done[nb] {
				continue
			}
			if nb != dst && net.Node(nb).Kind == netsim.KindHost {
				continue
			}
			nd := it.dist + w(l)
			old, seen := dist[nb]
			switch {
			case !seen || nd < old-eps:
				dist[nb] = nd
				parents[nb] = []netsim.NodeID{it.node}
				heap.Push(q, oracleItem{node: nb, dist: nd})
			case nd <= old+eps:
				parents[nb] = append(parents[nb], it.node)
			}
		}
	}
	if !done[dst] {
		return nil, 0, fmt.Errorf("%w: %s -> %s", ErrNoPath, src, dst)
	}
	for _, ps := range parents {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
	}
	return parents, len(dist), nil
}

// oracleMaterialisePath walks the DAG back from dst, choosing among
// equal-cost parents by the FNV-1a hash of the hop's name and the
// tiebreak.
func oracleMaterialisePath(parents map[netsim.NodeID][]netsim.NodeID, src, dst netsim.NodeID, tiebreak uint64, visited int) ([]netsim.NodeID, error) {
	var rev []netsim.NodeID
	cur := dst
	for cur != src {
		rev = append(rev, cur)
		ps := parents[cur]
		if len(ps) == 0 {
			return nil, fmt.Errorf("%w: broken parent chain at %s", ErrNoPath, cur)
		}
		idx := 0
		if tiebreak != 0 && len(ps) > 1 {
			h := fnv.New64a()
			h.Write([]byte(cur))
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(tiebreak >> (8 * i))
			}
			h.Write(b[:])
			idx = int(h.Sum64() % uint64(len(ps)))
		}
		cur = ps[idx]
		if len(rev) > visited+1 {
			return nil, ErrForwardLoop
		}
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// TestIndexRoutingMatchesNameOracle is the differential against the
// name-keyed oracle on a k=22 fat-tree: for a seeded sample of host
// pairs, the synthesising controller, the Dijkstra-only controller and
// the oracle must return the same path under shortest-path, ECMP with
// several keys and congestion-aware routing — on the healthy fabric
// under background load, and again after random fabric links fail.
// Congestion-aware routing runs a full Dijkstra in all three arms, so
// it samples every eighth pair; the failure round samples a quarter.
func TestIndexRoutingMatchesNameOracle(t *testing.T) {
	rig := buildSynthRig(t, func() (*topology.Topology, *netsim.Wiring, error) {
		return topology.BuildFatTree(topology.FatTreeConfig{K: 22})
	})
	if rig.net.Node("coresw-100") == nil || rig.net.Node("coresw-100").Index() < rig.net.Node("coresw-11").Index() {
		t.Fatal("k=22 fabric no longer numbers coresw-100 after coresw-11: the name/index split this test exists for is gone")
	}
	rng := rand.New(rand.NewSource(22))
	pairs := make([][2]netsim.NodeID, 0, 400)
	for len(pairs) < cap(pairs) {
		a, b := rig.hosts[rng.Intn(len(rig.hosts))], rig.hosts[rng.Intn(len(rig.hosts))]
		if a != b {
			pairs = append(pairs, [2]netsim.NodeID{a, b})
		}
	}
	// Background load: congestion-aware weights are then no longer
	// uniform, so its equal-cost sets depend on float ties.
	for _, p := range pairs[:40] {
		path, err := rig.fast.PathFor(p[0], p[1], PolicyECMP, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rig.net.StartFlow(netsim.FlowSpec{Src: p[0], Dst: p[1], Path: path, RateCapBps: 2e8}); err != nil {
			t.Fatal(err)
		}
	}
	keys := []uint64{0, 7, 0xdeadbeef, 1 << 40}
	check := func(label string, pairs [][2]netsim.NodeID) {
		t.Helper()
		for i, p := range pairs {
			src, dst := p[0], p[1]
			parents, visited, oerr := oracleShortestDAG(rig.net, src, dst, weightHops)
			for _, key := range keys {
				policy := PolicyECMP
				if key == 0 {
					policy = PolicyShortestPath
				}
				var want []netsim.NodeID
				if oerr == nil {
					var err error
					if want, err = oracleMaterialisePath(parents, src, dst, key, visited); err != nil {
						t.Fatal(err)
					}
				}
				compareToOracle(t, rig, label, src, dst, policy, key, want, oerr)
			}
			if i%8 != 0 {
				continue
			}
			cparents, cvisited, cerr := oracleShortestDAG(rig.net, src, dst, rig.fast.weightCongestion)
			var want []netsim.NodeID
			if cerr == nil {
				var err error
				if want, err = oracleMaterialisePath(cparents, src, dst, 5, cvisited); err != nil {
					t.Fatal(err)
				}
			}
			compareToOracle(t, rig, label, src, dst, PolicyCongestionAware, 5, want, cerr)
		}
	}
	check("healthy", pairs)
	if rig.fast.RouteSynthHits() == 0 {
		t.Fatal("synthesis never engaged on the healthy k=22 fabric")
	}

	var fabric [][2]netsim.NodeID
	for _, sw := range append(append([]netsim.NodeID{}, rig.topo.Edge...), rig.topo.Agg...) {
		for _, h := range rig.net.NeighborLinks(sw) {
			if to := h.Link().To(); h.Kind() == netsim.KindSwitch && sw < to {
				fabric = append(fabric, [2]netsim.NodeID{sw, to})
			}
		}
	}
	rng.Shuffle(len(fabric), func(i, j int) { fabric[i], fabric[j] = fabric[j], fabric[i] })
	for _, cable := range fabric[:60] {
		if err := rig.net.SetLinkUp(cable[0], cable[1], false); err != nil {
			t.Fatal(err)
		}
	}
	check("60 fabric links down", pairs[:100])
}

// compareToOracle asserts that the synthesising and the Dijkstra-only
// controller both answer a routing question exactly as the oracle did.
func compareToOracle(t *testing.T, rig *synthRig, label string, src, dst netsim.NodeID, policy Policy, key uint64, want []netsim.NodeID, wantErr error) {
	t.Helper()
	for _, arm := range []struct {
		name string
		ctrl *Controller
	}{{"synth", rig.fast}, {"dijkstra", rig.slow}} {
		hops, err := arm.ctrl.PathFor(src, dst, policy, key)
		got := arm.ctrl.names(hops)
		if wantErr != nil {
			if !errors.Is(err, ErrNoPath) || err.Error() != wantErr.Error() {
				t.Fatalf("%s: %s->%s %v key %d: %s returned %v, %v; oracle error %v",
					label, src, dst, policy, key, arm.name, got, err, wantErr)
			}
			continue
		}
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %s->%s %v key %d:\n  %s: %v (err %v)\n  oracle: %v",
				label, src, dst, policy, key, arm.name, got, err, want)
		}
	}
}

// coldCrossPodRig returns a k-ary fat-tree under a controller and a
// cross-pod host pair whose cold ECMP route the alloc gate and the
// benchmark time.
func coldCrossPodRig(tb testing.TB, k int) (*netsim.Network, *Controller, netsim.NodeID, netsim.NodeID) {
	tb.Helper()
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildFatTree(topology.FatTreeConfig{K: k})
	if err != nil {
		tb.Fatal(err)
	}
	net := netsim.Wire(e, w)
	src, dst := topo.Hosts[0], topo.Hosts[len(topo.Hosts)-1]
	if slices.Contains(topo.Racks[0], dst) {
		tb.Fatalf("k=%d: %s and %s share a pod", k, src, dst)
	}
	return net, NewController(e, net), src, dst
}

// coldCrossPodRoute is one cold cross-pod ECMP admission: the epoch
// bump invalidates the cached entry, so PathFor synthesises afresh.
func coldCrossPodRoute(tb testing.TB, net *netsim.Network, ctrl *Controller, src, dst netsim.NodeID, key uint64) {
	net.BumpTopoEpoch()
	if _, err := ctrl.PathFor(src, dst, PolicyECMP, key); err != nil {
		tb.Fatal(err)
	}
}

// TestColdCrossPodRouteAllocs pins the per-route cost of cross-pod
// synthesis: a cold ECMP route allocates the same handful of objects on
// a k=8 and a k=22 fat-tree. The route DAG is one allocation whatever
// its size, and every per-call set lives in controller-owned scratch.
func TestColdCrossPodRouteAllocs(t *testing.T) {
	allocs := map[int]float64{}
	for _, k := range []int{8, 22} {
		net, ctrl, src, dst := coldCrossPodRig(t, k)
		coldCrossPodRoute(t, net, ctrl, src, dst, 1) // size the scratch
		allocs[k] = testing.AllocsPerRun(50, func() { coldCrossPodRoute(t, net, ctrl, src, dst, 1) })
		if tiers := ctrl.RouteSynthHitsByTier(); tiers[tierCrossPod] == 0 {
			t.Fatalf("k=%d: the route was not synthesised as cross-pod (by tier: %v)", k, tiers)
		}
	}
	if allocs[8] != allocs[22] || allocs[22] > 20 {
		t.Fatalf("cold cross-pod route allocates %v objects at k=8 and %v at k=22; want equal and at most 20",
			allocs[8], allocs[22])
	}
}

// BenchmarkColdCrossPodRoute times one cold cross-pod ECMP PathFor on a
// k=22 fat-tree (121 cores, 11 equal-cost aggs per pod). Run with
// -benchmem: B/op is the cached route DAG plus the two paths.
func BenchmarkColdCrossPodRoute(b *testing.B) {
	net, ctrl, src, dst := coldCrossPodRig(b, 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldCrossPodRoute(b, net, ctrl, src, dst, uint64(i)|1)
	}
}
