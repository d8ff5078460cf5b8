package sdn

// Equivalence gate for the structured route synthesis fast path: for
// every host pair of every structured fabric — multi-root tree,
// leaf-spine, fat-tree — and under shortest-path and ECMP with several
// flow keys, a controller with synthesis enabled must return exactly
// the path a Dijkstra-only controller returns, in healthy fabrics and
// across link failures and shaping. The fast path is a pure
// optimisation: any divergence here would silently change admission
// paths (and with them every scenario trace) at scale.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// synthRig is one wired fabric with a synthesising and a Dijkstra-only
// controller side by side.
type synthRig struct {
	net   *netsim.Network
	topo  *topology.Topology
	fast  *Controller
	slow  *Controller
	hosts []netsim.NodeID
}

func buildSynthRig(t *testing.T, build func() (*topology.Topology, *netsim.Wiring, error)) *synthRig {
	t.Helper()
	engine := sim.NewEngine(1)
	topo, w, err := build()
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.Wire(engine, w)
	slow := NewController(engine, net)
	slow.disableRouteSynthesis = true
	return &synthRig{
		net:   net,
		topo:  topo,
		fast:  NewController(engine, net),
		slow:  slow,
		hosts: topo.Hosts,
	}
}

// comparePairs asserts fast and slow agree on every host pair for
// shortest-path and a handful of ECMP keys.
func (r *synthRig) comparePairs(t *testing.T, label string) {
	t.Helper()
	keys := []uint64{0, 1, 7, 0xdeadbeef, 1 << 40}
	for _, src := range r.hosts {
		for _, dst := range r.hosts {
			if src == dst {
				continue
			}
			for _, policy := range []Policy{PolicyShortestPath, PolicyECMP} {
				for _, key := range keys {
					fastPath, fastErr := r.fast.PathFor(src, dst, policy, key)
					slowPath, slowErr := r.slow.PathFor(src, dst, policy, key)
					if (fastErr == nil) != (slowErr == nil) {
						t.Fatalf("%s: %s->%s %v key %d: errors differ: synth %v, dijkstra %v",
							label, src, dst, policy, key, fastErr, slowErr)
					}
					if fastErr != nil {
						if !errors.Is(fastErr, ErrNoPath) || !errors.Is(slowErr, ErrNoPath) {
							t.Fatalf("%s: %s->%s: unexpected errors %v / %v", label, src, dst, fastErr, slowErr)
						}
						continue
					}
					if fmt.Sprint(fastPath) != fmt.Sprint(slowPath) {
						t.Fatalf("%s: %s->%s %v key %d:\n  synth:    %v\n  dijkstra: %v",
							label, src, dst, policy, key, fastPath, slowPath)
					}
				}
			}
		}
	}
}

func synthFabrics() map[string]func() (*topology.Topology, *netsim.Wiring, error) {
	return map[string]func() (*topology.Topology, *netsim.Wiring, error){
		"multi-root": func() (*topology.Topology, *netsim.Wiring, error) {
			cfg := topology.DefaultMultiRoot()
			cfg.Racks, cfg.HostsPerRack, cfg.AggSwitches = 4, 5, 3
			return topology.BuildMultiRoot(cfg)
		},
		"leaf-spine": func() (*topology.Topology, *netsim.Wiring, error) {
			return topology.BuildLeafSpine(topology.LeafSpineConfig{
				Leaves: 4, Spines: 3, HostsPerLeaf: 5,
			})
		},
		"fat-tree": func() (*topology.Topology, *netsim.Wiring, error) {
			return topology.BuildFatTree(topology.FatTreeConfig{K: 4})
		},
	}
}

func TestRouteSynthesisMatchesDijkstra(t *testing.T) {
	for name, build := range synthFabrics() {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			rig := buildSynthRig(t, build)
			rig.comparePairs(t, "healthy")
			if rig.fast.RouteSynthHits() == 0 {
				t.Fatal("synthesis fast path never engaged on a healthy structured fabric")
			}

			// Fail one edge uplink: synthesised mids shrink (multi-root,
			// leaf-spine) or the fast path falls back; either way the
			// answers must keep matching.
			edge := rig.topo.Edge[0]
			var mid netsim.NodeID
			for _, h := range rig.net.NeighborLinks(edge) {
				if h.Up() && h.Kind() == netsim.KindSwitch {
					mid = h.Link().To()
					break
				}
			}
			if err := rig.net.SetLinkUp(edge, mid, false); err != nil {
				t.Fatal(err)
			}
			rig.comparePairs(t, "uplink down")

			// Restore the link, then shape it: shaping changes weights
			// for the congestion policy only; hop-count answers (and the
			// synthesised DAGs) must not move.
			if err := rig.net.SetLinkUp(edge, mid, true); err != nil {
				t.Fatal(err)
			}
			if err := rig.net.ShapeLink(edge, mid, netsim.Shaping{CapacityScale: 0.5, ExtraLatency: time.Millisecond, Loss: 0.05}); err != nil {
				t.Fatal(err)
			}
			rig.comparePairs(t, "shaped")

			// Isolate rack 0 entirely: every cross pair involving it must
			// fail identically on both controllers.
			for _, h := range rig.net.NeighborLinks(edge) {
				if h.Kind() == netsim.KindSwitch && h.Up() {
					if err := rig.net.SetLinkUp(edge, h.Link().To(), false); err != nil {
						t.Fatal(err)
					}
				}
			}
			rig.comparePairs(t, "rack isolated")
		})
	}
}

// TestSynthesisCoversCrossPod pins the fast path's full fat-tree
// coverage: pod-local pairs are synthesised by the short cases and
// cross-pod pairs (two middle tiers apart) by the edge→agg→core→agg→
// edge case — no healthy fat-tree pair falls back to Dijkstra — and
// the per-tier counters attribute each hit to the case that answered.
func TestSynthesisCoversCrossPod(t *testing.T) {
	rig := buildSynthRig(t, synthFabrics()["fat-tree"])
	podOf := map[netsim.NodeID]int{}
	for pod, hosts := range rig.topo.Racks {
		for _, h := range hosts {
			podOf[h] = pod
		}
	}

	var local, cross [2]netsim.NodeID
	foundLocal, foundCross := false, false
	for _, a := range rig.hosts {
		for _, b := range rig.hosts {
			if a == b {
				continue
			}
			if podOf[a] == podOf[b] && !foundLocal {
				local = [2]netsim.NodeID{a, b}
				foundLocal = true
			}
			if podOf[a] != podOf[b] && !foundCross {
				cross = [2]netsim.NodeID{a, b}
				foundCross = true
			}
		}
	}
	if !foundLocal || !foundCross {
		t.Fatal("fat-tree rig lacks pod-local or cross-pod pairs")
	}

	if _, err := rig.fast.PathFor(local[0], local[1], PolicyShortestPath, 0); err != nil {
		t.Fatal(err)
	}
	if rig.fast.RouteSynthHits() != 1 {
		t.Fatalf("pod-local pair: synth hits = %d, want 1", rig.fast.RouteSynthHits())
	}
	if _, err := rig.fast.PathFor(cross[0], cross[1], PolicyShortestPath, 0); err != nil {
		t.Fatal(err)
	}
	if rig.fast.RouteSynthHits() != 2 {
		t.Fatalf("cross-pod pair: synth hits = %d, want 2 (cross-pod must synthesise)", rig.fast.RouteSynthHits())
	}
	tiers := rig.fast.RouteSynthHitsByTier()
	if tiers[tierCrossPod] != 1 {
		t.Fatalf("cross-pod tier counter = %d, want 1 (by tier: %v)", tiers[tierCrossPod], tiers)
	}
	var sum uint64
	for _, v := range tiers {
		sum += v
	}
	if sum != rig.fast.RouteSynthHits() {
		t.Fatalf("tier counters sum to %d, total is %d", sum, rig.fast.RouteSynthHits())
	}
}

// TestSynthesisFallsBackFiveHopChain pins the cross-pod guard: when a
// distance-3 switch reaches dst's edge directly, dst settles at five
// hops — outside every provable shape — and the fast path must fall
// back rather than synthesise a six-hop DAG. The chain
// h1–e1–a1–c1–e2–h2 is exactly that situation.
func TestSynthesisFallsBackFiveHopChain(t *testing.T) {
	wb := netsim.NewWiringBuilder(6, 5)
	for _, n := range []struct {
		id   netsim.NodeID
		kind netsim.NodeKind
	}{
		{"h1", netsim.KindHost}, {"e1", netsim.KindSwitch}, {"a1", netsim.KindSwitch},
		{"c1", netsim.KindSwitch}, {"e2", netsim.KindSwitch}, {"h2", netsim.KindHost},
	} {
		if _, err := wb.AddNode(n.id, n.kind); err != nil {
			t.Fatal(err)
		}
	}
	// Each node is cabled to the next along the chain.
	for i := int32(0); i < 5; i++ {
		if err := wb.AddDuplexLink(i, i+1, 1e9, time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	w, err := wb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine(1)
	net := netsim.Wire(engine, w)
	fast := NewController(engine, net)
	slow := NewController(engine, net)
	slow.disableRouteSynthesis = true

	fastPath, err := fast.PathFor("h1", "h2", PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	slowPath, err := slow.PathFor("h1", "h2", PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(fastPath) != fmt.Sprint(slowPath) {
		t.Fatalf("paths differ:\n  synth:    %v\n  dijkstra: %v", fastPath, slowPath)
	}
	if fast.RouteSynthHits() != 0 {
		t.Fatalf("five-hop pair: synth hits = %d, want 0 (guard must fall back)", fast.RouteSynthHits())
	}
}

// TestRouteSynthesisMatchesDijkstraRandomFatTree is the randomized
// fat-tree differential: for k ∈ {4, 6, 8}, seeded random subsets of
// the agg and core fabric links are failed and shaped, and every host
// pair under every policy/key must agree between the synthesising and
// the Dijkstra-only controller — synthesis either answers with the
// identical DAG or falls back; it never answers where Dijkstra's DAG
// differs.
func TestRouteSynthesisMatchesDijkstraRandomFatTree(t *testing.T) {
	for _, k := range []int{4, 6, 8} {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			seeds := []int64{1, 2}
			if k == 8 {
				// k=8 is 16k pairs per round; one round keeps the
				// race-detector run of this gate inside its budget.
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				rng := rand.New(rand.NewSource(seed<<8 | int64(k)))
				rig := buildSynthRig(t, func() (*topology.Topology, *netsim.Wiring, error) {
					return topology.BuildFatTree(topology.FatTreeConfig{K: k})
				})
				// Every edge→agg and agg→core cable of the fabric.
				var fabric [][2]netsim.NodeID
				for _, sw := range append(append([]netsim.NodeID{}, rig.topo.Edge...), rig.topo.Agg...) {
					for _, h := range rig.net.NeighborLinks(sw) {
						if to := h.Link().To(); h.Kind() == netsim.KindSwitch && sw < to {
							fabric = append(fabric, [2]netsim.NodeID{sw, to})
						}
					}
				}
				rng.Shuffle(len(fabric), func(i, j int) { fabric[i], fabric[j] = fabric[j], fabric[i] })
				down := fabric[:k]
				for _, cable := range down {
					if err := rig.net.SetLinkUp(cable[0], cable[1], false); err != nil {
						t.Fatal(err)
					}
				}
				for _, cable := range fabric[k : 2*k] {
					if err := rig.net.ShapeLink(cable[0], cable[1], netsim.Shaping{
						CapacityScale: 0.25 + rng.Float64()/2,
						ExtraLatency:  time.Duration(rng.Intn(1000)) * time.Microsecond,
					}); err != nil {
						t.Fatal(err)
					}
				}
				rig.comparePairs(t, fmt.Sprintf("k=%d seed=%d failed=%v", k, seed, down))
				if rig.fast.RouteSynthHits() == 0 {
					t.Fatalf("k=%d seed=%d: synthesis never engaged under partial failure", k, seed)
				}
			}
		})
	}
}
