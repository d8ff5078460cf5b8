package netsim_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// wiredFabrics builds each fabric the fleet builder wires, at a small
// size: the multi-root tree, a partly filled fat-tree and a leaf-spine.
var wiredFabrics = []struct {
	name  string
	build func(*netsim.Network) (*topology.Topology, error)
}{
	{"multi-root", func(n *netsim.Network) (*topology.Topology, error) {
		cfg := topology.DefaultMultiRoot()
		cfg.Racks, cfg.HostsPerRack, cfg.AggSwitches = 3, 5, 3
		return topology.BuildMultiRoot(n, cfg)
	}},
	{"fat-tree", func(n *netsim.Network) (*topology.Topology, error) {
		return topology.BuildFatTree(n, topology.FatTreeConfig{K: 6, Hosts: 40, UplinkBps: 4e8, Latency: 3 * time.Microsecond})
	}},
	{"leaf-spine", func(n *netsim.Network) (*topology.Topology, error) {
		cfg := topology.DefaultLeafSpine()
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 3, 4, 6
		return topology.BuildLeafSpine(n, cfg)
	}},
}

// sealedFabric builds a fabric, seals it and returns the built network,
// its topology and the wiring.
func sealedFabric(t *testing.T, build func(*netsim.Network) (*topology.Topology, error)) (*netsim.Network, *topology.Topology, *netsim.Wiring) {
	t.Helper()
	built := netsim.New(sim.NewEngine(1))
	topo, err := build(built)
	if err != nil {
		t.Fatal(err)
	}
	return built, topo, built.Seal()
}

// hopsOf copies every node's hop array.
func hopsOf(n *netsim.Network) [][]netsim.Hop {
	out := make([][]netsim.Hop, n.NodeCount())
	for i := range out {
		out[i] = slices.Clone(n.LinksFrom(int32(i)))
	}
	return out
}

// sameLink reports whether two links carry the same ends, parameters
// and state.
func sameLink(a, b *netsim.Link) bool {
	return a.From == b.From && a.To == b.To && a.Capacity == b.Capacity && a.Latency == b.Latency &&
		a.Up() == b.Up() && a.Shaped() == b.Shaped()
}

// TestWiredNetworkMatchesBuilt: a network wired from a sealed fabric
// equals the built one in node indices, hop arrays (destination, kind,
// up flag, link), link list order and parameters, and topology epoch,
// on every fabric; it shares the built network's nodes and owns its
// links, and each hop array is capped at the node's degree.
func TestWiredNetworkMatchesBuilt(t *testing.T) {
	for _, f := range wiredFabrics {
		t.Run(f.name, func(t *testing.T) {
			built, topo, w := sealedFabric(t, f.build)
			wired := netsim.Wire(sim.NewEngine(2), w)
			nodes, cables := netsim.WiringSize(w)
			if wired.NodeCount() != built.NodeCount() || nodes != built.NodeCount() {
				t.Fatalf("wired %d nodes (wiring %d), built %d", wired.NodeCount(), nodes, built.NodeCount())
			}
			if wired.TopoEpoch() != built.TopoEpoch() {
				t.Fatalf("wired epoch %d, built %d", wired.TopoEpoch(), built.TopoEpoch())
			}
			for _, id := range append(slices.Clone(topo.Hosts), topo.Switches()...) {
				if wired.Node(id) != built.Node(id) || wired.Node(id) == nil {
					t.Fatalf("node %s: wired %p, built %p", id, wired.Node(id), built.Node(id))
				}
			}
			for i := int32(0); int(i) < built.NodeCount(); i++ {
				if wired.NodeAt(i) != built.NodeAt(i) || built.NodeAt(i).Index() != i {
					t.Fatalf("node %d differs", i)
				}
				bh, wh := built.LinksFrom(i), wired.LinksFrom(i)
				if len(bh) != len(wh) || cap(wh) != len(wh) {
					t.Fatalf("node %d: %d hops (cap %d), built %d", i, len(wh), cap(wh), len(bh))
				}
				for j := range bh {
					b, x := bh[j], wh[j]
					if b.To() != x.To() || b.Kind() != x.Kind() || b.Up() != x.Up() || !sameLink(b.Link(), x.Link()) {
						t.Fatalf("node %d hop %d: wired %+v, built %+v", i, j, x, b)
					}
					if x.Link() == b.Link() || netsim.LinkNet(x.Link()) != wired || netsim.LinkRev(netsim.LinkRev(x.Link())) != x.Link() {
						t.Fatalf("node %d hop %d: wired hop's link is not the wired network's own", i, j)
					}
				}
			}
			bl, wl := netsim.LinkList(built), netsim.LinkList(wired)
			if len(bl) != len(wl) || cables*2 != len(bl) {
				t.Fatalf("wired %d links (wiring %d cables), built %d", len(wl), cables, len(bl))
			}
			for i := range bl {
				if !sameLink(bl[i], wl[i]) || netsim.LinkRev(wl[i]).From != wl[i].To {
					t.Fatalf("link %d: wired %s>%s, built %s>%s", i, wl[i].From, wl[i].To, bl[i].From, bl[i].To)
				}
			}
			if err := topology.Validate(topo, wired); err != nil {
				t.Fatalf("wired fabric fails validation: %v", err)
			}
		})
	}
}

// TestSealedNodeSetRefusesAddNode: AddNode on a sealed network and on a
// wired one fails with ErrSealed and changes nothing.
func TestSealedNodeSetRefusesAddNode(t *testing.T) {
	built, _, w := sealedFabric(t, wiredFabrics[0].build)
	wired := netsim.Wire(sim.NewEngine(2), w)
	for name, n := range map[string]*netsim.Network{"sealed": built, "wired": wired} {
		nodes, epoch, hops := n.NodeCount(), n.TopoEpoch(), hopsOf(n)
		if err := n.AddNode("late", netsim.KindHost); !errors.Is(err, netsim.ErrSealed) {
			t.Fatalf("%s: AddNode = %v, want ErrSealed", name, err)
		}
		if wn, _ := netsim.WiringSize(w); n.NodeCount() != nodes || n.TopoEpoch() != epoch || n.Node("late") != nil || wn != nodes {
			t.Fatalf("%s: refused AddNode changed the network", name)
		}
		for i, h := range hopsOf(n) {
			if !slices.Equal(h, hops[i]) {
				t.Fatalf("%s: refused AddNode moved node %d's hops", name, i)
			}
		}
	}
}

// TestWiredAddLinkKeepsNeighbours: a runtime AddDuplexLink on a wired
// network outgrows its two ends' capped arrays, and every other node's
// hop array — the ends' neighbours in the slab included — the built
// network and a sibling wired from the same fabric stay as they were.
// Removing the cable again restores the ends' arrays.
func TestWiredAddLinkKeepsNeighbours(t *testing.T) {
	built, topo, w := sealedFabric(t, wiredFabrics[0].build)
	wired := netsim.Wire(sim.NewEngine(2), w)
	sibling := netsim.Wire(sim.NewEngine(3), w)
	a, b := built.Node(topo.Edge[0]), built.Node(topo.Edge[1])
	before, builtHops, siblingHops := hopsOf(wired), hopsOf(built), hopsOf(sibling)
	if err := wired.AddDuplexLink(a.ID, b.ID, 1e9, time.Microsecond); err != nil {
		t.Fatal(err)
	}
	after := hopsOf(wired)
	for i := range after {
		switch int32(i) {
		case a.Index(), b.Index():
			if len(after[i]) != len(before[i])+1 || !slices.Equal(after[i][:len(before[i])], before[i]) {
				t.Fatalf("end %d: hops %v, want %v plus the new cable", i, after[i], before[i])
			}
		default:
			if !slices.Equal(after[i], before[i]) {
				t.Fatalf("node %d's hops moved when %s-%s was cabled", i, a.ID, b.ID)
			}
		}
	}
	if wired.Link(a.ID, b.ID) == nil || built.Link(a.ID, b.ID) != nil || sibling.Link(a.ID, b.ID) != nil {
		t.Fatal("the new cable is not the wired network's alone")
	}
	for i := range builtHops {
		if !slices.Equal(hopsOf(built)[i], builtHops[i]) || !slices.Equal(hopsOf(sibling)[i], siblingHops[i]) {
			t.Fatalf("node %d: the built network or the sibling moved", i)
		}
	}
	if err := wired.RemoveDuplexLink(a.ID, b.ID); err != nil {
		t.Fatal(err)
	}
	for i, h := range hopsOf(wired) {
		if !slices.Equal(h, before[i]) {
			t.Fatalf("node %d: hops %v after removing the cable, want %v", i, h, before[i])
		}
	}
}
