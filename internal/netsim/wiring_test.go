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

// wiredFabrics describes each fabric the fleet builder wires, at a
// small size: the multi-root tree, a partly filled fat-tree and a
// leaf-spine.
var wiredFabrics = []struct {
	name  string
	build func() (*topology.Topology, *netsim.Wiring, error)
}{
	{"multi-root", func() (*topology.Topology, *netsim.Wiring, error) {
		cfg := topology.DefaultMultiRoot()
		cfg.Racks, cfg.HostsPerRack, cfg.AggSwitches = 3, 5, 3
		return topology.BuildMultiRoot(cfg)
	}},
	{"fat-tree", func() (*topology.Topology, *netsim.Wiring, error) {
		return topology.BuildFatTree(topology.FatTreeConfig{K: 6, Hosts: 40, UplinkBps: 4e8, Latency: 3 * time.Microsecond})
	}},
	{"leaf-spine", func() (*topology.Topology, *netsim.Wiring, error) {
		cfg := topology.DefaultLeafSpine()
		cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = 3, 4, 6
		return topology.BuildLeafSpine(cfg)
	}},
}

// describe runs a fabric's builder.
func describe(t *testing.T, build func() (*topology.Topology, *netsim.Wiring, error)) (*topology.Topology, *netsim.Wiring) {
	t.Helper()
	topo, w, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, w
}

// replay adds w's nodes and cables one at a time, in order, to a New
// network and bumps the epoch once for the finished build: the
// reference a wired network must equal.
func replay(t *testing.T, w *netsim.Wiring) *netsim.Network {
	t.Helper()
	n := netsim.New(sim.NewEngine(1))
	for i := int32(0); int(i) < w.NodeCount(); i++ {
		if err := n.AddNode(w.NodeAt(i).ID, w.NodeAt(i).Kind); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < w.CableCount(); i++ {
		a, b, capacity, latency := w.Cable(i)
		if err := n.AddDuplexLink(w.NodeAt(a).ID, w.NodeAt(b).ID, capacity, latency); err != nil {
			t.Fatal(err)
		}
	}
	n.BumpTopoEpoch()
	return n
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
	return a.From() == b.From() && a.To() == b.To() && a.Capacity == b.Capacity && a.Latency == b.Latency &&
		a.Up() == b.Up() && a.Shaped() == b.Shaped()
}

// TestWiredNetworkMatchesBuilt: a network wired from a builder's wiring
// equals the same nodes and cables added one at a time, on every
// fabric (see checkWired).
func TestWiredNetworkMatchesBuilt(t *testing.T) {
	for _, f := range wiredFabrics {
		t.Run(f.name, func(t *testing.T) {
			topo, w := describe(t, f.build)
			checkWired(t, topo, w)
		})
	}
}

// FuzzFabricWiring: for any fabric kind and small dimensions, zero and
// negative included, and any link parameters, a builder either refuses
// the shape or returns a wiring whose wired network equals the same
// nodes and cables added one at a time and passes topology.Validate.
func FuzzFabricWiring(f *testing.F) {
	f.Add(uint8(0), int8(4), int8(14), int8(2), int8(100), int8(100), int8(100))
	f.Add(uint8(0), int8(3), int8(5), int8(-1), int8(0), int8(0), int8(0))
	f.Add(uint8(1), int8(6), int8(40), int8(0), int8(0), int8(40), int8(3))
	f.Add(uint8(1), int8(4), int8(-2), int8(0), int8(0), int8(0), int8(0))
	f.Add(uint8(1), int8(8), int8(0), int8(64), int8(-1), int8(0), int8(-5))
	f.Add(uint8(2), int8(3), int8(4), int8(6), int8(0), int8(0), int8(0))
	f.Add(uint8(2), int8(0), int8(1), int8(1), int8(0), int8(-3), int8(0))
	f.Fuzz(func(t *testing.T, fabric uint8, d1, d2, d3, hostMbps, upMbps, latencyUs int8) {
		hostBps, upBps := float64(hostMbps)*1e6, float64(upMbps)*1e7
		latency := time.Duration(latencyUs) * time.Microsecond
		var (
			topo *topology.Topology
			w    *netsim.Wiring
			err  error
		)
		switch fabric % 3 {
		case 0:
			topo, w, err = topology.BuildMultiRoot(topology.MultiRootConfig{
				Racks: int(d1 % 8), HostsPerRack: int(d2 % 12), AggSwitches: int(d3 % 5),
				HostLinkBps: hostBps, UplinkBps: upBps, Latency: latency,
			})
		case 1:
			topo, w, err = topology.BuildFatTree(topology.FatTreeConfig{
				K: int(d1 % 12), Hosts: int(d2) + 2*int(d3),
				HostLinkBps: hostBps, UplinkBps: upBps, Latency: latency,
			})
		default:
			topo, w, err = topology.BuildLeafSpine(topology.LeafSpineConfig{
				Leaves: int(d1 % 8), Spines: int(d2 % 6), HostsPerLeaf: int(d3 % 12),
				HostLinkBps: hostBps, UplinkBps: upBps, Latency: latency,
			})
		}
		if err != nil {
			return
		}
		checkWired(t, topo, w)
	})
}

// checkWired asserts that the network wired from w equals the same
// nodes and cables added one at a time (replay) in node indices, names
// and kinds, hop arrays (destination, kind, up flag, link), link list
// order and parameters, and topology epoch; that it shares the
// wiring's nodes, owns its links and caps each hop array at the node's
// degree; and that it passes topology.Validate.
func checkWired(t *testing.T, topo *topology.Topology, w *netsim.Wiring) {
	t.Helper()
	built := replay(t, w)
	wired := netsim.Wire(sim.NewEngine(2), w)
	if wired.NodeCount() != built.NodeCount() || w.NodeCount() != built.NodeCount() {
		t.Fatalf("wired %d nodes (wiring %d), built %d", wired.NodeCount(), w.NodeCount(), built.NodeCount())
	}
	if wired.TopoEpoch() != built.TopoEpoch() || w.Epoch() != built.TopoEpoch() {
		t.Fatalf("wired epoch %d (wiring %d), built %d", wired.TopoEpoch(), w.Epoch(), built.TopoEpoch())
	}
	for _, id := range append(slices.Clone(topo.Hosts), topo.Switches()...) {
		if wired.Node(id) == nil || wired.Node(id) != w.NodeAt(built.Node(id).Index()) {
			t.Fatalf("node %s: wired %v, built %v", id, wired.Node(id), built.Node(id))
		}
	}
	for i := int32(0); int(i) < built.NodeCount(); i++ {
		b, x := built.NodeAt(i), wired.NodeAt(i)
		if x != w.NodeAt(i) || x.Index() != i || b.Index() != i || x.ID != b.ID || x.Kind != b.Kind {
			t.Fatalf("node %d: wired %+v, built %+v", i, x, b)
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
			if netsim.LinkNet(x.Link()) != wired || netsim.LinkRev(netsim.LinkRev(x.Link())) != x.Link() {
				t.Fatalf("node %d hop %d: wired hop's link is not the wired network's own", i, j)
			}
		}
	}
	bl, wl := netsim.LinkList(built), netsim.LinkList(wired)
	if len(bl) != len(wl) || w.CableCount()*2 != len(bl) {
		t.Fatalf("wired %d links (wiring %d cables), built %d", len(wl), w.CableCount(), len(bl))
	}
	for i := range bl {
		if !sameLink(bl[i], wl[i]) || netsim.LinkRev(wl[i]).From() != wl[i].To() {
			t.Fatalf("link %d: wired %s>%s, built %s>%s", i, wl[i].From(), wl[i].To(), bl[i].From(), bl[i].To())
		}
	}
	if err := topology.Validate(topo, wired); err != nil {
		t.Fatalf("wired fabric fails validation: %v", err)
	}
}

// TestSealedNodeSetRefusesAddNode: AddNode on a wired network, whose
// node set is the wiring's, fails with ErrSealed and changes nothing.
func TestSealedNodeSetRefusesAddNode(t *testing.T) {
	_, w := describe(t, wiredFabrics[0].build)
	n := netsim.Wire(sim.NewEngine(2), w)
	nodes, epoch, hops := n.NodeCount(), n.TopoEpoch(), hopsOf(n)
	if err := n.AddNode("late", netsim.KindHost); !errors.Is(err, netsim.ErrSealed) {
		t.Fatalf("AddNode = %v, want ErrSealed", err)
	}
	if n.NodeCount() != nodes || n.TopoEpoch() != epoch || n.Node("late") != nil || w.NodeCount() != nodes {
		t.Fatal("refused AddNode changed the network")
	}
	for i, h := range hopsOf(n) {
		if !slices.Equal(h, hops[i]) {
			t.Fatalf("refused AddNode moved node %d's hops", i)
		}
	}
}

// TestWiredAddLinkKeepsNeighbours: a runtime AddDuplexLink on a wired
// network outgrows its two ends' capped arrays, and every other node's
// hop array — the ends' neighbours in the slab included — and a sibling
// wired from the same fabric stay as they were. Removing the cable
// again restores the ends' arrays.
func TestWiredAddLinkKeepsNeighbours(t *testing.T) {
	topo, w := describe(t, wiredFabrics[0].build)
	wired := netsim.Wire(sim.NewEngine(2), w)
	sibling := netsim.Wire(sim.NewEngine(3), w)
	a, b := wired.Node(topo.Edge[0]), wired.Node(topo.Edge[1])
	before, siblingHops := hopsOf(wired), hopsOf(sibling)
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
	if wired.Link(a.ID, b.ID) == nil || sibling.Link(a.ID, b.ID) != nil {
		t.Fatal("the new cable is not the wired network's alone")
	}
	for i, h := range hopsOf(sibling) {
		if !slices.Equal(h, siblingHops[i]) {
			t.Fatalf("node %d: the sibling moved", i)
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

// TestWiringBuilderRefusals: the builder refuses what AddNode and
// AddDuplexLink refuse — a name recorded twice, an unknown node, a
// self-loop, a non-positive capacity — and Finish refuses a cable
// recorded twice in either direction; the refusals the network makes
// name the same error values.
func TestWiringBuilderRefusals(t *testing.T) {
	fresh := func() *netsim.WiringBuilder {
		b := netsim.NewWiringBuilder(3, 3)
		for _, id := range []netsim.NodeID{"a", "b", "c"} {
			if _, err := b.AddNode(id, netsim.KindSwitch); err != nil {
				t.Fatal(err)
			}
		}
		return b
	}
	b := fresh()
	if i, err := b.AddNode("b", netsim.KindHost); !errors.Is(err, netsim.ErrNodeExists) || i != -1 {
		t.Fatalf("duplicate name: %d, %v", i, err)
	}
	for _, c := range []struct {
		name     string
		a, b     int32
		capacity float64
		want     error
	}{
		{"unknown node", 0, 3, 1e9, netsim.ErrNoSuchNode},
		{"negative index", -1, 0, 1e9, netsim.ErrNoSuchNode},
		{"self-loop", 1, 1, 1e9, nil},
		{"zero capacity", 0, 1, 0, nil},
		{"negative capacity", 0, 1, -1, nil},
	} {
		err := b.AddDuplexLink(c.a, c.b, c.capacity, 0)
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Fatalf("%s: %v, want %v", c.name, err, c.want)
		}
	}
	w, err := b.Finish()
	if err != nil || w.NodeCount() != 3 || w.CableCount() != 0 || w.Epoch() != 4 {
		t.Fatalf("refusals left state behind: %v, %+v", err, w)
	}
	for _, dup := range [][2]int32{{0, 1}, {1, 0}} {
		b := fresh()
		for _, c := range [][2]int32{{0, 1}, {1, 2}, dup} {
			if err := b.AddDuplexLink(c[0], c[1], 1e9, time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.Finish(); !errors.Is(err, netsim.ErrLinkExists) {
			t.Fatalf("cable %v recorded twice: Finish = %v, want ErrLinkExists", dup, err)
		}
	}
}
