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

// TestWiredNetworkMatchesModel: a network wired from a builder's wiring
// matches the name-keyed model of its nodes and cables, on every fabric
// (see checkWired).
func TestWiredNetworkMatchesModel(t *testing.T) {
	for _, f := range wiredFabrics {
		t.Run(f.name, func(t *testing.T) {
			topo, w, err := f.build()
			if err != nil {
				t.Fatal(err)
			}
			checkWired(t, topo, w)
		})
	}
}

// FuzzFabricWiring: for any fabric kind and small dimensions, zero and
// negative included, and any link parameters, a builder either refuses
// the shape or returns a wiring whose wired networks match the
// name-keyed model of its nodes and cables and pass topology.Validate.
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

// checkWired asserts that each of two networks wired from w matches the
// name-keyed model of w's nodes and cables (netsim.CheckWiredAgainstModel:
// node indices and kinds, hop arrays, link order, reverse legs, link
// ownership and epoch), shares the wiring's nodes, caps each hop array
// at the node's degree, holds every node the topology names and passes
// topology.Validate.
func checkWired(t *testing.T, topo *topology.Topology, w *netsim.Wiring) {
	t.Helper()
	for seed := int64(1); seed <= 2; seed++ {
		n := netsim.Wire(sim.NewEngine(seed), w)
		netsim.CheckWiredAgainstModel(t, n, w)
		for i := int32(0); int(i) < w.NodeCount(); i++ {
			if hops := n.LinksFrom(i); n.NodeAt(i) != w.NodeAt(i) || cap(hops) != len(hops) {
				t.Fatalf("node %d: not the wiring's, or %d hops in an array of %d", i, len(hops), cap(hops))
			}
		}
		for _, id := range append(slices.Clone(topo.Hosts), topo.Switches()...) {
			if nd := n.Node(id); nd == nil || nd != w.NodeAt(nd.Index()) {
				t.Fatalf("node %s: wired %v", id, nd)
			}
		}
		if err := topology.Validate(topo, n); err != nil {
			t.Fatalf("wired fabric fails validation: %v", err)
		}
	}
}

// TestWiringBuilderRefusals: the builder refuses a name recorded twice,
// an unknown node, a self-loop and a non-positive capacity, and leaves
// nothing of them behind; Finish refuses a cable recorded twice in
// either direction.
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
