package topology

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// wired instantiates a builder's fabric on a fresh engine.
func wired(topo *Topology, w *netsim.Wiring, err error) (*Topology, *netsim.Network, error) {
	if err != nil {
		return nil, nil, err
	}
	return topo, netsim.Wire(sim.NewEngine(1), w), nil
}

func TestMultiRootPaperShape(t *testing.T) {
	topo, net, err := wired(BuildMultiRoot(DefaultMultiRoot()))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Hosts); got != 56 {
		t.Fatalf("hosts = %d, paper says 56", got)
	}
	if got := len(topo.Racks); got != 4 {
		t.Fatalf("racks = %d, paper says 4", got)
	}
	for r, rack := range topo.Racks {
		if len(rack) != 14 {
			t.Fatalf("rack %d has %d Pis, paper says 14", r, len(rack))
		}
	}
	if got := len(topo.Edge); got != 4 {
		t.Fatalf("ToR switches = %d, want 4 (one per rack)", got)
	}
	if got := len(topo.Core); got != 1 {
		t.Fatalf("core/gateway = %d, want 1", got)
	}
	if err := Validate(topo, net); err != nil {
		t.Fatal(err)
	}
}

func TestMultiRootWiring(t *testing.T) {
	topo, net, err := wired(BuildMultiRoot(DefaultMultiRoot()))
	if err != nil {
		t.Fatal(err)
	}
	// Host links run at the Pi's 100Mb/s.
	h := topo.Hosts[0]
	tor := topo.Edge[0]
	l := net.Link(h, tor)
	if l == nil {
		t.Fatalf("no link %s->%s", h, tor)
	}
	if l.Capacity != DefaultHostLinkBps {
		t.Fatalf("host link = %v bps, want 100e6", l.Capacity)
	}
	// Every ToR reaches every aggregation root (multi-root tree).
	for _, tor := range topo.Edge {
		for _, agg := range topo.Agg {
			if net.Link(tor, agg) == nil {
				t.Fatalf("missing %s->%s", tor, agg)
			}
		}
	}
	// Every aggregation switch reaches the gateway.
	for _, agg := range topo.Agg {
		if net.Link(agg, topo.Core[0]) == nil {
			t.Fatalf("missing %s->gateway", agg)
		}
	}
}

func TestMultiRootRejectsBadConfig(t *testing.T) {
	for _, cfg := range []MultiRootConfig{
		{Racks: 0, HostsPerRack: 14},
		{Racks: 4, HostsPerRack: 0},
	} {
		if _, _, err := BuildMultiRoot(cfg); err == nil {
			t.Fatalf("accepted config %+v", cfg)
		}
	}
}

// TestRackQueries: a host's rack is read from Racks, and every builder
// lays Racks end to end in Hosts, so a rack is also a run of Hosts.
func TestRackQueries(t *testing.T) {
	builds := map[string]func() (*Topology, *netsim.Wiring, error){
		"multi-root": func() (*Topology, *netsim.Wiring, error) { return BuildMultiRoot(DefaultMultiRoot()) },
		"fat-tree-partial": func() (*Topology, *netsim.Wiring, error) {
			return BuildFatTree(FatTreeConfig{K: 4, Hosts: 11})
		},
		"leaf-spine": func() (*Topology, *netsim.Wiring, error) { return BuildLeafSpine(DefaultLeafSpine()) },
	}
	for name, build := range builds {
		topo, _, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var laid []netsim.NodeID
		for _, rack := range topo.Racks {
			laid = append(laid, rack...)
		}
		if !slices.Equal(laid, topo.Hosts) {
			t.Errorf("%s: Hosts %v are not Racks laid end to end %v", name, topo.Hosts, laid)
		}
	}
}

func TestFatTreeK4(t *testing.T) {
	topo, net, err := wired(BuildFatTree(FatTreeConfig{K: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Hosts); got != 16 {
		t.Fatalf("k=4 hosts = %d, want 16", got)
	}
	if got := len(topo.Core); got != 4 {
		t.Fatalf("k=4 cores = %d, want 4", got)
	}
	if got := len(topo.Agg); got != 8 {
		t.Fatalf("k=4 agg = %d, want 8", got)
	}
	if got := len(topo.Edge); got != 8 {
		t.Fatalf("k=4 edge = %d, want 8", got)
	}
	if err := Validate(topo, net); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreePartialHosts(t *testing.T) {
	// 56 Pis re-cabled into a k=8 fat-tree (capacity 128).
	topo, net, err := wired(BuildFatTree(FatTreeConfig{K: 8, Hosts: 56}))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Hosts); got != 56 {
		t.Fatalf("hosts = %d, want 56", got)
	}
	if err := Validate(topo, net); err != nil {
		t.Fatal(err)
	}
}

func TestFatTreeRejectsBadConfig(t *testing.T) {
	cases := []FatTreeConfig{
		{K: 3},            // odd
		{K: 0},            // zero
		{K: 4, Hosts: 17}, // over capacity
	}
	for _, cfg := range cases {
		if _, _, err := BuildFatTree(cfg); err == nil {
			t.Fatalf("accepted config %+v", cfg)
		}
	}
}

func TestLeafSpine(t *testing.T) {
	topo, net, err := wired(BuildLeafSpine(DefaultLeafSpine()))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Hosts); got != 56 {
		t.Fatalf("hosts = %d, want 56", got)
	}
	if err := Validate(topo, net); err != nil {
		t.Fatal(err)
	}
	// Full bipartite leaf↔spine.
	for _, leaf := range topo.Edge {
		for _, spine := range topo.Core {
			if net.Link(leaf, spine) == nil {
				t.Fatalf("missing %s->%s", leaf, spine)
			}
		}
	}
	if _, _, err := BuildLeafSpine(LeafSpineConfig{}); err == nil {
		t.Fatal("accepted zero config")
	}
}

func TestValidateCatchesBrokenFabric(t *testing.T) {
	topo, net, err := wired(BuildMultiRoot(DefaultMultiRoot()))
	if err != nil {
		t.Fatal(err)
	}
	// Disconnect a rack by failing its ToR uplinks: Validate's BFS
	// follows up links only.
	for _, agg := range topo.Agg {
		if err := net.SetLinkUp(topo.Edge[0], agg, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := Validate(topo, net); err == nil {
		t.Fatal("Validate accepted a partitioned fabric")
	}
}

// TestValidateCatchesInconsistentRacks: racks that do not partition the
// hosts are refused, also where a rack lists, at a host's position in
// Hosts, a different host or one the network lacks: a rack host reuses
// the index of the host at its position only when the names match.
func TestValidateCatchesInconsistentRacks(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(racks [][]netsim.NodeID)
	}{
		{"host duplicated into a second rack", func(racks [][]netsim.NodeID) {
			racks[1] = append(racks[1], racks[0][0])
		}},
		{"host listed in place of another", func(racks [][]netsim.NodeID) {
			racks[1] = slices.Clone(racks[1])
			racks[1][0] = racks[0][0]
		}},
		{"host missing from the network", func(racks [][]netsim.NodeID) {
			racks[1] = slices.Clone(racks[1])
			racks[1][0] = "pi-r99-n99"
		}},
	} {
		topo, net, err := wired(BuildMultiRoot(DefaultMultiRoot()))
		if err != nil {
			t.Fatal(err)
		}
		c.edit(topo.Racks)
		if err := Validate(topo, net); err == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
	}
}

// Property: any valid multi-root config yields a fabric that validates
// and has racks×hostsPerRack hosts.
func TestPropertyMultiRootValid(t *testing.T) {
	f := func(racks, hosts, aggs uint8) bool {
		r := int(racks%6) + 1
		h := int(hosts%10) + 1
		a := int(aggs%3) + 1
		topo, net, err := wired(BuildMultiRoot(MultiRootConfig{Racks: r, HostsPerRack: h, AggSwitches: a}))
		if err != nil {
			return false
		}
		if len(topo.Hosts) != r*h {
			return false
		}
		return Validate(topo, net) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRenderFig1(t *testing.T) {
	topo, _, err := BuildMultiRoot(DefaultMultiRoot())
	if err != nil {
		t.Fatal(err)
	}
	art := Render(topo)
	if !strings.Contains(art, "56 hosts in 4 racks") {
		t.Errorf("render missing scale line:\n%s", art)
	}
	if got := strings.Count(art, "├─"); got != 56 {
		t.Errorf("render shows %d Pis, want 56", got)
	}
	for _, want := range []string{"rack 0", "rack 3", "tor-00", "gw-00"} {
		if !strings.Contains(art, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFabricString(t *testing.T) {
	if FabricMultiRoot.String() != "multi-root-tree" ||
		FabricFatTree.String() != "fat-tree" ||
		FabricLeafSpine.String() != "leaf-spine" {
		t.Error("fabric names wrong")
	}
}

func BenchmarkBuildMultiRoot56(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := BuildMultiRoot(DefaultMultiRoot()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRackEdgesOwnTheirRacks: on every fabric, a rack's edge switches
// are the ones its hosts are cabled to (a fat-tree pod has k/2 of them,
// so Edge alone is not index-aligned with Racks), RackEdges lists Edge
// rack by rack, and Uplinks yields exactly an edge switch's links to
// other switches.
func TestRackEdgesOwnTheirRacks(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Topology, *netsim.Wiring, error)
		perRack int // edge switches per rack
		uplinks int // uplinks per edge switch
	}{
		{"multi-root", func() (*Topology, *netsim.Wiring, error) { return BuildMultiRoot(DefaultMultiRoot()) }, 1, DefaultAggSwitches},
		{"fat-tree", func() (*Topology, *netsim.Wiring, error) { return BuildFatTree(FatTreeConfig{K: 8}) }, 4, 4},
		{"fat-tree-partial", func() (*Topology, *netsim.Wiring, error) { return BuildFatTree(FatTreeConfig{K: 8, Hosts: 56}) }, 4, 4},
		{"leaf-spine", func() (*Topology, *netsim.Wiring, error) { return BuildLeafSpine(DefaultLeafSpine()) }, 1, DefaultSpineSwitches},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, net, err := wired(tc.build())
			if err != nil {
				t.Fatal(err)
			}
			if len(topo.RackEdges) != len(topo.Racks) {
				t.Fatalf("%d racks, %d RackEdges entries", len(topo.Racks), len(topo.RackEdges))
			}
			var flat []netsim.NodeID
			for r, edges := range topo.RackEdges {
				if len(edges) != tc.perRack {
					t.Fatalf("rack %d has edge switches %v, want %d", r, edges, tc.perRack)
				}
				flat = append(flat, edges...)
				for _, h := range topo.Racks[r] {
					hops := net.NeighborLinks(h)
					if len(hops) != 1 || !slices.Contains(edges, hops[0].Link().To()) {
						t.Fatalf("host %s of rack %d is cabled outside its edge switches %v", h, r, edges)
					}
				}
				for _, e := range edges {
					n := 0
					for l := range Uplinks(net, e) {
						if l.From() != e || net.Node(l.To()).Kind != netsim.KindSwitch {
							t.Fatalf("uplink %s->%s of %s", l.From(), l.To(), e)
						}
						n++
					}
					if n != tc.uplinks {
						t.Fatalf("%s has %d uplinks, want %d", e, n, tc.uplinks)
					}
				}
			}
			if !slices.Equal(flat, topo.Edge) {
				t.Fatalf("RackEdges %v do not list Edge %v rack by rack", topo.RackEdges, topo.Edge)
			}
		})
	}
}

// TestRenderLabelsPods: a fat-tree rack is a pod and is labelled with
// its own edge switches, not with the switch at its index in Edge.
func TestRenderLabelsPods(t *testing.T) {
	topo, _, err := BuildFatTree(FatTreeConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := "rack 5 [edge-p05-00 edge-p05-01 edge-p05-02 edge-p05-03]\n"
	if art := Render(topo); !strings.Contains(art, want) {
		t.Fatalf("render lacks %q:\n%s", want, art)
	}
}

// TestHostNameMatchesFmt: the strconv host name prints what
// fmt's "pi-r%02d-n%02d" printed, for one- to four-digit racks and
// indices.
func TestHostNameMatchesFmt(t *testing.T) {
	nums := []int{0, 1, 9, 10, 13, 99, 100, 255, 256, 999, 1000, 4092, 9999}
	for _, rack := range nums {
		for _, idx := range nums {
			if got, want := HostName(rack, idx), netsim.NodeID(fmt.Sprintf("pi-r%02d-n%02d", rack, idx)); got != want {
				t.Fatalf("HostName(%d, %d) = %s, want %s", rack, idx, got, want)
			}
		}
	}
}
