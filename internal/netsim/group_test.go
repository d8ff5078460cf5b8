package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// buildGroupedFabric wires a small two-rack multi-root-shaped fabric by
// hand and tags each rack's uplinks, mirroring what the topology
// builders do.
func buildGroupedFabric(t *testing.T) (*sim.Engine, *Network, []NodeID) {
	t.Helper()
	e := sim.NewEngine(1)
	n := New(e)
	nodes := []struct {
		id   NodeID
		kind NodeKind
	}{
		{"agg-0", KindSwitch}, {"agg-1", KindSwitch},
		{"tor-0", KindSwitch}, {"tor-1", KindSwitch},
		{"h0", KindHost}, {"h1", KindHost}, {"h2", KindHost}, {"h3", KindHost},
	}
	for _, nd := range nodes {
		if err := n.AddNode(nd.id, nd.kind); err != nil {
			t.Fatal(err)
		}
	}
	link := func(a, b NodeID, bps float64) {
		if err := n.AddDuplexLink(a, b, bps, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	link("tor-0", "agg-0", 1e9)
	link("tor-0", "agg-1", 1e9)
	link("tor-1", "agg-0", 1e9)
	link("tor-1", "agg-1", 1e9)
	link("h0", "tor-0", 1e8)
	link("h1", "tor-0", 1e8)
	link("h2", "tor-1", 1e8)
	link("h3", "tor-1", 1e8)
	edges := []NodeID{"tor-0", "tor-1"}
	for i, tor := range edges {
		for _, h := range n.NeighborLinks(tor) {
			if h.Kind() == KindSwitch {
				if err := n.TagLinkGroup(tor, h.Link().To, i); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return e, n, edges
}

// uplinkWalk is the reference: the direct deterministic walk over edge
// uplinks the grouped total must reproduce exactly. Per-edge subtotals
// are accumulated first — the same summation shape as the grouped path
// (and as workload.CrossRackBytes' fallback), since float addition is
// not associative.
func uplinkWalk(n *Network, edges []NodeID) float64 {
	total := 0.0
	for _, e := range edges {
		sub := 0.0
		for _, h := range n.NeighborLinks(e) {
			if h.Kind() == KindSwitch {
				sub += h.Link().BitsCarried()
			}
		}
		total += sub
	}
	return total
}

// TestGroupedBitsMatchesWalk drives cross-rack and rack-local flows,
// cancellations and a link failure through the fabric and requires the
// hierarchical total to equal the direct walk bit-for-bit at every
// probe point — mid-flow (live pending spans), after completion
// (cached), and after a failure ended flows early.
func TestGroupedBitsMatchesWalk(t *testing.T) {
	e, n, edges := buildGroupedFabric(t)
	check := func(label string) {
		t.Helper()
		got, ok := n.GroupedBitsCarried()
		if !ok {
			t.Fatalf("%s: GroupedBitsCarried reported no groups", label)
		}
		want := uplinkWalk(n, edges)
		if got != want {
			t.Fatalf("%s: grouped %v != walk %v", label, got, want)
		}
	}
	check("idle fabric")

	f1, err := n.StartFlow(FlowSpec{Src: "h0", Dst: "h2", Path: []NodeID{"h0", "tor-0", "agg-0", "tor-1", "h2"}, SizeBits: 8e8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.StartFlow(FlowSpec{Src: "h1", Dst: "h0", Path: []NodeID{"h1", "tor-0", "h0"}, SizeBits: 4e8}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	check("mid-flow")
	if err := n.CancelFlow(f1); err != nil {
		t.Fatal(err)
	}
	check("after cancel")
	if err := e.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	check("after completion")
	// Attribution: f1 crossed rack 0's uplink (tor-0→agg-0) only — the
	// agg-0→tor-1 downlink is untagged — and the h1→h0 flow was
	// rack-local. Rack 0's sub-total must carry bits, rack 1's none.
	if g0, g1 := n.GroupBitsCarried(0), n.GroupBitsCarried(1); g0 == 0 || g1 != 0 {
		t.Fatalf("rack sub-totals misattributed: rack0=%v (want >0) rack1=%v (want 0)", g0, g1)
	}

	// A failed uplink ends flows over it; totals must still agree.
	if _, err := n.StartFlow(FlowSpec{Src: "h3", Dst: "h1", Path: []NodeID{"h3", "tor-1", "agg-1", "tor-0", "h1"}, SizeBits: 8e8}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkUp("tor-1", "agg-1", false); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	check("after link failure")

	// Re-cabling: a removed uplink leaves both totals together, and a
	// re-wired cable rejoins its telemetry group, so traffic over it is
	// counted again by both paths.
	if err := n.RemoveDuplexLink("tor-1", "agg-1"); err != nil {
		t.Fatal(err)
	}
	check("after uplink removal")
	if err := n.AddDuplexLink("tor-1", "agg-1", 1e9, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before, _ := n.GroupedBitsCarried()
	if _, err := n.StartFlow(FlowSpec{Src: "h3", Dst: "h1", Path: []NodeID{"h3", "tor-1", "agg-1", "tor-0", "h1"}, SizeBits: 8e7}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	check("after re-cabled traffic")
	if after, _ := n.GroupedBitsCarried(); after <= before {
		t.Fatalf("re-wired uplink's traffic not counted: %v -> %v", before, after)
	}
}

// TestGroupedBitsCaching pins the O(racks + dirty) shape: an idle
// group's total is answered from the cache (no member walk), and a
// commit on a member invalidates exactly that group.
func TestGroupedBitsCaching(t *testing.T) {
	e, n, _ := buildGroupedFabric(t)
	if _, err := n.StartFlow(FlowSpec{Src: "h0", Dst: "h2", Path: []NodeID{"h0", "tor-0", "agg-0", "tor-1", "h2"}, SizeBits: 8e8}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Flow done: both groups idle. First read caches, second must be
	// served from the cache.
	first, _ := n.GroupedBitsCarried()
	for _, id := range n.LinkGroupIDs() {
		g := n.groups[id]
		if g.live != 0 {
			t.Fatalf("group %d still marked live after drain", id)
		}
		if g.dirty {
			t.Fatalf("group %d still dirty after a clean read", id)
		}
	}
	second, _ := n.GroupedBitsCarried()
	if first != second || first == 0 {
		t.Fatalf("cached read changed the answer: %v vs %v", first, second)
	}
	// New traffic re-disturbs only the racks it touches.
	if _, err := n.StartFlow(FlowSpec{Src: "h1", Dst: "h0", Path: []NodeID{"h1", "tor-0", "h0"}, SizeBits: 8e6}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Rack-local flow: no uplink touched, so both groups stay cached and
	// the total is unchanged.
	third, _ := n.GroupedBitsCarried()
	if third != second {
		t.Fatalf("rack-local flow changed the cross-rack total: %v vs %v", third, second)
	}
}
