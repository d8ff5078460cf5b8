package scenario

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
)

// cable is one directed link, by its endpoints.
type cable [2]netsim.NodeID

// linksWhere returns every directed link of the network that pred
// selects.
func linksWhere(net *netsim.Network, pred func(netsim.Hop) bool) map[cable]bool {
	out := map[cable]bool{}
	for i := 0; i < net.NodeCount(); i++ {
		for _, h := range net.LinksFrom(int32(i)) {
			if pred(h) {
				out[cable{h.Link().From(), h.Link().To()}] = true
			}
		}
	}
	return out
}

func downLinks(net *netsim.Network) map[cable]bool {
	return linksWhere(net, func(h netsim.Hop) bool { return !h.Up() })
}

func shapedLinks(net *netsim.Network) map[cable]bool {
	return linksWhere(net, func(h netsim.Hop) bool { return h.Link().Shaped() })
}

// bothLegs returns the directed links of the cables between each
// switch in from and each switch in to.
func bothLegs(from, to []netsim.NodeID) map[cable]bool {
	out := map[cable]bool{}
	for _, a := range from {
		for _, b := range to {
			out[cable{a, b}], out[cable{b, a}] = true, true
		}
	}
	return out
}

// runTo advances r and fails the test on error.
func runTo(t *testing.T, r *Run, at time.Duration) {
	t.Helper()
	if err := r.RunTo(at); err != nil {
		t.Fatal(err)
	}
}

// TestRackFailDownsPodUplinksOnFatTree: a fat-tree rack is a pod, so a
// blackout of rack 5 on k=8 downs the uplinks of pod 5's four edge
// switches and nothing else; Edge[5] is edge-p01-01, whose hosts in
// pod 1 stay powered and must keep the fabric.
func TestRackFailDownsPodUplinksOnFatTree(t *testing.T) {
	spec, err := Catalog("megafleet-fattree-1000")
	if err != nil {
		t.Fatal(err)
	}
	spec = shrink(spec)
	spec.Faults = []Fault{RackFail{Rack: 5, At: 10 * time.Second, Outage: 20 * time.Second}}
	r, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cloud.Close()
	topo, net := r.Cloud.Topo, r.Cloud.Net
	pod5 := []netsim.NodeID{"edge-p05-00", "edge-p05-01", "edge-p05-02", "edge-p05-03"}
	aggs5 := []netsim.NodeID{"aggsw-p05-00", "aggsw-p05-01", "aggsw-p05-02", "aggsw-p05-03"}

	runTo(t, r, 15*time.Second)
	if got, want := downLinks(net), bothLegs(pod5, aggs5); !maps.Equal(got, want) {
		t.Fatalf("rack 5 blackout downed %d links %v, want pod 5's %d edge uplink legs", len(got), got, len(want))
	}
	for rack, on := range map[int]bool{5: false, 1: true} {
		for _, h := range topo.Racks[rack] {
			node, err := r.Cloud.NodeByHost(h)
			if err != nil {
				t.Fatal(err)
			}
			if got := node.Meter().On(); got != on {
				t.Fatalf("host %s of rack %d powered=%v during the blackout, want %v", h, rack, got, on)
			}
		}
	}
	runTo(t, r, 35*time.Second)
	if got := downLinks(net); len(got) != 0 {
		t.Fatalf("links still down after the rack recovered: %v", got)
	}
}

// TestUplinkFaultsOnLeafSpine: a leaf-spine fabric keeps its spines in
// Core and has no aggregation layer (Agg is empty). Degrade must still
// shape every leaf uplink, RackFail must down the rack's leaf uplinks,
// and a LinkFail without endpoints fails leaf-00's first uplink.
func TestUplinkFaultsOnLeafSpine(t *testing.T) {
	spec, err := Catalog("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	spec.Duration = time.Minute
	spec.Faults = []Fault{
		Degrade{At: 5 * time.Second, Outage: 10 * time.Second, Shaping: netsim.Shaping{CapacityScale: 0.5}},
		RackFail{Rack: 2, At: 20 * time.Second, Outage: 10 * time.Second},
		LinkFail{At: 35 * time.Second, Outage: 10 * time.Second},
	}
	r, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cloud.Close()
	net := r.Cloud.Net
	var leaves, spines []netsim.NodeID
	for i := 0; i < spec.Cloud.Racks; i++ {
		leaves = append(leaves, netsim.NodeID(fmt.Sprintf("leaf-%02d", i)))
	}
	for i := 0; i < spec.Cloud.SpineSwitches; i++ {
		spines = append(spines, netsim.NodeID(fmt.Sprintf("spine-%02d", i)))
	}

	runTo(t, r, 10*time.Second)
	if got, want := shapedLinks(net), bothLegs(leaves, spines); !maps.Equal(got, want) {
		t.Fatalf("degrade shaped %d links, want all %d leaf uplink legs", len(got), len(want))
	}
	wantLog := fmt.Sprintf("%d uplinks shaped", len(leaves)*len(spines))
	logged := false
	for _, ev := range r.Trace() {
		logged = logged || (ev.Kind == "degrade" && strings.Contains(ev.Detail, wantLog))
	}
	if !logged {
		t.Fatalf("no degrade event reads %q: %v", wantLog, r.Trace())
	}
	runTo(t, r, 18*time.Second)
	if got := shapedLinks(net); len(got) != 0 {
		t.Fatalf("links still shaped after the degrade cleared: %v", got)
	}

	runTo(t, r, 25*time.Second)
	if got, want := downLinks(net), bothLegs(leaves[2:3], spines); !maps.Equal(got, want) {
		t.Fatalf("rack 2 blackout downed %v, want leaf-02's uplinks", got)
	}
	runTo(t, r, 32*time.Second)
	if got := downLinks(net); len(got) != 0 {
		t.Fatalf("links still down after the rack recovered: %v", got)
	}

	runTo(t, r, 40*time.Second)
	if got, want := downLinks(net), bothLegs(leaves[:1], spines[:1]); !maps.Equal(got, want) {
		t.Fatalf("default link fail downed %v, want leaf-00's first uplink", got)
	}
	runTo(t, r, 50*time.Second)
	if got := downLinks(net); len(got) != 0 {
		t.Fatalf("links still down after the outages: %v", got)
	}
}
