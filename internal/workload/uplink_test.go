package workload

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestUplinkBitsCountsRackEgress drives flows over explicit paths on a
// two-rack tree (100 Mb/s host links, so a lone flow moves exactly 1e8
// bits a second) and checks a rack's traffic at every probe point: a
// cross-rack flow counts on its source rack's uplink only, a rack-local
// flow counts nowhere, a live flow's pending span is included mid-flow,
// and the totals hold after a cancel, a completion and an uplink
// failure. CrossRackBytes is the per-edge sum of the edges it is given.
func TestUplinkBitsCountsRackEgress(t *testing.T) {
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.MultiRootConfig{Racks: 2, HostsPerRack: 2, AggSwitches: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.Wire(e, w)
	h := func(rack, idx int) netsim.NodeID { return topology.HostName(rack, idx) }
	start := func(path []netsim.NodeID, bits float64) *netsim.Flow {
		t.Helper()
		f, err := n.StartFlow(netsim.FlowSpec{Src: path[0], Dst: path[len(path)-1], Path: n.Indices(path...), SizeBits: bits})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	run := func(d time.Duration) {
		t.Helper()
		if err := e.RunFor(d); err != nil {
			t.Fatal(err)
		}
	}
	check := func(label string, rack0, rack1 float64) {
		t.Helper()
		got0, got1 := UplinkBits(n, "tor-00"), UplinkBits(n, "tor-01")
		if got0 != rack0 || got1 != rack1 {
			t.Fatalf("%s: uplink bits rack 0 = %v, rack 1 = %v; want %v, %v", label, got0, got1, rack0, rack1)
		}
		if got, want := CrossRackBytes(n, topo.Edge), (rack0+rack1)/8; got != want {
			t.Fatalf("%s: CrossRackBytes = %v, want %v", label, got, want)
		}
		// Any edge list is summed as given: one of the fabric's length
		// that is not the fabric counts what it names.
		if got, want := CrossRackBytes(n, []netsim.NodeID{"tor-01", "tor-01"}), (rack1+rack1)/8; got != want {
			t.Fatalf("%s: CrossRackBytes(rack 1 twice) = %v, want %v", label, got, want)
		}
	}
	check("idle", 0, 0)

	// Cross-rack out of rack 0, and a rack-local flow inside it.
	cross := start([]netsim.NodeID{h(0, 0), "tor-00", "agg-00", "tor-01", h(1, 0)}, 8e8)
	start([]netsim.NodeID{h(0, 1), "tor-00", h(0, 0)}, 4e8)
	run(2 * time.Second)
	check("mid-flow", 2e8, 0)
	if got := n.Link("tor-00", "agg-00").BitsCarried(); got != 2e8 {
		t.Fatalf("rack 0's uplink carried %v bits, want 2e8", got)
	}
	if err := n.CancelFlow(cross); err != nil {
		t.Fatal(err)
	}
	check("after cancel", 2e8, 0)

	// Cross-rack out of rack 1, run to completion with the rack-local one.
	start([]netsim.NodeID{h(1, 1), "tor-01", "agg-01", "tor-00", h(0, 1)}, 1e8)
	run(time.Minute)
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d flows still live", n.ActiveFlows())
	}
	check("after completion", 2e8, 1e8)

	// A failed uplink ends its flow; the bits it carried stay counted.
	start([]netsim.NodeID{h(1, 0), "tor-01", "agg-01", "tor-00", h(0, 0)}, 0)
	run(time.Second)
	check("stream mid-flow", 2e8, 2e8)
	if err := n.SetLinkUp("tor-01", "agg-01", false); err != nil {
		t.Fatal(err)
	}
	run(time.Second)
	check("after uplink failure", 2e8, 2e8)
	if got := UplinkBits(n, "no-such-switch"); got != 0 {
		t.Fatalf("an unknown switch carried %v bits", got)
	}
}
