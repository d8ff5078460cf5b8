package sdn

// Ablation for the congestion-aware weight function: the exponent
// sharpens how strongly utilisation repels new paths. With exponent 0
// (flat weights) the policy degenerates to shortest-path and stacks
// flows; with the default it spreads.

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topology"
)

// hotRig builds the fabric with one saturated uplink and reports which
// aggregation root a congestion-aware path picks.
func pathUnderExponent(t *testing.T, exponent float64) (picked, hot netsim.NodeID) {
	t.Helper()
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.DefaultMultiRoot())
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := NewController(e, n)
	ctrl.congestionExponent = exponent
	for _, id := range topo.Switches() {
		ctrl.RegisterSwitch(openflow.NewSwitch(id, e))
	}
	// Saturate the deterministic-first path's aggregation hop.
	base, err := ctrl.PathFor(topo.Racks[0][0], topo.Racks[1][0], PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot = n.NodeAt(base[2]).ID
	if _, err := n.StartFlow(netsim.FlowSpec{Src: topo.Racks[0][0], Dst: topo.Racks[1][0], Path: base}); err != nil {
		t.Fatal(err)
	}
	got, err := ctrl.PathFor(topo.Racks[0][1], topo.Racks[1][1], PolicyCongestionAware, 0)
	if err != nil {
		t.Fatal(err)
	}
	return n.NodeAt(got[2]).ID, hot
}

func TestAblationCongestionExponent(t *testing.T) {
	// Default exponent: avoids the hot root.
	picked, hot := pathUnderExponent(t, 2)
	if picked == hot {
		t.Fatalf("exponent 2 still picked the hot root %s", hot)
	}
	// Sharper exponent: still avoids.
	picked, hot = pathUnderExponent(t, 4)
	if picked == hot {
		t.Fatalf("exponent 4 still picked the hot root %s", hot)
	}
	// Softer but positive exponent: the 8×util term still dominates a
	// one-hop difference, so it avoids too; the knob's existence is the
	// ablation, the invariant is "positive exponent ⇒ hot link avoided".
	picked, hot = pathUnderExponent(t, 1)
	if picked == hot {
		t.Fatalf("exponent 1 still picked the hot root %s", hot)
	}
}

func BenchmarkCongestionAwarePath(b *testing.B) {
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.DefaultMultiRoot())
	if err != nil {
		b.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := NewController(e, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.PathFor(topo.Racks[0][0], topo.Racks[3][13], PolicyCongestionAware, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
