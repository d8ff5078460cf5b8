package scenario

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

// fatTreeCrossPodSpec builds the randomized cross-pod fat-tree scenario:
// a capacity-filled k=8 fat-tree, a gravity matrix re-rolled every 5 s
// so most drawn pairs cross pods, Pareto ON/OFF sources, node churn,
// and a mid-run edge-uplink outage that prunes one pod's ECMP fan.
func fatTreeCrossPodSpec(seed int64) Spec {
	return Spec{
		Name:        fmt.Sprintf("fattree-cross-pod-fuzz-%d", seed),
		Description: "randomized cross-pod fat-tree traffic with faults (route-synthesis gate)",
		Cloud: core.Config{
			Racks: 8, HostsPerRack: 16, Seed: seed,
			Fabric: topology.FabricFatTree, FatTreeK: 8,
		},
		Duration:    90 * time.Second,
		SampleEvery: 10 * time.Second,
		Traffic: TrafficSpec{
			OnOff:   &workload.OnOffConfig{Sources: 24},
			Gravity: &workload.GravityConfig{EpochSeconds: 5, FlowsPerEpoch: 40},
		},
		Faults: []Fault{
			NodeChurn{Start: 10 * time.Second, Every: 15 * time.Second, Outage: 5 * time.Second},
			LinkFail{At: 30 * time.Second, Outage: 20 * time.Second},
		},
	}
}

// TestFatTreeCrossPodRandomized requires the cross-pod synthesis to
// carry every cold route of cross-pod-heavy fat-tree traffic across
// seeds: synthesis engages, and no route falls back to Dijkstra — the
// uplink outage prunes parent sets but never leaves the provable shape.
func TestFatTreeCrossPodRandomized(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rep := executeKernelVariant(t, fatTreeCrossPodSpec(seed), nil)
			if rep.EventsFired < 1000 {
				t.Fatalf("fat-tree cross-pod workload too small to gate on: %d events", rep.EventsFired)
			}
			if rep.Metrics["route_synth_hits"] == 0 {
				t.Fatal("route synthesis never engaged on a fat-tree run")
			}
			if fb := rep.Metrics["dijkstra_fallbacks"]; fb != 0 {
				t.Fatalf("%v Dijkstra fallbacks on a fat-tree run; cross-pod synthesis must cover every pair", fb)
			}
		})
	}
}
