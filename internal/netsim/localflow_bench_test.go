package netsim_test

// BenchmarkReallocateLocalFlow measures the tentpole claim directly:
// starting (and finishing) one intra-rack flow on a busy 1000-node
// fleet re-solves only that rack's congestion domain, not the fabric.
// Before the incremental solver this cost a whole-network progressive
// fill over every live flow per mutation.

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

func BenchmarkReallocateLocalFlow(b *testing.B) {
	e := sim.NewEngine(7)
	topo, w, err := topology.BuildMultiRoot(topology.MultiRootConfig{
		Racks: 20, HostsPerRack: 52, AggSwitches: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := netsim.Wire(e, w)
	// Busy background: one cross-rack flow per rack pair neighbourhood
	// plus rack-local chatter, all long-lived, so ~1000 hosts' worth of
	// links carry live state.
	background := 0
	var probe *netsim.Flow
	for r := 0; r < len(topo.Racks); r++ {
		next := (r + 1) % len(topo.Racks)
		agg := topo.Agg[r%len(topo.Agg)]
		for i := 0; i < 10; i++ {
			src := topo.Racks[r][i]
			dst := topo.Racks[next][i]
			_, err := n.StartFlow(netsim.FlowSpec{
				Src: src, Dst: dst,
				Path: n.Indices(src, topo.Edge[r], agg, topo.Edge[next], dst),
			})
			if err != nil {
				b.Fatal(err)
			}
			background++
		}
		for i := 10; i < 30; i++ {
			src := topo.Racks[r][i]
			dst := topo.Racks[r][i+10]
			f, err := n.StartFlow(netsim.FlowSpec{
				Src: src, Dst: dst,
				Path: n.Indices(src, topo.Edge[r], dst),
			})
			if err != nil {
				b.Fatal(err)
			}
			if probe == nil {
				probe = f
			}
			background++
		}
	}
	if err := e.RunFor(time.Second); err != nil {
		b.Fatal(err)
	}
	src := topo.Racks[0][40]
	dst := topo.Racks[0][51]
	path := []netsim.NodeID{src, topo.Edge[0], dst}
	b.ReportMetric(float64(background), "bg-flows")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := n.StartFlow(netsim.FlowSpec{Src: src, Dst: dst, Path: n.Indices(path...)})
		if err != nil {
			b.Fatal(err)
		}
		if f.Rate() <= 0 { // forces the flush → rack-0 domain solve
			b.Fatal("flow got no bandwidth")
		}
		if err := n.CancelFlow(f); err != nil {
			b.Fatal(err)
		}
		if probe.Rate() <= 0 { // forces the teardown solve, O(domain) not O(links)
			b.Fatal("fleet went idle")
		}
	}
}
