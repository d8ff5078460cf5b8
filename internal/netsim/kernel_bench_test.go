package netsim

// Microbenchmarks for the run-phase kernel refactor.
//
// BenchmarkAdvance pits the lazy accounting against the eager
// whole-fleet sweep on a fabric where one rack churns and the other
// racks idle: the sweep pays O(live flows) at every churn instant, the
// lazy mode pays only for the rack that changed.
//
// Run with: go test -bench=Advance -benchtime=... ./internal/netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// buildLoadedRig wires racks×hostsPerRack hosts and starts one
// unbounded flow from every host to its rack's first host, so each
// rack's flows share the sink link and form one congestion domain of
// hostsPerRack-1 flows. Staggered rate caps force the progressive fill
// through several freeze rounds per solve.
func buildLoadedRig(b *testing.B, e *sim.Engine, racks, hostsPerRack int, mode func(*Network)) *diffRig {
	b.Helper()
	rig := buildDiffRig(b, e, racks, hostsPerRack, 2)
	if mode != nil {
		mode(rig.n)
	}
	for r := 0; r < racks; r++ {
		sink := rig.racks[r][0]
		for h := 1; h < hostsPerRack; h++ {
			src := rig.racks[r][h]
			if _, err := rig.n.StartFlow(FlowSpec{
				Src: src, Dst: sink, Path: rig.n.Indices(src, rig.tors[r], sink),
				RateCapBps: float64(h%7+1) * mbps / 8,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	rig.n.flush()
	return rig
}

// benchAdvance drives churn in rack 0 while every other rack idles.
func benchAdvance(b *testing.B, eager bool) {
	e := sim.NewEngine(1)
	rig := buildLoadedRig(b, e, 16, 64, func(n *Network) { n.SetKernelMode(KernelMode{EagerAdvance: eager}) })
	n := rig.n
	src, tor, dst := rig.racks[0][0], rig.tors[0], rig.racks[0][2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := n.StartFlow(FlowSpec{
			Src: src, Dst: dst, Path: n.Indices(src, tor, dst),
			SizeBits: mbps / 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		// Advance far enough that the transfer completes: every
		// iteration is one time-advancing churn instant, which the
		// eager mode answers with a whole-fleet sweep.
		if err := e.RunFor(50 * time.Millisecond); err != nil {
			b.Fatal(err)
		}
		if ended, _ := f.Ended(); !ended {
			b.Fatal("churn flow did not complete")
		}
	}
}

func BenchmarkAdvanceLazy(b *testing.B)  { benchAdvance(b, false) }
func BenchmarkAdvanceEager(b *testing.B) { benchAdvance(b, true) }
