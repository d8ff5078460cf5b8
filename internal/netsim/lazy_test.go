package netsim

// Randomized differential gate for the run-phase kernel: the same
// seeded mutation script — flow starts (finite, capped, unbounded),
// cancellations, completions, shaping, duplex link failures and
// re-paths — is replayed against two identically wired rigs running
// the lazy accounting (default) and the eager whole-fleet sweep
// (KernelMode.EagerAdvance). After every step all committed and
// materialised accounting state must agree BITWISE across the rigs, and
// at the end the completion logs (who ended, when, why, with how many
// bits) must be identical. This is the flow-level half of the lazy
// accounting contract; the trace-level half lives in internal/scenario's
// TestLazyAdvanceMatchesEager.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// kernelRig is one network under one kernel mode plus its end log.
type kernelRig struct {
	e    *sim.Engine
	rig  *diffRig
	ends []string
}

func newKernelRig(t *testing.T, seed int64, mode func(*Network)) *kernelRig {
	t.Helper()
	e := sim.NewEngine(seed)
	r := buildDiffRig(t, e, 4, 6, 2)
	if mode != nil {
		mode(r.n)
	}
	return &kernelRig{e: e, rig: r}
}

func TestLazyEagerBitwiseEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rigs := []*kernelRig{
				newKernelRig(t, seed, nil),
				newKernelRig(t, seed, func(n *Network) { n.SetKernelMode(KernelMode{EagerAdvance: true}) }),
			}
			labels := []string{"lazy", "eager"}
			rng := rand.New(rand.NewSource(seed * 7919))
			type liveSet struct{ flows []*Flow }
			lives := make([]liveSet, len(rigs))
			downTor := -1

			onEnd := func(kr *kernelRig) func(*Flow, EndReason) {
				return func(f *Flow, reason EndReason) {
					kr.ends = append(kr.ends, fmt.Sprintf("%d %v %s %x %x",
						f.ID, kr.e.Now(), reason, f.BitsTransferred(), f.Remaining()))
				}
			}

			for step := 0; step < 400; step++ {
				switch op := rng.Intn(12); {
				case op < 5: // start a flow
					ra := rng.Intn(4)
					ha := rng.Intn(6)
					local := rng.Intn(3) < 2
					rb, hb, agg := rng.Intn(4), rng.Intn(6), rng.Intn(2)
					if local && ha == hb {
						continue
					}
					if !local && rb == ra {
						continue
					}
					var size, capBps float64
					if rng.Intn(2) == 0 {
						size = float64(rng.Intn(50)+1) * mbps
					}
					if rng.Intn(4) == 0 {
						capBps = float64(rng.Intn(40)+5) * mbps
					}
					started := false
					for i, kr := range rigs {
						r := kr.rig
						var path []NodeID
						if local {
							path = []NodeID{r.racks[ra][ha], r.tors[ra], r.racks[ra][hb]}
						} else {
							path = []NodeID{r.racks[ra][ha], r.tors[ra], r.aggs[agg], r.tors[rb], r.racks[rb][hb]}
						}
						f, err := kr.rig.n.StartFlow(FlowSpec{
							Src: path[0], Dst: path[len(path)-1], Path: r.n.Indices(path...),
							SizeBits: size, RateCapBps: capBps, OnEnd: onEnd(kr),
						})
						if err != nil {
							if downTor >= 0 {
								continue // rejected path over a failed uplink
							}
							t.Fatal(err)
						}
						lives[i].flows = append(lives[i].flows, f)
						started = true
					}
					_ = started
				case op < 6: // cancel
					if len(lives[0].flows) == 0 {
						continue
					}
					k := rng.Intn(len(lives[0].flows))
					for i := range rigs {
						f := lives[i].flows[k]
						if ended, _ := f.Ended(); !ended {
							if err := rigs[i].rig.n.CancelFlow(f); err != nil {
								t.Fatal(err)
							}
						}
					}
				case op < 7: // shape / clear an uplink
					tor, agg := rng.Intn(4), rng.Intn(2)
					scale := 0.25 + rng.Float64()/2
					loss := rng.Float64() / 10
					for i := range rigs {
						r := rigs[i].rig
						if r.n.Link(r.tors[tor], r.aggs[agg]).Shaped() {
							if err := r.n.ClearShaping(r.tors[tor], r.aggs[agg]); err != nil {
								t.Fatal(err)
							}
						} else if err := r.n.ShapeLink(r.tors[tor], r.aggs[agg], Shaping{
							CapacityScale: scale, Loss: loss,
						}); err != nil {
							t.Fatal(err)
						}
					}
				case op < 8: // fail / restore an uplink
					if downTor >= 0 {
						for i := range rigs {
							r := rigs[i].rig
							if err := r.n.SetLinkUp(r.tors[downTor], r.aggs[0], true); err != nil {
								t.Fatal(err)
							}
						}
						downTor = -1
					} else {
						downTor = rng.Intn(4)
						for i := range rigs {
							r := rigs[i].rig
							if err := r.n.SetLinkUp(r.tors[downTor], r.aggs[0], false); err != nil {
								t.Fatal(err)
							}
						}
					}
				case op < 9: // re-path a live cross-rack flow to the other agg
					if len(lives[0].flows) == 0 {
						continue
					}
					k := rng.Intn(len(lives[0].flows))
					if f0 := lives[0].flows[k]; len(f0.path) != 4 {
						continue
					} else if ended, _ := f0.Ended(); ended {
						continue
					}
					for i := range rigs {
						f := lives[i].flows[k]
						p := f.path
						r := rigs[i].rig
						other := r.aggs[0]
						if p[1].To() == other {
							other = r.aggs[1]
						}
						np := r.n.Indices(p[0].From(), p[0].To(), other, p[2].To(), p[3].To())
						if err := r.n.SetPath(f, np); err != nil {
							// A path over the failed uplink is rejected on
							// every rig identically.
							if downTor >= 0 {
								break
							}
							t.Fatal(err)
						}
					}
				default: // advance virtual time
					d := time.Duration(rng.Intn(900)+100) * time.Millisecond
					for i := range rigs {
						if err := rigs[i].e.RunFor(d); err != nil {
							t.Fatal(err)
						}
					}
				}

				// Bitwise cross-rig comparison of every flow's state.
				for k := range lives[0].flows {
					f0 := lives[0].flows[k]
					b0, r0, rate0 := f0.BitsTransferred(), f0.Remaining(), f0.Rate()
					for i := 1; i < len(rigs); i++ {
						f := lives[i].flows[k]
						if got := f.Rate(); got != rate0 {
							t.Fatalf("step %d: flow %d rate %s=%v, %s=%v", step, f.ID, labels[0], rate0, labels[i], got)
						}
						if got := f.BitsTransferred(); got != b0 {
							t.Fatalf("step %d: flow %d bits %s=%v, %s=%v", step, f.ID, labels[0], b0, labels[i], got)
						}
						if got := f.Remaining(); got != r0 {
							t.Fatalf("step %d: flow %d remaining %s=%v, %s=%v", step, f.ID, labels[0], r0, labels[i], got)
						}
					}
				}
			}

			// Drain everything and compare the completion logs.
			for i := range rigs {
				if err := rigs[i].e.RunFor(time.Hour); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(rigs); i++ {
				if len(rigs[i].ends) != len(rigs[0].ends) {
					t.Fatalf("completion logs differ in length: %s=%d, %s=%d",
						labels[0], len(rigs[0].ends), labels[i], len(rigs[i].ends))
				}
				for j := range rigs[0].ends {
					if rigs[0].ends[j] != rigs[i].ends[j] {
						t.Fatalf("completion logs diverge at %d:\n  %s: %s\n  %s: %s",
							j, labels[0], rigs[0].ends[j], labels[i], rigs[i].ends[j])
					}
				}
			}
			if len(rigs[0].ends) == 0 {
				t.Fatal("workload degenerated: no flow ever completed")
			}
		})
	}
}

// TestLazyAccountingCommitPoints pins the unit-level contract: an idle
// flow's committed state does not move while unrelated traffic churns,
// yet its materialised reads stay exact.
func TestLazyAccountingCommitPoints(t *testing.T) {
	e := sim.NewEngine(1)
	rig := buildDiffRig(t, e, 2, 2, 1)
	n := rig.n

	// A rack-local unbounded flow in rack 0: its domain never overlaps
	// rack 1's traffic.
	idle, err := n.StartFlow(FlowSpec{
		Src: rig.racks[0][0], Dst: rig.racks[0][1],
		Path: n.Indices(rig.racks[0][0], rig.tors[0], rig.racks[0][1]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := idle.Rate(); got != 100*mbps {
		t.Fatalf("idle flow rate = %v, want 100 mbps", got)
	}
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}

	// Churn rack 1 with flow starts and ends; the idle flow's span
	// anchor must not move (no commit without a rate change).
	anchorBefore := idle.lastCalc
	for i := 0; i < 5; i++ {
		f, err := n.StartFlow(FlowSpec{
			Src: rig.racks[1][0], Dst: rig.racks[1][1],
			Path:     n.Indices(rig.racks[1][0], rig.tors[1], rig.racks[1][1]),
			SizeBits: 10 * mbps,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunFor(500 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if ended, _ := f.Ended(); !ended {
			t.Fatal("rack-1 probe flow should have completed")
		}
	}
	if idle.lastCalc != anchorBefore {
		t.Fatalf("idle flow's span anchor moved (%v -> %v) on unrelated traffic",
			anchorBefore, idle.lastCalc)
	}
	// Materialised accounting is nonetheless exact: 100 Mb/s for the
	// full elapsed time.
	elapsed := e.Now().Sub(idle.started).Seconds()
	want := 100 * mbps * elapsed
	if got := idle.BitsTransferred(); got != want {
		t.Fatalf("materialised bits = %v, want %v", got, want)
	}
	// Cancelling commits the whole span in one multiply.
	if err := n.CancelFlow(idle); err != nil {
		t.Fatal(err)
	}
	if got := idle.BitsTransferred(); got != want {
		t.Fatalf("committed bits after cancel = %v, want %v", got, want)
	}
}
