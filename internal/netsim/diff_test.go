package netsim

// Differential test for the incremental congestion-domain solver: a
// reference implementation of the original whole-fabric progressive
// fill is run against the same network state after every mutation of a
// randomized (but seeded) workload — flow starts with and without rate
// caps, cancellations, completions, tc-style shaping and duplex link
// failures — and every live flow's rate must agree within 1e-6
// relative. This is the mathematical-equivalence half of the contract;
// TestIncrementalMatchesFullSolver in internal/scenario pins the
// byte-identical half.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// referenceRates recomputes the max-min fair allocation for all live
// flows with the pre-domain global algorithm: one progressive fill over
// every link and every live flow, regardless of locality.
func referenceRates(n *Network) map[int64]float64 {
	rates := make(map[int64]float64)
	type st struct {
		remaining   float64
		activeCount int
	}
	all := legs(n)
	link := make(map[*Link]*st, len(all))
	for _, l := range all {
		link[l] = &st{remaining: l.Capacity}
	}
	var active []*Flow
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		rates[f.ID] = 0
		onDown := false
		for _, l := range f.path {
			if !l.up {
				onDown = true
				break
			}
		}
		if onDown {
			continue
		}
		active = append(active, f)
		for _, l := range f.path {
			link[l].activeCount++
		}
	}
	for len(active) > 0 {
		inc := math.Inf(1)
		for _, l := range all {
			s := link[l]
			if l.up && s.activeCount > 0 {
				if share := s.remaining / float64(s.activeCount); share < inc {
					inc = share
				}
			}
		}
		for _, f := range active {
			if f.Spec.RateCapBps > 0 {
				if room := f.Spec.RateCapBps - rates[f.ID]; room < inc {
					inc = room
				}
			}
		}
		if math.IsInf(inc, 1) {
			break
		}
		if inc < 0 {
			inc = 0
		}
		for _, f := range active {
			rates[f.ID] += inc
		}
		for _, l := range all {
			if l.up {
				link[l].remaining -= inc * float64(link[l].activeCount)
			}
		}
		kept := active[:0]
		for _, f := range active {
			frozen := false
			if f.Spec.RateCapBps > 0 && rates[f.ID] >= f.Spec.RateCapBps-1e-9 {
				frozen = true
			}
			if !frozen {
				for _, l := range f.path {
					if link[l].remaining <= 1e-9 {
						frozen = true
						break
					}
				}
			}
			if frozen {
				for _, l := range f.path {
					link[l].activeCount--
				}
			} else {
				kept = append(kept, f)
			}
		}
		if len(kept) == len(active) {
			break
		}
		active = kept
	}
	return rates
}

// diffRig is a small multi-root fabric wired straight into netsim: R
// racks of H hosts behind one ToR each, every ToR cabled to every agg.
type diffRig struct {
	n     *Network
	w     *Wiring
	e     *sim.Engine
	racks [][]NodeID
	tors  []NodeID
	aggs  []NodeID
}

func buildDiffRig(t testing.TB, e *sim.Engine, racks, hostsPerRack, aggs int) *diffRig {
	t.Helper()
	r := &diffRig{e: e}
	var nodes []testNode
	var cables []testCable
	for a := 0; a < aggs; a++ {
		id := NodeID(fmt.Sprintf("agg-%d", a))
		nodes = append(nodes, testNode{id, KindSwitch})
		r.aggs = append(r.aggs, id)
	}
	for rk := 0; rk < racks; rk++ {
		tor := NodeID(fmt.Sprintf("tor-%d", rk))
		nodes = append(nodes, testNode{tor, KindSwitch})
		for _, agg := range r.aggs {
			cables = append(cables, testCable{tor, agg, 1000 * mbps, time.Microsecond})
		}
		r.tors = append(r.tors, tor)
		var hosts []NodeID
		for h := 0; h < hostsPerRack; h++ {
			id := NodeID(fmt.Sprintf("h-%d-%d", rk, h))
			nodes = append(nodes, testNode{id, KindHost})
			cables = append(cables, testCable{id, tor, 100 * mbps, time.Microsecond})
			hosts = append(hosts, id)
		}
		r.racks = append(r.racks, hosts)
	}
	r.n, r.w = wireFabric(t, e, nodes, cables)
	return r
}

// randomPath picks an intra-rack path ~2/3 of the time (the paper's
// rack-local gravity bias) and a cross-rack path through a random agg
// otherwise.
func (r *diffRig) randomPath(rng *rand.Rand) []NodeID {
	ra := rng.Intn(len(r.racks))
	a := r.racks[ra][rng.Intn(len(r.racks[ra]))]
	if rng.Intn(3) < 2 {
		b := r.racks[ra][rng.Intn(len(r.racks[ra]))]
		if a == b {
			return nil
		}
		return []NodeID{a, r.tors[ra], b}
	}
	rb := rng.Intn(len(r.racks))
	if rb == ra {
		return nil
	}
	b := r.racks[rb][rng.Intn(len(r.racks[rb]))]
	agg := r.aggs[rng.Intn(len(r.aggs))]
	return []NodeID{a, r.tors[ra], agg, r.tors[rb], b}
}

func assertRatesMatch(t *testing.T, n *Network, step int) {
	t.Helper()
	n.flush()
	want := referenceRates(n)
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		w := want[f.ID]
		scale := math.Max(math.Abs(w), math.Max(math.Abs(f.rate), 1))
		if math.Abs(f.rate-w) > 1e-6*scale {
			t.Fatalf("step %d: flow %d rate %v, reference %v (Δ %v)",
				step, f.ID, f.rate, w, f.rate-w)
		}
	}
}

// TestSetPathClearsAbandonedLinks pins the regression where re-pathing
// a flow left the old links' solver allocation behind, reporting
// phantom utilisation on idle links forever.
func TestSetPathClearsAbandonedLinks(t *testing.T) {
	e := sim.NewEngine(1)
	rig := buildDiffRig(t, e, 2, 2, 2)
	n := rig.n
	src, dst := rig.racks[0][0], rig.racks[1][0]
	f, err := n.StartFlow(FlowSpec{Src: src, Dst: dst,
		Path: n.Indices(src, rig.tors[0], rig.aggs[0], rig.tors[1], dst)})
	if err != nil {
		t.Fatal(err)
	}
	if u := n.Link(rig.tors[0], rig.aggs[0]).Utilisation(); u <= 0 {
		t.Fatalf("uplink utilisation = %v before re-path, want > 0", u)
	}
	if err := n.SetPath(f, n.Indices(src, rig.tors[0], rig.aggs[1], rig.tors[1], dst)); err != nil {
		t.Fatal(err)
	}
	if u := n.Link(rig.tors[0], rig.aggs[0]).Utilisation(); u != 0 {
		t.Fatalf("abandoned uplink utilisation = %v, want 0", u)
	}
	if u := n.Link(rig.tors[0], rig.aggs[1]).Utilisation(); u <= 0 {
		t.Fatalf("new uplink utilisation = %v, want > 0", u)
	}
	if n.MaxLinkUtilisation() <= 0 {
		t.Fatal("fleet reports no utilisation at all")
	}
}

// TestReallocateAfterFlushStaysLive pins the regression where a manual
// reallocate() after a drained worklist left domains flagged dirty but
// unlisted, silently ignoring every later mutation.
func TestReallocateAfterFlushStaysLive(t *testing.T) {
	e := sim.NewEngine(1)
	n := line(t, e)
	f, err := n.StartFlow(FlowSpec{Src: "a", Dst: "b", Path: n.Indices("a", "s", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Rate(); got != 100*mbps { // drains the worklist
		t.Fatalf("rate = %v, want 100 mbps", got)
	}
	n.reallocate()
	if err := n.ShapeLink("a", "s", Shaping{CapacityScale: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := f.Rate(); got != 50*mbps {
		t.Fatalf("post-shaping rate = %v, want 50 mbps (mutation was dropped)", got)
	}
}

func TestDifferentialIncrementalVsGlobalSolver(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			e := sim.NewEngine(seed)
			rig := buildDiffRig(t, e, 4, 6, 2)
			n := rig.n
			rng := rand.New(rand.NewSource(seed * 977))
			var live []*Flow
			downTor := -1 // at most one failed uplink at a time

			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // start a flow
					path := rig.randomPath(rng)
					if path == nil {
						continue
					}
					spec := FlowSpec{Src: path[0], Dst: path[len(path)-1], Path: n.Indices(path...)}
					if rng.Intn(2) == 0 {
						spec.SizeBits = float64(rng.Intn(50)+1) * mbps
					}
					if rng.Intn(4) == 0 {
						spec.RateCapBps = float64(rng.Intn(40)+5) * mbps
					}
					f, err := n.StartFlow(spec)
					if err != nil {
						// Paths through the failed uplink are rejected;
						// that rejection is part of the contract.
						if downTor >= 0 {
							continue
						}
						t.Fatal(err)
					}
					live = append(live, f)
				case op < 5: // cancel a flow
					if len(live) == 0 {
						continue
					}
					f := live[rng.Intn(len(live))]
					if ended, _ := f.Ended(); !ended {
						if err := n.CancelFlow(f); err != nil {
							t.Fatal(err)
						}
					}
				case op < 6: // shape or clear a random uplink
					tor := rig.tors[rng.Intn(len(rig.tors))]
					agg := rig.aggs[rng.Intn(len(rig.aggs))]
					if n.Link(tor, agg).Shaped() {
						if err := n.ClearShaping(tor, agg); err != nil {
							t.Fatal(err)
						}
					} else if err := n.ShapeLink(tor, agg, Shaping{
						CapacityScale: 0.25 + rng.Float64()/2,
						Loss:          rng.Float64() / 10,
					}); err != nil {
						t.Fatal(err)
					}
				case op < 7: // fail / restore an uplink
					if downTor >= 0 {
						if err := n.SetLinkUp(rig.tors[downTor], rig.aggs[0], true); err != nil {
							t.Fatal(err)
						}
						downTor = -1
					} else {
						downTor = rng.Intn(len(rig.tors))
						if err := n.SetLinkUp(rig.tors[downTor], rig.aggs[0], false); err != nil {
							t.Fatal(err)
						}
					}
				default: // advance virtual time (completions fire)
					if err := e.RunFor(time.Duration(rng.Intn(900)+100) * time.Millisecond); err != nil {
						t.Fatal(err)
					}
				}
				assertRatesMatch(t, n, step)
			}
			if n.ActiveFlows() == 0 {
				t.Fatal("workload degenerated: no live flows were ever compared")
			}
		})
	}
}
