package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// maxUtilisationFullScan is the sampler's reference: a walk over every
// link in creation order, which MaxLinkUtilisation must equal bit for bit
// while reading only the loaded links.
func maxUtilisationFullScan(n *Network) float64 {
	n.flush()
	max := 0.0
	for _, l := range legs(n) {
		if !l.up || l.Capacity <= 0 || l.load == nil {
			continue
		}
		if u := l.load.allocated / l.Capacity; u > max {
			max = u
		}
	}
	return max
}

// TestMaxLinkUtilisationMatchesFullScan drives random flow starts,
// cancellations, completions and re-paths, cable failures and restores,
// and shaping through a two-tier fabric.
// After every step the sampler must equal the full scan bit for bit, and
// every link with a non-zero allocation must carry a live flow.
func TestMaxLinkUtilisationMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkSamplerAgainstScan(t, seed, 800)
		})
	}
}

func checkSamplerAgainstScan(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	e := sim.NewEngine(seed)
	aggs := []NodeID{"agg-0", "agg-1"}
	tors := []NodeID{"tor-0", "tor-1", "tor-2"}
	var nodes []testNode
	for _, id := range append(append([]NodeID{}, aggs...), tors...) {
		nodes = append(nodes, testNode{id, KindSwitch})
	}
	var cables []testCable
	hostTor := map[NodeID]NodeID{}
	var hosts []NodeID
	for _, tor := range tors {
		for _, agg := range aggs {
			cables = append(cables, testCable{tor, agg, 100 * mbps, time.Millisecond})
		}
		for j := 0; j < 3; j++ {
			h := NodeID(fmt.Sprintf("%s-h%d", tor, j))
			nodes = append(nodes, testNode{h, KindHost})
			hosts = append(hosts, h)
			hostTor[h] = tor
			cables = append(cables, testCable{h, tor, float64(20+rng.Intn(60)) * mbps, time.Millisecond})
		}
	}
	n, _ := wireFabric(t, e, nodes, cables)
	// route draws a path between two distinct hosts: through the shared
	// tor, or through a random agg.
	route := func() []NodeID {
		a := hosts[rng.Intn(len(hosts))]
		b := hosts[rng.Intn(len(hosts))]
		for b == a {
			b = hosts[rng.Intn(len(hosts))]
		}
		if hostTor[a] == hostTor[b] {
			return []NodeID{a, hostTor[a], b}
		}
		return []NodeID{a, hostTor[a], aggs[rng.Intn(len(aggs))], hostTor[b], b}
	}
	// live returns a random flow that has not ended, or nil.
	live := func() *Flow {
		var fs []*Flow
		for _, f := range n.flowOrder {
			if !f.ended {
				fs = append(fs, f)
			}
		}
		if len(fs) == 0 {
			return nil
		}
		return fs[rng.Intn(len(fs))]
	}
	unroutable := func(err error) bool { return errors.Is(err, ErrLinkDownPath) }
	loaded := 0
	for step := 0; step < steps; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // start a flow, finite or unbounded, capped or not
			path := route()
			spec := FlowSpec{Src: path[0], Dst: path[len(path)-1], Path: n.Indices(path...)}
			if rng.Intn(2) == 0 {
				spec.SizeBits = float64(1+rng.Intn(50)) * mbps
			}
			if rng.Intn(3) == 0 {
				spec.RateCapBps = float64(1+rng.Intn(30)) * mbps
			}
			if _, err := n.StartFlow(spec); err != nil && !unroutable(err) {
				t.Fatalf("step %d: start %v: %v", step, path, err)
			}
		case 3: // cancel
			if f := live(); f != nil {
				if err := n.CancelFlow(f); err != nil {
					t.Fatalf("step %d: cancel %d: %v", step, f.ID, err)
				}
			}
		case 4: // re-path onto another route between the same hosts
			f := live()
			if f == nil {
				continue
			}
			src, dst := f.Spec.Src, f.Spec.Dst
			path := []NodeID{src, hostTor[src], dst}
			if hostTor[src] != hostTor[dst] {
				path = []NodeID{src, hostTor[src], aggs[rng.Intn(len(aggs))], hostTor[dst], dst}
			}
			if err := n.SetPath(f, n.Indices(path...)); err != nil && !unroutable(err) {
				t.Fatalf("step %d: re-path %d onto %v: %v", step, f.ID, path, err)
			}
		case 5: // fail or restore a cable, restoring more often
			c := cables[rng.Intn(len(cables))]
			if err := n.SetLinkUp(c.a, c.b, rng.Intn(3) != 0); err != nil {
				t.Fatalf("step %d: set %v: %v", step, c, err)
			}
		case 6: // shape or clear a cable
			c := cables[rng.Intn(len(cables))]
			var err error
			if rng.Intn(3) == 0 {
				err = n.ClearShaping(c.a, c.b)
			} else {
				err = n.ShapeLink(c.a, c.b, Shaping{CapacityScale: 0.2 + rng.Float64()*0.8, Loss: rng.Float64() / 10})
			}
			if err != nil {
				t.Fatalf("step %d: shape %v: %v", step, c, err)
			}
		case 7, 8, 9: // let time pass, so finite flows complete
			if err := e.RunFor(time.Duration(1+rng.Intn(400)) * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		got, want := n.MaxLinkUtilisation(), maxUtilisationFullScan(n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: MaxLinkUtilisation = %v, full scan %v", step, got, want)
		}
		if got > 0 {
			loaded++
		}
		for _, l := range legs(n) {
			if l.load == nil || l.load.allocated == 0 {
				continue
			}
			carried := false
			for _, f := range l.load.flows {
				carried = carried || !f.ended
			}
			if !carried {
				t.Fatalf("step %d: %s->%s has allocation %v but no live flow", step, l.From(), l.To(), l.load.allocated)
			}
		}
	}
	if loaded < steps/4 {
		t.Fatalf("the fabric carried load after only %d of %d steps", loaded, steps)
	}
}
