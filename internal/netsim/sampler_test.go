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
	for _, l := range n.linkList {
		if !l.up || l.Capacity <= 0 {
			continue
		}
		if u := l.allocated / l.Capacity; u > max {
			max = u
		}
	}
	return max
}

// TestMaxLinkUtilisationMatchesFullScan drives random flow starts,
// cancellations, completions and re-paths, cable failures and restores,
// shaping, and cable removal and re-wiring through a two-tier fabric.
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
	n := New(e)
	add := func(id NodeID, kind NodeKind) {
		if err := n.AddNode(id, kind); err != nil {
			t.Fatal(err)
		}
	}
	aggs := []NodeID{"agg-0", "agg-1"}
	tors := []NodeID{"tor-0", "tor-1", "tor-2"}
	for _, id := range append(append([]NodeID{}, aggs...), tors...) {
		add(id, KindSwitch)
	}
	// cables lists every fabric and host cable with its capacity, so a
	// removed one can be wired again.
	type cable struct {
		a, b NodeID
		bps  float64
	}
	var cables []cable
	hostTor := map[NodeID]NodeID{}
	var hosts []NodeID
	for _, tor := range tors {
		for _, agg := range aggs {
			cables = append(cables, cable{tor, agg, 100 * mbps})
		}
		for j := 0; j < 3; j++ {
			h := NodeID(fmt.Sprintf("%s-h%d", tor, j))
			add(h, KindHost)
			hosts = append(hosts, h)
			hostTor[h] = tor
			cables = append(cables, cable{h, tor, float64(20+rng.Intn(60)) * mbps})
		}
	}
	for _, c := range cables {
		if err := n.AddDuplexLink(c.a, c.b, c.bps, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	wired := make([]bool, len(cables))
	for i := range wired {
		wired[i] = true
	}
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
	unroutable := func(err error) bool {
		return errors.Is(err, ErrLinkDownPath) || errors.Is(err, ErrNoSuchLink)
	}
	loaded := 0
	for step := 0; step < steps; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // start a flow, finite or unbounded, capped or not
			path := route()
			spec := FlowSpec{Src: path[0], Dst: path[len(path)-1], Path: path}
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
			if err := n.SetPath(f, path); err != nil && !unroutable(err) {
				t.Fatalf("step %d: re-path %d onto %v: %v", step, f.ID, path, err)
			}
		case 5: // fail or restore a wired cable, restoring more often
			i := rng.Intn(len(cables))
			if !wired[i] {
				continue
			}
			if err := n.SetLinkUp(cables[i].a, cables[i].b, rng.Intn(3) != 0); err != nil {
				t.Fatalf("step %d: set %v: %v", step, cables[i], err)
			}
		case 6: // shape or clear a wired cable
			i := rng.Intn(len(cables))
			if !wired[i] {
				continue
			}
			var err error
			if rng.Intn(3) == 0 {
				err = n.ClearShaping(cables[i].a, cables[i].b)
			} else {
				err = n.ShapeLink(cables[i].a, cables[i].b, Shaping{CapacityScale: 0.2 + rng.Float64()*0.8, Loss: rng.Float64() / 10})
			}
			if err != nil {
				t.Fatalf("step %d: shape %v: %v", step, cables[i], err)
			}
		case 7: // remove a cable, or wire a removed one again
			i := rng.Intn(len(cables))
			c := cables[i]
			var err error
			if wired[i] {
				if rng.Intn(3) != 0 {
					continue
				}
				err = n.RemoveDuplexLink(c.a, c.b)
			} else {
				err = n.AddDuplexLink(c.a, c.b, c.bps, time.Millisecond)
			}
			if err != nil {
				t.Fatalf("step %d: re-cable %v: %v", step, c, err)
			}
			wired[i] = !wired[i]
		case 8, 9: // let time pass, so finite flows complete
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
		for _, l := range n.linkList {
			if l.allocated == 0 {
				continue
			}
			carried := false
			for f := range l.flows {
				carried = carried || !f.ended
			}
			if !carried {
				t.Fatalf("step %d: %s->%s has allocation %v but no live flow", step, l.From, l.To, l.allocated)
			}
		}
	}
	if loaded < steps/4 {
		t.Fatalf("the fabric carried load after only %d of %d steps", loaded, steps)
	}
}
