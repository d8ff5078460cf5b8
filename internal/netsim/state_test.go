package netsim

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// writeStateFmt is the fmt rendering AppendState replaced, kept as its
// oracle: the same bytes, one Fprintf per link and flow.
func writeStateFmt(n *Network, w io.Writer) {
	n.flush()
	fmt.Fprintf(w, "netsim nodes=%d links=%d active=%d nextID=%d topoEpoch=%d\n",
		len(n.nodes), len(n.linkList), n.active, n.nextID, n.topoEpoch)
	for _, l := range n.linkList {
		if l.up && !l.shaped && l.bitsCarried == 0 && len(l.flows) == 0 {
			continue
		}
		fmt.Fprintf(w, "link %s>%s up=%t shaped=%t cap=%016x lat=%d bits=%016x alloc=%016x flows=%d\n",
			l.From(), l.To(), l.up, l.shaped,
			math.Float64bits(l.Capacity), int64(l.Latency),
			math.Float64bits(l.bitsCarried), math.Float64bits(l.allocated), len(l.flows))
	}
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		fmt.Fprintf(w, "flow %d %s>%s rate=%016x done=%016x rem=%016x anchor=%d started=%d sched=%016x cap=%016x hops=%d\n",
			f.ID, f.Spec.Src, f.Spec.Dst,
			math.Float64bits(f.rate), math.Float64bits(f.bitsDone), math.Float64bits(f.remaining),
			int64(f.lastCalc), int64(f.started),
			math.Float64bits(f.schedRate), math.Float64bits(f.Spec.RateCapBps), len(f.path))
	}
}

// TestStateRenderMatchesFmt: the network's strconv rendering writes the
// fmt oracle's bytes after every step of a random script of finite,
// capped and unbounded flows, cancellations, completions, shaping and
// link failures, into one reused buffer.
func TestStateRenderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[string]bool{}
	for trial := 0; trial < 4; trial++ {
		e := sim.NewEngine(int64(trial))
		r := buildDiffRig(t, e, 3, 4, 2)
		var live []*Flow
		var buf []byte
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				path := r.randomPath(rng)
				if path == nil {
					continue
				}
				spec := FlowSpec{Src: path[0], Dst: path[len(path)-1], Path: path}
				if rng.Intn(2) == 0 {
					spec.SizeBits = float64(rng.Intn(40)+1) * mbps
				}
				if rng.Intn(3) == 0 {
					spec.RateCapBps = float64(rng.Intn(30)+1) * mbps
				}
				if f, err := r.n.StartFlow(spec); err == nil {
					live = append(live, f)
				}
			case op < 5 && len(live) > 0:
				_ = r.n.CancelFlow(live[rng.Intn(len(live))])
			case op < 6:
				tor, agg := r.tors[rng.Intn(len(r.tors))], r.aggs[rng.Intn(len(r.aggs))]
				if r.n.Link(tor, agg).Shaped() {
					if err := r.n.ClearShaping(tor, agg); err != nil {
						t.Fatal(err)
					}
				} else if err := r.n.ShapeLink(tor, agg, Shaping{CapacityScale: 0.5, ExtraLatency: time.Millisecond, Loss: 0.01}); err != nil {
					t.Fatal(err)
				}
			case op < 7:
				tor, agg := r.tors[rng.Intn(len(r.tors))], r.aggs[rng.Intn(len(r.aggs))]
				if err := r.n.SetLinkUp(tor, agg, !r.n.Link(tor, agg).Up()); err != nil {
					t.Fatal(err)
				}
			default:
				if err := e.RunFor(time.Duration(rng.Intn(900)+100) * time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
			var want bytes.Buffer
			writeStateFmt(r.n, &want)
			buf = r.n.AppendState(buf[:0])
			if !bytes.Equal(buf, want.Bytes()) {
				t.Fatalf("trial %d step %d:\n%s\nwant\n%s", trial, step, buf, want.Bytes())
			}
			for _, s := range []string{"up=false", "shaped=true", "\nflow ", " alloc=0000000000000000 flows=0"} {
				seen[s] = seen[s] || bytes.Contains(buf, []byte(s))
			}
		}
	}
	for _, s := range []string{"up=false", "shaped=true", "\nflow ", " alloc=0000000000000000 flows=0"} {
		if !seen[s] {
			t.Errorf("no rendering held %q", s)
		}
	}
}
