package netsim

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// writeStateFmt is the fmt rendering AppendState replaced, kept as its
// oracle: the same bytes, one Fprintf per link and flow. It finds the
// links through the wiring n was wired from, not through n's slab: for
// each cable, the leg from its first end, then the leg back.
func writeStateFmt(n *Network, wiring *Wiring, w io.Writer) {
	n.flush()
	fmt.Fprintf(w, "netsim nodes=%d links=%d active=%d nextID=%d topoEpoch=%d\n",
		len(n.nodes), 2*wiring.CableCount(), n.active, n.nextID, n.topoEpoch)
	for i := 0; i < wiring.CableCount(); i++ {
		a, b, _, _ := wiring.Cable(i)
		for _, l := range []*Link{n.LinkAt(a, b), n.LinkAt(b, a)} {
			var bits, alloc float64
			flows := 0
			if l.load != nil {
				bits, alloc, flows = l.load.bitsCarried, l.load.allocated, len(l.load.flows)
			}
			if l.up && !l.shaped && bits == 0 && flows == 0 {
				continue
			}
			fmt.Fprintf(w, "link %s>%s up=%t shaped=%t cap=%016x lat=%d bits=%016x alloc=%016x flows=%d\n",
				l.From(), l.To(), l.up, l.shaped,
				math.Float64bits(l.Capacity), int64(l.Latency),
				math.Float64bits(bits), math.Float64bits(alloc), flows)
		}
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

// TestStateRenderMatchesFmt: the network's strconv rendering, which
// walks its cable slab, writes the fmt oracle's bytes, which walks its
// wiring's cables, after every step of a random script of finite,
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
				spec := FlowSpec{Src: path[0], Dst: path[len(path)-1], Path: r.n.Indices(path...)}
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
			writeStateFmt(r.n, r.w, &want)
			buf = r.n.AppendState(buf[:0], nil)
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

// linkLine is a link's rendering in the kernel state, spelled out.
func linkLine(from, to string, up, shaped bool, capacity float64, lat time.Duration, bits, alloc float64, flows int) string {
	return fmt.Sprintf("link %s>%s up=%t shaped=%t cap=%016x lat=%d bits=%016x alloc=%016x flows=%d\n",
		from, to, up, shaped, math.Float64bits(capacity), int64(lat),
		math.Float64bits(bits), math.Float64bits(alloc), flows)
}

// TestLinkLoadMadeOnFirstFlow: a wired network's legs have no load, and
// a leg no flow reached reads zero flows, bits and utilisation and is
// rendered only when down or shaped, as a leg with an empty load. The
// first flow makes the load; once the flow ends the leg keeps it, with
// the bits it carried, and renders them.
func TestLinkLoadMadeOnFirstFlow(t *testing.T) {
	const lat = time.Millisecond
	wb := NewWiringBuilder(4, 3)
	for _, id := range []NodeID{"a", "s", "b", "c"} {
		if _, err := wb.AddNode(id, KindHost); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range [][2]int32{{0, 1}, {1, 2}, {1, 3}} {
		if err := wb.AddDuplexLink(c[0], c[1], 8*mbps, lat); err != nil {
			t.Fatal(err)
		}
	}
	w, err := wb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine(1)
	n := Wire(e, w)
	for _, l := range legs(n) {
		if l.load != nil {
			t.Fatalf("wired leg %s->%s has a load", l.From(), l.To())
		}
	}
	state := func() string { return string(n.AppendState(nil, nil)) }
	header := func(active, nextID int) string {
		return fmt.Sprintf("netsim nodes=4 links=6 active=%d nextID=%d topoEpoch=%d\n", active, nextID, w.Epoch())
	}
	if got, want := state(), header(0, 0); got != want {
		t.Fatalf("a pristine network renders\n%s\nwant\n%s", got, want)
	}

	// A down cable and a shaped one, never loaded, render their legs.
	if err := n.SetLinkUp("s", "c", false); err != nil {
		t.Fatal(err)
	}
	if err := n.ShapeLink("s", "b", Shaping{CapacityScale: 0.5}); err != nil {
		t.Fatal(err)
	}
	epoch := w.Epoch() + 2
	idle := func(from, to string, up, shaped bool, capacity float64) string {
		return linkLine(from, to, up, shaped, capacity, lat, 0, 0, 0)
	}
	want := fmt.Sprintf("netsim nodes=4 links=6 active=0 nextID=0 topoEpoch=%d\n", epoch) +
		idle("s", "b", true, true, 4*mbps) + idle("b", "s", true, true, 4*mbps) +
		idle("s", "c", false, false, 8*mbps) + idle("c", "s", false, false, 8*mbps)
	if got := state(); got != want {
		t.Fatalf("idle down and shaped legs render\n%s\nwant\n%s", got, want)
	}
	for _, l := range legs(n) {
		if l.load != nil || l.FlowCount() != 0 || l.BitsCarried() != 0 || l.Utilisation() != 0 {
			t.Fatalf("idle leg %s->%s: load %v, %d flows, %v bits, utilisation %v",
				l.From(), l.To(), l.load, l.FlowCount(), l.BitsCarried(), l.Utilisation())
		}
	}

	// One finite flow a→s→b: 8 Mb at the shaped 4 Mb/s takes two seconds.
	f, err := n.StartFlow(FlowSpec{Src: "a", Dst: "b", Path: n.Indices("a", "s", "b"), SizeBits: 8 * mbps})
	if err != nil {
		t.Fatal(err)
	}
	as, sb := n.Link("a", "s"), n.Link("s", "b")
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if as.load == nil || sb.load == nil || n.Link("s", "a").load != nil {
		t.Fatal("the first flow made no load on its path, or one off it")
	}
	if as.FlowCount() != 1 || as.Utilisation() != 0.5 || sb.Utilisation() != 1 || sb.BitsCarried() != 4*mbps {
		t.Fatalf("loaded legs read %d flows, utilisation %v and %v, %v bits",
			as.FlowCount(), as.Utilisation(), sb.Utilisation(), sb.BitsCarried())
	}
	want = fmt.Sprintf("netsim nodes=4 links=6 active=1 nextID=1 topoEpoch=%d\n", epoch) +
		linkLine("a", "s", true, false, 8*mbps, lat, 0, 4*mbps, 1) +
		linkLine("s", "b", true, true, 4*mbps, lat, 0, 4*mbps, 1) + idle("b", "s", true, true, 4*mbps) +
		idle("s", "c", false, false, 8*mbps) + idle("c", "s", false, false, 8*mbps)
	if got := state(); !strings.HasPrefix(got, want) || !strings.Contains(got, "\nflow 1 a>b ") {
		t.Fatalf("loaded legs render\n%s\nwant\n%s", got, want)
	}

	// Ended: the loads stay, with the bits carried and no allocation.
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ended, _ := f.Ended(); !ended {
		t.Fatal("the flow did not complete")
	}
	if as.load == nil || as.FlowCount() != 0 || as.Utilisation() != 0 || as.BitsCarried() != 8*mbps {
		t.Fatalf("an unloaded leg: load %v, %d flows, utilisation %v, %v bits",
			as.load, as.FlowCount(), as.Utilisation(), as.BitsCarried())
	}
	want = fmt.Sprintf("netsim nodes=4 links=6 active=0 nextID=1 topoEpoch=%d\n", epoch) +
		linkLine("a", "s", true, false, 8*mbps, lat, 8*mbps, 0, 0) +
		linkLine("s", "b", true, true, 4*mbps, lat, 8*mbps, 0, 0) + idle("b", "s", true, true, 4*mbps) +
		idle("s", "c", false, false, 8*mbps) + idle("c", "s", false, false, 8*mbps)
	if got := state(); got != want {
		t.Fatalf("unloaded legs render\n%s\nwant\n%s", got, want)
	}

	// A sibling wired from the same wiring has loads of its own.
	if sib := Wire(sim.NewEngine(1), w); sib.Link("a", "s").load != nil {
		t.Fatal("a network wired after a flow shares its load")
	}
}
