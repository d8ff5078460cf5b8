package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// TestHopEntryIs16Bytes: routing walks hop arrays entry by entry, and a
// wider field (a NodeKind back on int, say) would double every walk's
// memory traffic.
func TestHopEntryIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Hop{}); size != 16 {
		t.Fatalf("a hop entry is %d bytes, want 16", size)
	}
}

// TestLinkLegIs64Bytes: a leg is the cable alone, one cache line. It
// holds no names (From and To read them through its node indices) and
// no flow state (its load, made by the first flow), so the cable-pair
// slab, a large fabric's largest allocation, costs 128 bytes a cable.
// The two name fields made a leg 144 bytes, and the flow set, carried
// bits and solver scratch kept in the leg 112.
func TestLinkLegIs64Bytes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit platforms")
	}
	if size := unsafe.Sizeof(Link{}); size != 64 {
		t.Fatalf("a link leg is %d bytes, want 64", size)
	}
}

// refLink is the name-keyed model's view of one directed link.
type refLink struct {
	up, shaped bool
	capacity   float64
	latency    time.Duration
	flows      int
}

// refNet is a name-keyed reference for a wired network's nodes and link
// table: what a network wired from a fabric's nodes and cables should
// hold after any sequence of link-state, shaping and flow calls,
// written without node indices and sharing no routine with Wire.
type refNet struct {
	// names lists the nodes in index order, and kind gives each its kind.
	names []NodeID
	kind  map[NodeID]NodeKind
	links map[[2]NodeID]*refLink
	// out lists each node's outgoing destinations in cable order; order
	// lists every directed link in cable order, each cable's a→b leg
	// before its b→a leg.
	out   map[NodeID][]NodeID
	order [][2]NodeID
	epoch uint64
}

// newModel records a fabric in the model: its nodes in order, then its
// cables, and its epoch as a finished wiring's, one bump per node and
// per cable and one for the finished build.
func newModel(nodes []testNode, cables []testCable) *refNet {
	ref := &refNet{
		kind:  map[NodeID]NodeKind{},
		links: map[[2]NodeID]*refLink{},
		out:   map[NodeID][]NodeID{},
		epoch: uint64(len(nodes)+len(cables)) + 1,
	}
	for _, nd := range nodes {
		ref.names = append(ref.names, nd.id)
		ref.kind[nd.id] = nd.kind
	}
	for _, c := range cables {
		for _, k := range [][2]NodeID{{c.a, c.b}, {c.b, c.a}} {
			ref.links[k] = &refLink{up: true, capacity: c.capacity, latency: c.latency}
			ref.out[k[0]] = append(ref.out[k[0]], k[1])
			ref.order = append(ref.order, k)
		}
	}
	return ref
}

// fabricOf reads a wiring back as the lists the tests spell a fabric in.
func fabricOf(w *Wiring) ([]testNode, []testCable) {
	nodes := make([]testNode, w.NodeCount())
	for i := range nodes {
		nd := w.NodeAt(int32(i))
		nodes[i] = testNode{nd.ID, nd.Kind}
	}
	cables := make([]testCable, w.CableCount())
	for i := range cables {
		a, b, capacity, latency := w.Cable(i)
		cables[i] = testCable{w.NodeAt(a).ID, w.NodeAt(b).ID, capacity, latency}
	}
	return nodes, cables
}

// setUp records a cable raised or failed; failing it ends its flows.
func (ref *refNet) setUp(a, b NodeID, up bool) {
	for _, k := range [][2]NodeID{{a, b}, {b, a}} {
		ref.links[k].up = up
		if !up {
			ref.links[k].flows = 0
		}
	}
	ref.epoch++
}

// legs returns n's links in link order, the cable-pair slab's.
func legs(n *Network) []*Link {
	out := make([]*Link, 0, 2*len(n.pairs))
	for i := range n.pairs {
		out = append(out, &n.pairs[i][0], &n.pairs[i][1])
	}
	return out
}

// hopCount returns the number of entries across every hop array.
func hopCount(n *Network) int {
	total := 0
	for _, out := range n.out {
		total += len(out)
	}
	return total
}

// TestLinkTableMatchesNameModel wires a random fabric and drives random
// up/down, shaping, single-link flows and rate settling against the
// name-keyed model, checking the network against it before the first
// step and after every one (see checkAgainstModel).
func TestLinkTableMatchesNameModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkLinkModel(t, seed, 1500)
		})
	}
}

func checkLinkModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	var nodes []testNode
	for i := 0; i < 8; i++ {
		kind := KindSwitch
		if i%3 == 0 {
			kind = KindHost
		}
		nodes = append(nodes, testNode{NodeID(fmt.Sprintf("n%d", i)), kind})
	}
	// Each pair of nodes is cabled or not at random, in a random order
	// and orientation, with random parameters.
	var cables []testCable
	for a := range nodes {
		for b := a + 1; b < len(nodes); b++ {
			if rng.Intn(2) == 0 {
				continue
			}
			c := testCable{nodes[a].id, nodes[b].id, float64(1+rng.Intn(10)) * mbps, time.Duration(rng.Intn(5)) * time.Millisecond}
			if rng.Intn(2) == 0 {
				c.a, c.b = c.b, c.a
			}
			cables = append(cables, c)
		}
	}
	rng.Shuffle(len(cables), func(i, j int) { cables[i], cables[j] = cables[j], cables[i] })
	n, _ := wireFabric(t, sim.NewEngine(seed), nodes, cables)
	ref := newModel(nodes, cables)
	checkAgainstModel(t, -1, n, ref)
	// cable returns a random cable, or ok=false.
	cable := func() (a, b NodeID, ok bool) {
		if len(ref.order) == 0 {
			return "", "", false
		}
		k := ref.order[rng.Intn(len(ref.order))]
		return k[0], k[1], true
	}
	for step := 0; step < steps; step++ {
		switch rng.Intn(4) {
		case 0: // raise or fail a cable
			a, b, ok := cable()
			if !ok {
				continue
			}
			up := rng.Intn(2) == 0
			if err := n.SetLinkUp(a, b, up); err != nil {
				t.Fatalf("step %d: set %s-%s up=%v: %v", step, a, b, up, err)
			}
			ref.setUp(a, b, up)
		case 1: // shape or clear a cable
			a, b, ok := cable()
			if !ok {
				continue
			}
			if rng.Intn(3) == 0 {
				if err := n.ClearShaping(a, b); err != nil {
					t.Fatalf("step %d: clear %s-%s: %v", step, a, b, err)
				}
				for _, k := range [][2]NodeID{{a, b}, {b, a}} {
					ref.links[k].shaped = false
				}
			} else {
				s := Shaping{CapacityScale: 0.5, ExtraLatency: time.Millisecond}
				if err := n.ShapeLink(a, b, s); err != nil {
					t.Fatalf("step %d: shape %s-%s: %v", step, a, b, err)
				}
				for _, k := range [][2]NodeID{{a, b}, {b, a}} {
					ref.links[k].shaped = true
				}
			}
			ref.epoch++
		case 2: // a stream over one up link
			a, b, ok := cable()
			if !ok || !ref.links[[2]NodeID{a, b}].up {
				continue
			}
			if _, err := n.StartFlow(FlowSpec{Src: a, Dst: b, Path: n.Indices(a, b)}); err != nil {
				t.Fatalf("step %d: flow %s->%s: %v", step, a, b, err)
			}
			ref.links[[2]NodeID{a, b}].flows++
		case 3: // settle rates: the solver walks links whose flow sets were made lazily
			n.MaxLinkUtilisation()
		}
		checkAgainstModel(t, step, n, ref)
	}
}

// checkAgainstModel asserts that n holds what the model does: each
// node's index, name and kind; the topology epoch; the link order, each
// leg the network's own; every hop array (order, and each entry's
// destination, kind and up flag against its link and the model), and
// the total of hop entries; and each ordered node pair's Link, with its
// reverse leg, state, parameters and flow count.
func checkAgainstModel(t testing.TB, step int, n *Network, ref *refNet) {
	t.Helper()
	if n.NodeCount() != len(ref.names) {
		t.Fatalf("step %d: %d nodes, model %d", step, n.NodeCount(), len(ref.names))
	}
	for i, id := range ref.names {
		nd := n.NodeAt(int32(i))
		if nd.ID != id || nd.Kind != ref.kind[id] || nd.Index() != int32(i) || n.Node(id) != nd {
			t.Fatalf("step %d: node #%d is %s %v #%d, model %s %v", step, i, nd.ID, nd.Kind, nd.Index(), id, ref.kind[id])
		}
	}
	if got := n.TopoEpoch(); got != ref.epoch {
		t.Fatalf("step %d: topology epoch %d, model %d", step, got, ref.epoch)
	}
	links := legs(n)
	if hops := hopCount(n); hops != len(links) || len(links) != len(ref.order) || len(ref.order) != len(ref.links) {
		t.Fatalf("step %d: %d hop entries and %d links, model %d", step, hops, len(links), len(ref.links))
	}
	for i, l := range links {
		if k := ref.order[i]; l.From() != k[0] || l.To() != k[1] || l.net != n {
			t.Fatalf("step %d: link %d is %s->%s of %p, model %s->%s of %p", step, i, l.From(), l.To(), l.net, k[0], k[1], n)
		}
	}
	for _, a := range ref.names {
		outs := n.LinksFrom(n.Node(a).Index())
		if len(outs) != len(ref.out[a]) {
			t.Fatalf("step %d: %s has %d outgoing links, model %v", step, a, len(outs), ref.out[a])
		}
		for i, h := range outs {
			l, b := h.Link(), ref.out[a][i]
			nb := n.Node(b)
			switch {
			case l.From() != a || l.To() != b:
				t.Fatalf("step %d: LinksFrom(%s)[%d] = %s->%s, model ->%s", step, a, i, l.From(), l.To(), b)
			case h.To() != nb.Index() || h.To() != l.to || h.Kind() != ref.kind[b]:
				t.Fatalf("step %d: hop %s->%s reads #%d %v, node is #%d %v", step, a, b, h.To(), h.Kind(), nb.Index(), ref.kind[b])
			case h.Up() != l.Up() || h.Up() != ref.links[[2]NodeID{a, b}].up:
				t.Fatalf("step %d: hop %s->%s up=%v, link up=%v, model up=%v", step, a, b, h.Up(), l.Up(), ref.links[[2]NodeID{a, b}].up)
			}
		}
		for _, b := range ref.names {
			l, want := n.Link(a, b), ref.links[[2]NodeID{a, b}]
			if want == nil {
				if l != nil {
					t.Fatalf("step %d: Link(%s, %s) exists, model has none", step, a, b)
				}
				continue
			}
			nb := n.Node(b)
			switch {
			case l == nil:
				t.Fatalf("step %d: Link(%s, %s) missing", step, a, b)
			case l.From() != a || l.To() != b || l.to != nb.Index():
				t.Fatalf("step %d: Link(%s, %s) is %s->%s to #%d", step, a, b, l.From(), l.To(), l.to)
			case l.rev != n.Link(b, a) || l.rev.rev != l:
				t.Fatalf("step %d: Link(%s, %s) has the wrong reverse leg", step, a, b)
			case l.Up() != want.up || l.Shaped() != want.shaped:
				t.Fatalf("step %d: Link(%s, %s) up=%v shaped=%v, model %+v", step, a, b, l.Up(), l.Shaped(), *want)
			case l.FlowCount() != want.flows:
				t.Fatalf("step %d: Link(%s, %s) carries %d flows, model %d", step, a, b, l.FlowCount(), want.flows)
			}
			wantCap, wantLat := want.capacity, want.latency
			if want.shaped {
				wantCap, wantLat = wantCap*0.5, wantLat+time.Millisecond
			}
			if l.Capacity != wantCap || l.Latency != wantLat {
				t.Fatalf("step %d: Link(%s, %s) cap=%v lat=%v, model %v %v", step, a, b, l.Capacity, l.Latency, wantCap, wantLat)
			}
		}
	}
}

// TestLinkLookupHighDegree wires a switch with a few hundred hosts and
// asks for every link from both ends. Link scans the hop array of the
// endpoint with fewer links, so a host's side answers for the switch's;
// the answer must be the same leg either way, and the hop entries must
// stay in step, through failures and restores asked from either end. A
// cable recorded twice, from either end, is refused.
func TestLinkLookupHighDegree(t *testing.T) {
	nodes := []testNode{{"agg-0", KindSwitch}, {"agg-1", KindSwitch}, {"tor", KindSwitch}}
	var hosts []NodeID
	for i := 0; i < 300; i++ {
		id := NodeID(fmt.Sprintf("h%03d", i))
		nodes = append(nodes, testNode{id, KindHost})
		hosts = append(hosts, id)
	}
	// ends orders a host's cable: from the host on even i, from the
	// switch on odd i.
	ends := func(i int) (NodeID, NodeID) {
		if i%2 == 0 {
			return hosts[i], "tor"
		}
		return "tor", hosts[i]
	}
	cables := []testCable{{"tor", "agg-0", mbps, time.Millisecond}, {"agg-1", "tor", mbps, time.Millisecond}}
	for i := range hosts {
		a, b := ends(i)
		cables = append(cables, testCable{a, b, mbps, time.Millisecond})
	}
	for i := 0; i < len(hosts); i += 13 {
		a, b := ends(i)
		for _, dup := range []testCable{{a, b, mbps, 0}, {b, a, mbps, 0}} {
			wb := recordFabric(t, nodes, append(slices.Clone(cables), dup))
			if _, err := wb.Finish(); !errors.Is(err, ErrLinkExists) {
				t.Fatalf("duplicate %s-%s = %v", dup.a, dup.b, err)
			}
		}
	}
	n, _ := wireFabric(t, sim.NewEngine(1), nodes, cables)
	ref := newModel(nodes, cables)
	step := 0
	check := func() {
		t.Helper()
		checkAgainstModel(t, step, n, ref)
		step++
	}
	check()
	if got := len(n.LinksFrom(n.Node("tor").Index())); got != len(hosts)+2 {
		t.Fatalf("tor has %d links, want %d", got, len(hosts)+2)
	}
	for i := 0; i < len(hosts); i += 7 {
		a, b := ends(i)
		if i%3 == 0 {
			a, b = b, a
		}
		if err := n.SetLinkUp(a, b, false); err != nil {
			t.Fatal(err)
		}
		ref.setUp(a, b, false)
	}
	check()
	for i := 0; i < len(hosts); i += 14 {
		a, b := ends(i)
		if err := n.SetLinkUp(b, a, true); err != nil {
			t.Fatal(err)
		}
		ref.setUp(a, b, true)
	}
	check()
}
