package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/sim"
)

// TestSelfLoopRejected: a node cannot be cabled to itself. Accepting one
// used to leave one link-table entry behind two adjacency entries, and
// removing the loop then dereferenced a nil link.
func TestSelfLoopRejected(t *testing.T) {
	n := New(sim.NewEngine(1))
	if err := n.AddNode("a", KindSwitch); err != nil {
		t.Fatal(err)
	}
	epoch := n.TopoEpoch()
	if err := n.AddDuplexLink("a", "a", mbps, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if n.Link("a", "a") != nil || len(n.LinksFrom(0)) != 0 || len(n.linkList) != 0 || hopCount(n) != 0 {
		t.Fatalf("rejected self-loop left state behind: link=%v out=%d list=%d hops=%d",
			n.Link("a", "a"), len(n.LinksFrom(0)), len(n.linkList), hopCount(n))
	}
	if n.TopoEpoch() != epoch {
		t.Fatal("rejected self-loop bumped the topology epoch")
	}
	if err := n.RemoveDuplexLink("a", "a"); !errors.Is(err, ErrNoSuchLink) {
		t.Fatalf("removing a self-loop = %v, want ErrNoSuchLink", err)
	}
}

// TestHopEntryIs16Bytes: routing walks hop arrays entry by entry, and a
// wider field (a NodeKind back on int, say) would double every walk's
// memory traffic.
func TestHopEntryIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Hop{}); size != 16 {
		t.Fatalf("a hop entry is %d bytes, want 16", size)
	}
}

// refLink is the name-keyed model's view of one directed link.
type refLink struct {
	up, shaped bool
	capacity   float64
	latency    time.Duration
	flows      int
}

// refNet is a name-keyed reference for the link table: what the network
// should hold after any sequence of wiring, link-state, shaping and
// tagging calls, written without node indices.
type refNet struct {
	links map[[2]NodeID]*refLink
	// out lists each node's outgoing destinations in creation order;
	// order lists every directed link in creation order.
	out   map[NodeID][]NodeID
	order [][2]NodeID
	// tags remembers each directed link's group, across removal.
	tags  map[[2]NodeID]int
	epoch uint64
}

func newRefNet(n *Network) *refNet {
	return &refNet{
		links: map[[2]NodeID]*refLink{},
		out:   map[NodeID][]NodeID{},
		tags:  map[[2]NodeID]int{},
		epoch: n.TopoEpoch(),
	}
}

// wire records a cable the network accepted.
func (ref *refNet) wire(a, b NodeID, capacity float64, latency time.Duration) {
	for _, k := range [][2]NodeID{{a, b}, {b, a}} {
		ref.links[k] = &refLink{up: true, capacity: capacity, latency: latency}
		ref.out[k[0]] = append(ref.out[k[0]], k[1])
		ref.order = append(ref.order, k)
	}
	ref.epoch++
}

// remove records a cable the network removed.
func (ref *refNet) remove(a, b NodeID) {
	for _, k := range [][2]NodeID{{a, b}, {b, a}} {
		delete(ref.links, k)
		ref.out[k[0]] = without(ref.out[k[0]], k[1])
		ref.order = without(ref.order, k)
	}
	ref.epoch++
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

// hopCount returns the number of entries across every hop array.
func hopCount(n *Network) int {
	total := 0
	for _, out := range n.out {
		total += len(out)
	}
	return total
}

func without[T comparable](s []T, v T) []T {
	kept := s[:0]
	for _, x := range s {
		if x != v {
			kept = append(kept, x)
		}
	}
	return kept
}

// TestLinkTableMatchesNameModel drives random wiring, removal,
// re-wiring, up/down, shaping, tagging and single-link flows against the
// name-keyed reference, and after every step checks each ordered node
// pair's Link, every hop array (order, and each entry's destination,
// kind and up flag against its link and the model), the reverse legs,
// the link list, the total number of hop entries, the flow counts,
// group membership (tags survive re-cabling) and the topology epoch.
func TestLinkTableMatchesNameModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkLinkModel(t, seed, 1500)
		})
	}
}

func checkLinkModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	n := New(sim.NewEngine(seed))
	var names []NodeID
	for i := 0; i < 8; i++ {
		id := NodeID(fmt.Sprintf("n%d", i))
		kind := KindSwitch
		if i%3 == 0 {
			kind = KindHost
		}
		if err := n.AddNode(id, kind); err != nil {
			t.Fatal(err)
		}
		names = append(names, id)
	}
	ref := newRefNet(n)
	pick := func() (NodeID, NodeID) {
		a := names[rng.Intn(len(names))]
		b := names[rng.Intn(len(names))]
		return a, b
	}
	// cable returns a random existing cable, or ok=false.
	cable := func() (a, b NodeID, ok bool) {
		if len(ref.order) == 0 {
			return "", "", false
		}
		k := ref.order[rng.Intn(len(ref.order))]
		return k[0], k[1], true
	}
	for step := 0; step < steps; step++ {
		op := rng.Intn(8)
		switch op {
		case 0, 1: // wire a cable (or be refused)
			a, b := pick()
			capacity := float64(1+rng.Intn(10)) * mbps
			latency := time.Duration(rng.Intn(5)) * time.Millisecond
			err := n.AddDuplexLink(a, b, capacity, latency)
			switch {
			case a == b:
				if err == nil {
					t.Fatalf("step %d: self-loop %s accepted", step, a)
				}
			case ref.links[[2]NodeID{a, b}] != nil:
				if !errors.Is(err, ErrLinkExists) {
					t.Fatalf("step %d: duplicate %s-%s = %v", step, a, b, err)
				}
			default:
				if err != nil {
					t.Fatalf("step %d: wire %s-%s: %v", step, a, b, err)
				}
				ref.wire(a, b, capacity, latency)
			}
		case 2: // remove a cable, sometimes one that is not there
			a, b, ok := cable()
			if !ok || rng.Intn(4) == 0 {
				a, b = pick()
			}
			err := n.RemoveDuplexLink(a, b)
			if ref.links[[2]NodeID{a, b}] == nil {
				if !errors.Is(err, ErrNoSuchLink) {
					t.Fatalf("step %d: remove absent %s-%s = %v", step, a, b, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: remove %s-%s: %v", step, a, b, err)
			}
			ref.remove(a, b)
		case 3: // raise or fail a cable
			a, b, ok := cable()
			if !ok {
				continue
			}
			up := rng.Intn(2) == 0
			if err := n.SetLinkUp(a, b, up); err != nil {
				t.Fatalf("step %d: set %s-%s up=%v: %v", step, a, b, up, err)
			}
			ref.setUp(a, b, up)
		case 4: // shape or clear a cable
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
		case 5: // tag one direction of a cable
			a, b, ok := cable()
			if !ok {
				continue
			}
			id := rng.Intn(3)
			if err := n.TagLinkGroup(a, b, id); err != nil {
				t.Fatalf("step %d: tag %s->%s: %v", step, a, b, err)
			}
			ref.tags[[2]NodeID{a, b}] = id
		case 6: // a stream over one up link
			a, b, ok := cable()
			if !ok || !ref.links[[2]NodeID{a, b}].up {
				continue
			}
			if _, err := n.StartFlow(FlowSpec{Src: a, Dst: b, Path: []NodeID{a, b}}); err != nil {
				t.Fatalf("step %d: flow %s->%s: %v", step, a, b, err)
			}
			ref.links[[2]NodeID{a, b}].flows++
		case 7: // settle rates: the solver walks links whose flow sets were made lazily
			n.MaxLinkUtilisation()
		}
		checkAgainstModel(t, step, n, ref, names)
	}
}

func checkAgainstModel(t *testing.T, step int, n *Network, ref *refNet, names []NodeID) {
	t.Helper()
	if got := n.TopoEpoch(); got != ref.epoch {
		t.Fatalf("step %d: topology epoch %d, model %d", step, got, ref.epoch)
	}
	if hops := hopCount(n); hops != len(n.linkList) || len(n.linkList) != len(ref.order) || len(ref.order) != len(ref.links) {
		t.Fatalf("step %d: %d hop entries and %d listed links, model %d",
			step, hops, len(n.linkList), len(ref.links))
	}
	for i, l := range n.linkList {
		if k := ref.order[i]; l.From != k[0] || l.To != k[1] {
			t.Fatalf("step %d: link list[%d] is %s->%s, model %s->%s", step, i, l.From, l.To, k[0], k[1])
		}
	}
	for _, a := range names {
		na := n.Node(a)
		outs := n.LinksFrom(na.Index())
		if len(outs) != len(ref.out[a]) {
			t.Fatalf("step %d: %s has %d outgoing links, model %v", step, a, len(outs), ref.out[a])
		}
		for i, h := range outs {
			l, b := h.Link(), ref.out[a][i]
			nb := n.Node(b)
			switch {
			case l.From != a || l.To != b:
				t.Fatalf("step %d: LinksFrom(%s)[%d] = %s->%s, model ->%s", step, a, i, l.From, l.To, b)
			case h.To() != nb.Index() || h.To() != l.to || h.Kind() != nb.Kind:
				t.Fatalf("step %d: hop %s->%s reads #%d %v, node is #%d %v", step, a, b, h.To(), h.Kind(), nb.Index(), nb.Kind)
			case h.Up() != l.Up() || h.Up() != ref.links[[2]NodeID{a, b}].up:
				t.Fatalf("step %d: hop %s->%s up=%v, link up=%v, model up=%v", step, a, b, h.Up(), l.Up(), ref.links[[2]NodeID{a, b}].up)
			}
		}
		for _, b := range names {
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
			case l.From != a || l.To != b || l.to != nb.Index():
				t.Fatalf("step %d: Link(%s, %s) is %s->%s to #%d", step, a, b, l.From, l.To, l.to)
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
			id, tagged := ref.tags[[2]NodeID{a, b}]
			switch {
			case !tagged && l.grp != nil:
				t.Fatalf("step %d: untagged Link(%s, %s) is in group %d", step, a, b, l.grp.id)
			case tagged && (l.grp == nil || l.grp.id != id):
				t.Fatalf("step %d: Link(%s, %s) lost its group %d", step, a, b, id)
			}
		}
	}
	// Every group lists exactly its live tagged links.
	members := 0
	for _, g := range n.groups {
		for _, l := range g.links {
			if l.grp != g || n.Link(l.From, l.To) != l {
				t.Fatalf("step %d: group %d lists a stale link %s->%s", step, g.id, l.From, l.To)
			}
		}
		members += len(g.links)
	}
	tagged := 0
	for k := range ref.tags {
		if ref.links[k] != nil {
			tagged++
		}
	}
	if members != tagged {
		t.Fatalf("step %d: groups hold %d links, model %d tagged live links", step, members, tagged)
	}
}

// TestLinkLookupHighDegree wires a switch with a few hundred hosts and
// asks for every link from both ends. Link scans the hop array of the
// endpoint with fewer links, so a host's side answers for the switch's;
// the answer must be the same leg either way, and the hop entries must
// stay in step, through duplicate wiring, failures and removals asked
// from either end, and re-wiring.
func TestLinkLookupHighDegree(t *testing.T) {
	n := New(sim.NewEngine(1))
	names := []NodeID{"agg-0", "agg-1", "tor"}
	for _, id := range names {
		if err := n.AddNode(id, KindSwitch); err != nil {
			t.Fatal(err)
		}
	}
	var hosts []NodeID
	for i := 0; i < 300; i++ {
		id := NodeID(fmt.Sprintf("h%03d", i))
		if err := n.AddNode(id, KindHost); err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, id)
	}
	names = append(names, hosts...)
	ref := newRefNet(n)
	// ends orders a host's cable: from the host on even i, from the
	// switch on odd i.
	ends := func(i int) (NodeID, NodeID) {
		if i%2 == 0 {
			return hosts[i], "tor"
		}
		return "tor", hosts[i]
	}
	wire := func(a, b NodeID) {
		t.Helper()
		if err := n.AddDuplexLink(a, b, mbps, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		ref.wire(a, b, mbps, time.Millisecond)
	}
	wire("tor", "agg-0")
	wire("agg-1", "tor")
	for i := range hosts {
		wire(ends(i))
	}
	step := 0
	check := func() {
		t.Helper()
		checkAgainstModel(t, step, n, ref, names)
		step++
	}
	check()
	if got := len(n.LinksFrom(n.Node("tor").Index())); got != len(hosts)+2 {
		t.Fatalf("tor has %d links, want %d", got, len(hosts)+2)
	}
	for i := 0; i < len(hosts); i += 13 {
		a, b := ends(i)
		for _, pair := range [][2]NodeID{{a, b}, {b, a}} {
			if err := n.AddDuplexLink(pair[0], pair[1], mbps, 0); !errors.Is(err, ErrLinkExists) {
				t.Fatalf("duplicate %s-%s = %v", pair[0], pair[1], err)
			}
		}
	}
	check()
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
	removed := map[int]bool{}
	for i := 3; i < len(hosts); i += 11 {
		a, b := ends(i)
		if i%4 == 0 {
			a, b = b, a
		}
		if err := n.RemoveDuplexLink(a, b); err != nil {
			t.Fatal(err)
		}
		ref.remove(a, b)
		removed[i] = true
	}
	check()
	for i := 0; i < len(hosts); i += 14 {
		if removed[i] {
			continue
		}
		a, b := ends(i)
		if err := n.SetLinkUp(b, a, true); err != nil {
			t.Fatal(err)
		}
		ref.setUp(a, b, true)
	}
	check()
	for i := range hosts {
		if removed[i] {
			wire(ends(i))
		}
	}
	check()
}
