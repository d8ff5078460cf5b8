package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

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
	if n.Link("a", "a") != nil || len(n.LinksFrom(0)) != 0 || len(n.linkList) != 0 || len(n.links) != 0 {
		t.Fatalf("rejected self-loop left state behind: link=%v out=%d list=%d table=%d",
			n.Link("a", "a"), len(n.LinksFrom(0)), len(n.linkList), len(n.links))
	}
	if n.TopoEpoch() != epoch {
		t.Fatal("rejected self-loop bumped the topology epoch")
	}
	if err := n.RemoveDuplexLink("a", "a"); !errors.Is(err, ErrNoSuchLink) {
		t.Fatalf("removing a self-loop = %v, want ErrNoSuchLink", err)
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
// pair's Link, every LinksFrom order, Reverse, the link list, the flow
// counts, group membership (tags survive re-cabling) and the topology
// epoch.
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
	ref := &refNet{
		links: map[[2]NodeID]*refLink{},
		out:   map[NodeID][]NodeID{},
		tags:  map[[2]NodeID]int{},
		epoch: n.TopoEpoch(),
	}
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
	endFlows := func(a, b NodeID) {
		ref.links[[2]NodeID{a, b}].flows = 0
		ref.links[[2]NodeID{b, a}].flows = 0
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
				for _, k := range [][2]NodeID{{a, b}, {b, a}} {
					ref.links[k] = &refLink{up: true, capacity: capacity, latency: latency}
					ref.out[k[0]] = append(ref.out[k[0]], k[1])
					ref.order = append(ref.order, k)
				}
				ref.epoch++
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
			for _, k := range [][2]NodeID{{a, b}, {b, a}} {
				delete(ref.links, k)
				ref.out[k[0]] = without(ref.out[k[0]], k[1])
				ref.order = without(ref.order, k)
			}
			ref.epoch++
		case 3: // raise or fail a cable
			a, b, ok := cable()
			if !ok {
				continue
			}
			up := rng.Intn(2) == 0
			if err := n.SetLinkUp(a, b, up); err != nil {
				t.Fatalf("step %d: set %s-%s up=%v: %v", step, a, b, up, err)
			}
			ref.links[[2]NodeID{a, b}].up = up
			ref.links[[2]NodeID{b, a}].up = up
			if !up {
				endFlows(a, b)
			}
			ref.epoch++
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
	if len(n.links) != len(ref.links) || len(n.linkList) != len(ref.order) {
		t.Fatalf("step %d: %d table entries and %d listed links, model %d",
			step, len(n.links), len(n.linkList), len(ref.links))
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
		for i, l := range outs {
			if l.From != a || l.To != ref.out[a][i] {
				t.Fatalf("step %d: LinksFrom(%s)[%d] = %s->%s, model ->%s", step, a, i, l.From, l.To, ref.out[a][i])
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
			case l.From != a || l.To != b || l.ToIndex() != nb.Index() || l.DstKind() != nb.Kind:
				t.Fatalf("step %d: Link(%s, %s) is %s->%s to #%d", step, a, b, l.From, l.To, l.ToIndex())
			case l.Reverse() != n.Link(b, a) || l.Reverse().Reverse() != l:
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
