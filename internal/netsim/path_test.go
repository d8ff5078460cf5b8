package netsim

// Flow paths by node index: what an admission allocates, the order a
// link's flow set keeps, and the index path checked against the
// name-resolving reference it replaced.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// oracleResolvePath is resolvePath as it was written over node names:
// it resolves each hop through the name index and refuses a path with
// the same error classes, hop by hop, in the same order.
func oracleResolvePath(n *Network, path []NodeID) ([]*Link, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 hops, got %d", ErrBadPath, len(path))
	}
	first := n.nodes[path[0]]
	if first == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, path[0])
	}
	links := make([]*Link, 0, len(path)-1)
	from := first
	for _, hop := range path[1:] {
		nd := n.nodes[hop]
		if nd == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, hop)
		}
		repeat := nd == first
		for _, l := range links {
			repeat = repeat || l.to == nd.idx
		}
		if repeat {
			return nil, fmt.Errorf("%w: hop %s repeats", ErrBadPath, hop)
		}
		l := n.LinkAt(from.idx, nd.idx)
		if l == nil {
			return nil, fmt.Errorf("%w: %s->%s", ErrNoSuchLink, from.ID, hop)
		}
		if !l.up {
			return nil, fmt.Errorf("%w: %s->%s", ErrLinkDownPath, from.ID, hop)
		}
		links = append(links, l)
		from = nd
	}
	return links, nil
}

// oracleStartFlow is StartFlow's path check over node names: the path
// resolves and runs from src to dst.
func oracleStartFlow(n *Network, src, dst NodeID, path []NodeID) ([]*Link, error) {
	links, err := oracleResolvePath(n, path)
	if err != nil {
		return nil, err
	}
	if path[0] != src || path[len(path)-1] != dst {
		return nil, fmt.Errorf("%w: path endpoints do not match", ErrBadPath)
	}
	return links, nil
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// pathErrors are the classes a path is refused with.
var pathErrors = []error{ErrBadPath, ErrNoSuchNode, ErrNoSuchLink, ErrLinkDownPath}

// sameClass reports whether two errors are both nil or both of the same
// path error class.
func sameClass(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, class := range pathErrors {
		if errors.Is(a, class) != errors.Is(b, class) {
			return false
		}
	}
	return true
}

// checkFlowSets asserts the flow-set invariant: every link's set holds
// exactly the live flows routed over it, in ascending flow-ID order.
func checkFlowSets(t *testing.T, n *Network) {
	t.Helper()
	want := map[*Link][]*Flow{}
	for _, f := range n.flowOrder {
		if !f.ended {
			for _, l := range f.path {
				want[l] = append(want[l], f)
			}
		}
	}
	for _, l := range legs(n) {
		var got []*Flow
		if l.load != nil {
			got = l.load.flows
		}
		if !slices.Equal(got, want[l]) {
			t.Fatalf("%s->%s carries flows %v, want %v", l.From(), l.To(), flowIDs(got), flowIDs(want[l]))
		}
	}
}

func flowIDs(fs []*Flow) []int64 {
	ids := make([]int64, len(fs))
	for i, f := range fs {
		ids[i] = f.ID
	}
	return ids
}

// TestStartFlowAllocs pins what an admission by node index allocates:
// the Flow and its link slice, and nothing per hop, whether the path
// has two links or four. A link's first flow also makes its load (with
// the load's flow array), and a flow that joins no live flow makes its
// congestion domain (with its member list).
func TestStartFlowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	e := sim.NewEngine(1)
	rig := buildDiffRig(t, e, 2, 3, 2)
	n := rig.n
	local := n.Indices(rig.racks[0][0], rig.tors[0], rig.racks[0][1])
	cross := n.Indices(rig.racks[0][0], rig.tors[0], rig.aggs[0], rig.tors[1], rig.racks[1][0])
	for _, path := range [][]int32{local, cross} {
		spec := FlowSpec{Src: n.NodeAt(path[0]).ID, Dst: n.NodeAt(path[len(path)-1]).ID, Path: path}
		// A resident flow loads the links, so every measured flow joins
		// its domain. The growth of the flow sets and the domain's list
		// is amortised below one object per admission.
		if _, err := n.StartFlow(spec); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := n.StartFlow(spec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("an admission over %d links makes %.0f objects, want 2 (the Flow and its link slice)", len(path)-1, allocs)
		}
	}

	// First flows over fresh links: each run admits a flow inside a rack
	// no flow has touched yet. The growth of the network's flow and
	// worklist slices is amortised below one object per admission.
	const racks = 64
	rig = buildDiffRig(t, sim.NewEngine(1), racks, 2, 1)
	n = rig.n
	specs := make([]FlowSpec, racks)
	for r := range specs {
		h := rig.racks[r]
		specs[r] = FlowSpec{Src: h[0], Dst: h[1], Path: n.Indices(h[0], rig.tors[r], h[1])}
	}
	next := 0
	allocs := testing.AllocsPerRun(racks-1, func() {
		if _, err := n.StartFlow(specs[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// The Flow and its link slice, a load and its flow array for each of
	// the two links, and the flow's own congestion domain with its
	// member list.
	if allocs != 8 {
		t.Errorf("a first flow over 2 fresh links makes %.0f objects, want 8", allocs)
	}
}

// TestLinkFlowSetOrder re-paths flows onto a loaded link, so they join
// its flow set before flows admitted after them, then fails the link:
// the set stays in flow-ID order, BitsCarried is bitwise the committed
// bits plus the pending spans summed in ID order, and the flows end, and
// their OnEnd callbacks fire, in ID order.
func TestLinkFlowSetOrder(t *testing.T) {
	e := sim.NewEngine(1)
	rig := buildDiffRig(t, e, 2, 6, 2)
	n := rig.n
	var ended []int64
	onEnd := func(f *Flow, r EndReason) {
		if r == EndLinkDown {
			ended = append(ended, f.ID)
		}
	}
	via := func(h, agg int) []int32 {
		return n.Indices(rig.racks[0][h], rig.tors[0], rig.aggs[agg], rig.tors[1], rig.racks[1][h])
	}
	// Six flows alternate between the two aggs, with distinct rate caps
	// so their pending spans differ.
	flows := make([]*Flow, 6)
	for h := range flows {
		f, err := n.StartFlow(FlowSpec{
			Src: rig.racks[0][h], Dst: rig.racks[1][h], Path: via(h, h%2),
			RateCapBps: float64(h+1) * 7 * mbps, OnEnd: onEnd,
		})
		if err != nil {
			t.Fatal(err)
		}
		flows[h] = f
	}
	if err := e.RunFor(300 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Re-path the agg-1 flows onto agg-0, latest first, so each lands
	// between flows already there.
	for h := 5; h >= 0; h -= 2 {
		if err := n.SetPath(flows[h], via(h, 0)); err != nil {
			t.Fatal(err)
		}
		checkFlowSets(t, n)
	}
	if err := e.RunFor(700 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	up := n.Link(rig.tors[0], rig.aggs[0])
	if got := flowIDs(up.load.flows); !slices.Equal(got, []int64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("%s->%s flow set %v, want IDs 1..6 in order", up.From(), up.To(), got)
	}
	now := e.Now()
	want := up.load.bitsCarried
	for _, f := range flows {
		want += f.pendingBits(now)
	}
	if got := up.BitsCarried(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("BitsCarried = %v, want %v summed in flow-ID order", got, want)
	}

	if err := n.SetLinkUp(rig.tors[0], rig.aggs[0], false); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ended, []int64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("OnEnd fired for flows %v, want 1..6 in order", ended)
	}
	if up.FlowCount() != 0 || up.Utilisation() != 0 {
		t.Fatalf("failed link still carries %d flows at utilisation %v", up.FlowCount(), up.Utilisation())
	}
	checkFlowSets(t, n)
}

// FuzzFlowPath sends arbitrary hop-index sequences — negative and
// out-of-range indices, repeats, non-adjacent hops — through StartFlow
// and SetPath on a small fabric with one failed link. Nothing panics; a
// sequence is refused exactly when the name-resolving reference refuses
// the same hops spelled by name, with the same error class; an accepted
// one routes over the links the reference resolves; and every link's
// flow set holds its live flows in flow-ID order.
func FuzzFlowPath(f *testing.F) {
	f.Add([]byte{2, 0, 3}, uint8(0), uint8(0))          // h-0-0 tor-0 h-0-1
	f.Add([]byte{2, 0, 7, 1, 4}, uint8(0), uint8(0))    // across agg-1
	f.Add([]byte{2, 0, 3}, uint8(5), uint8(3))          // endpoints differ from src
	f.Add([]byte{2, 0, 7, 1, 5, 1}, uint8(0), uint8(0)) // tor-1 repeats
	f.Add([]byte{2, 0, 2}, uint8(0), uint8(0))          // back to the first hop
	f.Add([]byte{2, 6, 3}, uint8(0), uint8(0))          // h-0-0 is not cabled to agg-0
	f.Add([]byte{2, 0, 6, 1, 4}, uint8(0), uint8(0))    // over the failed uplink
	f.Add([]byte{0xff, 0, 3}, uint8(0), uint8(0))       // a negative index
	f.Add([]byte{2, 0, 11}, uint8(0), uint8(0))         // an index past the last node
	f.Add([]byte{2}, uint8(0), uint8(0))                // too short
	f.Fuzz(func(t *testing.T, hops []byte, srcByte, dstByte uint8) {
		e := sim.NewEngine(1)
		// tor-0 (0), tor-1 (1), h-0-0 (2), h-0-1 (3), h-1-0 (4), h-1-1 (5),
		// agg-0 (6), agg-1 (7); tor-0—agg-0 is down.
		var nodes []testNode
		for _, id := range []NodeID{"tor-0", "tor-1"} {
			nodes = append(nodes, testNode{id, KindSwitch})
		}
		for _, id := range []NodeID{"h-0-0", "h-0-1", "h-1-0", "h-1-1"} {
			nodes = append(nodes, testNode{id, KindHost})
		}
		for _, id := range []NodeID{"agg-0", "agg-1"} {
			nodes = append(nodes, testNode{id, KindSwitch})
		}
		var cables []testCable
		for _, c := range [][2]NodeID{
			{"h-0-0", "tor-0"}, {"h-0-1", "tor-0"}, {"h-1-0", "tor-1"}, {"h-1-1", "tor-1"},
			{"tor-0", "agg-0"}, {"tor-0", "agg-1"}, {"tor-1", "agg-0"}, {"tor-1", "agg-1"},
		} {
			cables = append(cables, testCable{c[0], c[1], 100 * mbps, time.Microsecond})
		}
		n, _ := wireFabric(t, e, nodes, cables)
		if err := n.SetLinkUp("tor-0", "agg-0", false); err != nil {
			t.Fatal(err)
		}
		// A hop byte is a signed index past both ends of the node range,
		// spelled for the reference by its node's name or by a name the
		// network does not know.
		const span = 12
		index := func(b byte) int32 { return int32(int8(b)) % span }
		name := func(i int32) NodeID {
			if n.hasNode(i) {
				return n.nodeList[i].ID
			}
			return NodeID(fmt.Sprintf("ghost%d", i))
		}
		if len(hops) > 16 {
			hops = hops[:16]
		}
		path := make([]int32, len(hops))
		names := make([]NodeID, len(hops))
		for i, b := range hops {
			path[i] = index(b)
			names[i] = name(path[i])
		}
		src, dst := name(index(srcByte)), name(index(dstByte))
		if srcByte == 0 && dstByte == 0 && len(path) > 0 {
			src, dst = names[0], names[len(names)-1]
		}

		want, wantErr := oracleStartFlow(n, src, dst, names)
		fl, err := n.StartFlow(FlowSpec{Src: src, Dst: dst, Path: path})
		if !sameClass(err, wantErr) {
			t.Fatalf("StartFlow(%v from %s to %s) = %v, reference %v", path, src, dst, err, wantErr)
		}
		if err == nil && !slices.Equal(fl.path, want) {
			t.Fatalf("StartFlow(%v) routes over %v, reference %v", path, fl.path, want)
		}
		checkFlowSets(t, n)

		// Re-path a live flow admitted after the one above.
		live, err := n.StartFlow(FlowSpec{Src: "h-1-1", Dst: "h-0-1", Path: n.Indices("h-1-1", "tor-1", "agg-1", "tor-0", "h-0-1")})
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr = oracleResolvePath(n, names)
		err = n.SetPath(live, path)
		if !sameClass(err, wantErr) {
			t.Fatalf("SetPath(%v) = %v, reference %v", path, err, wantErr)
		}
		if err == nil && !slices.Equal(live.path, want) {
			t.Fatalf("SetPath(%v) routes over %v, reference %v", path, live.path, want)
		}
		checkFlowSets(t, n)
		if err := e.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := n.CancelFlow(live); err != nil {
			t.Fatal(err)
		}
		checkFlowSets(t, n)
	})
}
