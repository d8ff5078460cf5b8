package sdn

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rig builds the canonical 4×14 PiCloud fabric with a controller
// managing every switch.
type rig struct {
	engine *sim.Engine
	net    *netsim.Network
	topo   *topology.Topology
	ctrl   *Controller
}

func newRig(t *testing.T) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.DefaultMultiRoot())
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := NewController(e, n)
	for _, id := range topo.Switches() {
		ctrl.RegisterSwitch(openflow.NewSwitch(id, e))
	}
	return &rig{engine: e, net: n, topo: topo, ctrl: ctrl}
}

func (r *rig) host(rack, idx int) netsim.NodeID { return r.topo.Racks[rack][idx] }

func TestPathForSameRack(t *testing.T) {
	r := newRig(t)
	src, dst := r.host(0, 0), r.host(0, 1)
	path, err := r.ctrl.PathFor(src, dst, PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same rack: host → ToR → host, 3 hops.
	if len(path) != 3 {
		t.Fatalf("path = %v, want 3 hops via the ToR", path)
	}
	if mid := r.net.NodeAt(path[1]).ID; mid != r.topo.Edge[0] {
		t.Fatalf("middle hop = %s, want rack-0 ToR", mid)
	}
}

func TestPathForCrossRack(t *testing.T) {
	r := newRig(t)
	src, dst := r.host(0, 0), r.host(3, 13)
	path, err := r.ctrl.PathFor(src, dst, PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cross rack: host → ToR → agg → ToR → host, 5 hops.
	if len(path) != 5 {
		t.Fatalf("path = %v, want 5 hops", path)
	}
	if names := r.ctrl.names(path); names[0] != src || names[len(names)-1] != dst {
		t.Fatalf("endpoints wrong: %v", names)
	}
}

func TestPathForErrors(t *testing.T) {
	r := newRig(t)
	if _, err := r.ctrl.PathFor("nope", r.host(0, 0), PolicyShortestPath, 0); !errors.Is(err, ErrNoPath) {
		t.Fatalf("unknown src: %v", err)
	}
	if _, err := r.ctrl.PathFor(r.host(0, 0), r.host(0, 0), PolicyShortestPath, 0); !errors.Is(err, ErrNoPath) {
		t.Fatalf("src==dst: %v", err)
	}
}

func TestPathNeverRelaysThroughHosts(t *testing.T) {
	r := newRig(t)
	path, err := r.ctrl.PathFor(r.host(1, 0), r.host(2, 0), PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, hop := range path[1 : len(path)-1] {
		if nd := r.net.NodeAt(hop); nd.Kind == netsim.KindHost {
			t.Fatalf("path %v relays through host %s", r.ctrl.names(path), nd.ID)
		}
	}
}

func TestAdmitInstallsRulesThenCaches(t *testing.T) {
	r := newRig(t)
	pkt := openflow.PacketInfo{Src: r.host(0, 0), Dst: r.host(1, 0), Proto: "tcp", DstPort: 80}
	hops1, via1, err := r.ctrl.Admit(pkt, PolicyShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	// The walk buffer is the next admission's: keep the names.
	path1 := r.ctrl.names(hops1)
	if !via1 {
		t.Fatal("first admission should reach the controller")
	}
	if r.ctrl.PacketIns() != 1 {
		t.Fatalf("packet-ins = %d, want 1", r.ctrl.PacketIns())
	}
	// Second flow with the same pair: pure table hits.
	hops2, via2, err := r.ctrl.Admit(pkt, PolicyShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	path2 := r.ctrl.names(hops2)
	if via2 {
		t.Fatal("second admission should be served from flow tables")
	}
	if len(path1) != len(path2) {
		t.Fatalf("cached path differs: %v vs %v", path1, path2)
	}
	for i := range path1 {
		if path1[i] != path2[i] {
			t.Fatalf("cached path differs: %v vs %v", path1, path2)
		}
	}
	if r.ctrl.RulesInstalled() == 0 {
		t.Fatal("no rules installed")
	}
}

func TestAdmitAfterIdleTimeoutRecomputes(t *testing.T) {
	r := newRig(t)
	pkt := openflow.PacketInfo{Src: r.host(0, 0), Dst: r.host(1, 0)}
	if _, _, err := r.ctrl.Admit(pkt, PolicyShortestPath); err != nil {
		t.Fatal(err)
	}
	// Let reactive rules idle out (default 30s).
	if err := r.engine.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	_, via, err := r.ctrl.Admit(pkt, PolicyShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !via {
		t.Fatal("expected fresh packet-in after idle timeout")
	}
	if r.ctrl.PacketIns() != 2 {
		t.Fatalf("packet-ins = %d, want 2", r.ctrl.PacketIns())
	}
}

func TestECMPSpreadsAcrossAggRoots(t *testing.T) {
	r := newRig(t)
	used := map[netsim.NodeID]bool{}
	// Many distinct port numbers → distinct flow keys → both aggregation
	// roots should appear in cross-rack paths.
	for port := 1; port <= 64; port++ {
		pkt := openflow.PacketInfo{Src: r.host(0, 0), Dst: r.host(1, 0), Proto: "tcp", DstPort: uint16(port)}
		path, err := r.ctrl.PathFor(pkt.Src, pkt.Dst, PolicyECMP, flowKey(pkt))
		if err != nil {
			t.Fatal(err)
		}
		used[r.net.NodeAt(path[2]).ID] = true // the aggregation hop
	}
	if len(used) < 2 {
		t.Fatalf("ECMP used only %v; want both aggregation roots", used)
	}
}

func TestShortestPathIsDeterministic(t *testing.T) {
	r := newRig(t)
	first, err := r.ctrl.PathFor(r.host(0, 0), r.host(1, 0), PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := r.ctrl.names(first)
	for i := 0; i < 5; i++ {
		hops, err := r.ctrl.PathFor(r.host(0, 0), r.host(1, 0), PolicyShortestPath, 0)
		if err != nil {
			t.Fatal(err)
		}
		b := r.ctrl.names(hops)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("shortest path nondeterministic: %v vs %v", a, b)
			}
		}
	}
}

func TestCongestionAwareAvoidsHotLink(t *testing.T) {
	r := newRig(t)
	// Saturate the tor-00 → agg-00 uplink with a background stream.
	hot, err := r.ctrl.PathFor(r.host(0, 0), r.host(1, 0), PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	aggUsed := hot[2]
	if _, err := r.net.StartFlow(netsim.FlowSpec{
		Src: r.host(0, 0), Dst: r.host(1, 0), Path: hot,
	}); err != nil {
		t.Fatal(err)
	}
	// A congestion-aware route for another flow pair sharing that ToR
	// should choose the other aggregation root.
	path, err := r.ctrl.PathFor(r.host(0, 1), r.host(1, 1), PolicyCongestionAware, 99)
	if err != nil {
		t.Fatal(err)
	}
	if path[2] == aggUsed {
		t.Fatalf("congestion-aware path used the hot aggregation switch %s: %v", r.net.NodeAt(aggUsed).ID, r.ctrl.names(path))
	}
}

func TestReroutesAroundFailedLink(t *testing.T) {
	r := newRig(t)
	before, err := r.ctrl.PathFor(r.host(0, 0), r.host(1, 0), PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg := r.net.NodeAt(before[2]).ID
	if err := r.net.SetLinkUp(r.topo.Edge[0], agg, false); err != nil {
		t.Fatal(err)
	}
	after, err := r.ctrl.PathFor(r.host(0, 0), r.host(1, 0), PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.net.NodeAt(after[2]).ID == agg {
		t.Fatalf("path still uses failed uplink via %s", agg)
	}
}

func TestNoPathWhenRackIsolated(t *testing.T) {
	r := newRig(t)
	for _, agg := range r.topo.Agg {
		if err := r.net.SetLinkUp(r.topo.Edge[0], agg, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.ctrl.PathFor(r.host(0, 0), r.host(1, 0), PolicyShortestPath, 0); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
	// Same-rack traffic still fine.
	if _, err := r.ctrl.PathFor(r.host(0, 0), r.host(0, 5), PolicyShortestPath, 0); err != nil {
		t.Fatal(err)
	}
}

func TestLabelLifecycle(t *testing.T) {
	r := newRig(t)
	h1, h2 := r.host(0, 0), r.host(2, 3)
	l := r.ctrl.AssignLabel("vm-web-1", h1)
	if l == 0 {
		t.Fatal("label 0 allocated; 0 must stay the wildcard")
	}
	if got, _ := r.ctrl.LabelOf("vm-web-1"); got != l {
		t.Fatal("LabelOf mismatch")
	}
	if h, _ := r.ctrl.HostOfLabel(l); h != h1 {
		t.Fatal("HostOfLabel mismatch")
	}
	// Same name → same label even after rebind.
	if again := r.ctrl.AssignLabel("vm-web-1", h2); again != l {
		t.Fatal("AssignLabel minted a second label for the same name")
	}
	if h, _ := r.ctrl.HostOfLabel(l); h != h2 {
		t.Fatal("AssignLabel did not rebind host")
	}
}

func TestLabelRoutingFollowsMigration(t *testing.T) {
	r := newRig(t)
	client := r.host(0, 0)
	vmHost1, vmHost2 := r.host(1, 0), r.host(2, 0)
	label := r.ctrl.AssignLabel("vm-db", vmHost1)

	pkt := openflow.PacketInfo{Src: client, Dst: vmHost1, Label: label}
	path1, _, err := r.ctrl.Admit(pkt, PolicyShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	if end := r.net.NodeAt(path1[len(path1)-1]).ID; end != vmHost1 {
		t.Fatalf("label path ends at %s, want %s", end, vmHost1)
	}

	// Migrate: rebind the label, flush rules.
	if err := r.ctrl.MoveLabel(label, vmHost2); err != nil {
		t.Fatal(err)
	}
	// Same label, same packet header (client still addresses the label):
	// traffic now lands on the new host.
	path2, via, err := r.ctrl.Admit(pkt, PolicyShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !via {
		t.Fatal("expected packet-in after label move flushed rules")
	}
	if end := r.net.NodeAt(path2[len(path2)-1]).ID; end != vmHost2 {
		t.Fatalf("after migration path ends at %s, want %s", end, vmHost2)
	}
}

func TestMoveUnknownLabel(t *testing.T) {
	r := newRig(t)
	if err := r.ctrl.MoveLabel(99, r.host(0, 0)); !errors.Is(err, ErrUnknownLabel) {
		t.Fatalf("err = %v, want ErrUnknownLabel", err)
	}
}

func TestInstallDropBlocksTraffic(t *testing.T) {
	r := newRig(t)
	src, dst := r.host(0, 0), r.host(0, 1)
	if err := r.ctrl.InstallDrop(r.topo.Edge[0], openflow.Match{Src: r.ctrl.ref(src)}, 1000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ctrl.Admit(openflow.PacketInfo{Src: src, Dst: dst}, PolicyShortestPath); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if err := r.ctrl.InstallDrop("nope", openflow.Match{}, 1); !errors.Is(err, ErrUnknownSwitch) {
		t.Fatalf("err = %v, want ErrUnknownSwitch", err)
	}
}

func TestFlushPair(t *testing.T) {
	r := newRig(t)
	pkt := openflow.PacketInfo{Src: r.host(0, 0), Dst: r.host(1, 0)}
	if _, _, err := r.ctrl.Admit(pkt, PolicyShortestPath); err != nil {
		t.Fatal(err)
	}
	if got := r.ctrl.FlushPair(pkt.Src, pkt.Dst); got == 0 {
		t.Fatal("FlushPair removed nothing")
	}
	_, via, err := r.ctrl.Admit(pkt, PolicyShortestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !via {
		t.Fatal("admission after flush should be a packet-in")
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyShortestPath.String() != "shortest-path" || PolicyECMP.String() != "ecmp" || PolicyCongestionAware.String() != "congestion-aware" {
		t.Error("policy names wrong")
	}
}

func BenchmarkAdmitCached(b *testing.B) {
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.DefaultMultiRoot())
	if err != nil {
		b.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := NewController(e, n)
	for _, id := range topo.Switches() {
		ctrl.RegisterSwitch(openflow.NewSwitch(id, e))
	}
	pkt := openflow.PacketInfo{Src: topo.Racks[0][0], Dst: topo.Racks[1][0]}
	if _, _, err := ctrl.Admit(pkt, PolicyShortestPath); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ctrl.Admit(pkt, PolicyShortestPath); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstra56Hosts(b *testing.B) {
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.DefaultMultiRoot())
	if err != nil {
		b.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := NewController(e, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.PathFor(topo.Racks[0][0], topo.Racks[3][13], PolicyShortestPath, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: for random host pairs and policies, PathFor returns a valid
// path — correct endpoints, existing up links between consecutive hops,
// no repeated hops, and no host used as a relay.
func TestPropertyPathValidity(t *testing.T) {
	r := newRig(t)
	hosts := r.topo.Hosts
	f := func(si, di uint8, policyRaw uint8, key uint64) bool {
		src := hosts[int(si)%len(hosts)]
		dst := hosts[int(di)%len(hosts)]
		if src == dst {
			return true
		}
		policy := []Policy{PolicyShortestPath, PolicyECMP, PolicyCongestionAware}[int(policyRaw)%3]
		hops, err := r.ctrl.PathFor(src, dst, policy, key)
		if err != nil {
			return false
		}
		path := r.ctrl.names(hops)
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		seen := map[netsim.NodeID]bool{}
		for i, hop := range path {
			if seen[hop] {
				return false
			}
			seen[hop] = true
			if i > 0 {
				l := r.net.Link(path[i-1], hop)
				if l == nil || !l.Up() {
					return false
				}
			}
			if i != 0 && i != len(path)-1 && r.net.Node(hop).Kind == netsim.KindHost {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
