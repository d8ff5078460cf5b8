package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/netsim"
)

// cluster builds a 4-rack × 3-node empty Pi view.
func cluster() *View {
	v := &View{Locate: make(map[string]netsim.NodeID)}
	for r := 0; r < 4; r++ {
		for i := 0; i < 3; i++ {
			id := netsim.NodeID(rune('a'+r)) + netsim.NodeID(rune('0'+i))
			v.Nodes = append(v.Nodes, NodeView{
				ID:            id,
				Rack:          r,
				CPU:           875,
				MemTotal:      256 * hw.MiB,
				MemUsed:       48 * hw.MiB,
				MaxContainers: 3,
				PoweredOn:     true,
			})
		}
	}
	return v
}

func req(name string, cpu hw.MIPS, mem int64, peers ...string) Request {
	return Request{Name: name, CPUDemandMIPS: cpu, MemBytes: mem, Peers: peers}
}

// apply commits a placement to the view through SetRow, as pimaster
// would.
func apply(v *View, r Request, node netsim.NodeID) {
	for i, n := range v.Nodes {
		if n.ID == node {
			n.CPUUsed += r.CPUDemandMIPS
			n.MemUsed += r.MemBytes
			n.Containers++
			v.SetRow(i, n)
		}
	}
	v.Locate[r.Name] = node
}

func TestFits(t *testing.T) {
	n := NodeView{CPU: 875, MemTotal: 256 * hw.MiB, MaxContainers: 3, PoweredOn: true}
	cases := []struct {
		name string
		r    Request
		n    NodeView
		p    Policy
		want bool
	}{
		{"fits", req("a", 100, 30*hw.MiB), n, Policy{}, true},
		{"powered off", req("a", 100, 30*hw.MiB), NodeView{CPU: 875, MemTotal: 256 * hw.MiB, PoweredOn: false}, Policy{}, false},
		{"mem over", req("a", 100, 300*hw.MiB), n, Policy{}, false},
		{"cpu over", req("a", 1000, 30*hw.MiB), n, Policy{}, false},
		{"cpu over but overcommitted", req("a", 1000, 30*hw.MiB), n, Policy{CPUOvercommit: 2}, true},
		{"container cap", req("a", 1, 1), NodeView{CPU: 875, MemTotal: 256 * hw.MiB, MaxContainers: 3, Containers: 3, PoweredOn: true}, Policy{}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Fits(c.r, c.n, c.p); got != c.want {
				t.Fatalf("Fits = %v, want %v", got, c.want)
			}
		})
	}
}

func TestRoundRobinCycles(t *testing.T) {
	v := cluster()
	rr := &RoundRobin{}
	seen := make(map[netsim.NodeID]bool)
	for i := 0; i < len(v.Nodes); i++ {
		id, err := rr.Place(req("c", 10, 30*hw.MiB), v, Policy{})
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("round-robin revisited %s before full cycle", id)
		}
		seen[id] = true
	}
}

func TestFirstFitPacksInOrder(t *testing.T) {
	v := cluster()
	for i := 0; i < 3; i++ {
		r := req("c", 10, 30*hw.MiB)
		id, err := FirstFit{}.Place(r, v, Policy{})
		if err != nil {
			t.Fatal(err)
		}
		if id != v.Nodes[0].ID {
			t.Fatalf("first-fit chose %s, want first node", id)
		}
		apply(v, r, id)
	}
	// First node at container cap: next goes to second node.
	id, err := FirstFit{}.Place(req("c4", 10, 30*hw.MiB), v, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if id != v.Nodes[1].ID {
		t.Fatalf("got %s, want second node", id)
	}
}

func TestBestFitPacksTightest(t *testing.T) {
	v := cluster()
	// Preload node[1] with some usage.
	apply(v, req("warm", 200, 60*hw.MiB), v.Nodes[1].ID)
	id, err := BestFit{}.Place(req("c", 10, 30*hw.MiB), v, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if id != v.Nodes[1].ID {
		t.Fatalf("best-fit chose %s, want the warm node", id)
	}
}

func TestWorstFitSpreads(t *testing.T) {
	v := cluster()
	apply(v, req("warm", 200, 60*hw.MiB), v.Nodes[0].ID)
	id, err := WorstFit{}.Place(req("c", 10, 30*hw.MiB), v, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if id == v.Nodes[0].ID {
		t.Fatal("worst-fit chose the warm node")
	}
}

func TestNetworkAwareColocatesWithPeers(t *testing.T) {
	v := cluster()
	// Place two peers in rack 2.
	apply(v, req("p1", 50, 30*hw.MiB), v.Nodes[6].ID)
	apply(v, req("p2", 50, 30*hw.MiB), v.Nodes[7].ID)
	// And one in rack 0.
	apply(v, req("p3", 50, 30*hw.MiB), v.Nodes[0].ID)
	id, err := NetworkAware{}.Place(req("c", 10, 30*hw.MiB, "p1", "p2", "p3"), v, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if rack := v.NodeByID(id).Rack; rack != 2 {
		t.Fatalf("network-aware chose rack %d, want 2 (majority of peers)", rack)
	}
}

func TestNetworkAwareFallsBackWhenRackFull(t *testing.T) {
	v := cluster()
	// Fill rack 2 to its container caps.
	for n := 6; n <= 8; n++ {
		for i := 0; i < 3; i++ {
			apply(v, req("x", 1, hw.MiB), v.Nodes[n].ID)
		}
	}
	apply(v, req("p1", 1, hw.MiB), v.Nodes[0].ID)
	v.Locate["p1"] = v.Nodes[6].ID // pretend p1 lives in full rack 2
	id, err := NetworkAware{}.Place(req("c", 10, 30*hw.MiB, "p1"), v, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if v.NodeByID(id).Rack == 2 {
		t.Fatal("placed in a full rack")
	}
}

func TestNetworkAwareNoPeersActsLikeBestFit(t *testing.T) {
	v := cluster()
	apply(v, req("warm", 200, 60*hw.MiB), v.Nodes[5].ID)
	id, err := NetworkAware{}.Place(req("c", 10, 30*hw.MiB), v, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if id != v.Nodes[5].ID {
		t.Fatalf("no-peer placement chose %s, want best-fit's pick", id)
	}
}

func TestNoCapacityError(t *testing.T) {
	v := cluster()
	huge := req("huge", 10, 10*hw.GiB)
	for _, pl := range []Placer{&RoundRobin{}, FirstFit{}, BestFit{}, WorstFit{}, NetworkAware{}} {
		if _, err := pl.Place(huge, v, Policy{}); !errors.Is(err, ErrNoCapacity) {
			t.Errorf("%s: err = %v, want ErrNoCapacity", pl.Name(), err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"round-robin", "first-fit", "best-fit", "worst-fit", "network-aware"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown placer accepted")
	}
}

func TestPlanConsolidationDrainsLightNodes(t *testing.T) {
	v := cluster()
	// One container on each of two nodes in different racks; the rest
	// empty. The planner should drain one donor onto the other host.
	c1 := ContainerLoad{Name: "a", Node: v.Nodes[0].ID, CPUDemandMIPS: 100, MemBytes: 60 * hw.MiB}
	c2 := ContainerLoad{Name: "b", Node: v.Nodes[6].ID, CPUDemandMIPS: 100, MemBytes: 70 * hw.MiB}
	apply(v, req(c1.Name, c1.CPUDemandMIPS, c1.MemBytes), c1.Node)
	apply(v, req(c2.Name, c2.CPUDemandMIPS, c2.MemBytes), c2.Node)

	plan := PlanConsolidation(v, []ContainerLoad{c1, c2}, Policy{})
	if len(plan) != 1 {
		t.Fatalf("plan = %+v, want exactly 1 move", plan)
	}
	m := plan[0]
	if m.From == m.To {
		t.Fatal("no-op move")
	}
	// The lighter node (a's host) is drained onto b's host.
	if m.Container != "a" || m.To != c2.Node {
		t.Fatalf("move = %+v, want a → %s", m, c2.Node)
	}
}

func TestPlanConsolidationRespectsCapacity(t *testing.T) {
	v := cluster()
	// Two containers that cannot share any node (memory).
	c1 := ContainerLoad{Name: "a", Node: v.Nodes[0].ID, MemBytes: 120 * hw.MiB}
	c2 := ContainerLoad{Name: "b", Node: v.Nodes[3].ID, MemBytes: 120 * hw.MiB}
	apply(v, req(c1.Name, 0, c1.MemBytes), c1.Node)
	apply(v, req(c2.Name, 0, c2.MemBytes), c2.Node)
	plan := PlanConsolidation(v, []ContainerLoad{c1, c2}, Policy{})
	if len(plan) != 0 {
		t.Fatalf("plan = %+v, want none (no feasible consolidation)", plan)
	}
}

func TestPlanConsolidationEmptyCluster(t *testing.T) {
	v := cluster()
	if plan := PlanConsolidation(v, nil, Policy{}); len(plan) != 0 {
		t.Fatalf("plan on empty cluster = %+v", plan)
	}
}

// Property: every placement returned by every stock placer satisfies
// Fits, and committed placements never exceed node memory.
func TestPropertyPlacementsAlwaysFit(t *testing.T) {
	placers := []Placer{&RoundRobin{}, FirstFit{}, BestFit{}, WorstFit{}, NetworkAware{}}
	f := func(sizes []uint8, placerIdx uint8) bool {
		v := cluster()
		pl := placers[int(placerIdx)%len(placers)]
		for i, s := range sizes {
			if i > 30 {
				break
			}
			r := req(string(rune('a'+i%26)), hw.MIPS(s), int64(s%60+10)*hw.MiB)
			id, err := pl.Place(r, v, Policy{})
			if err != nil {
				continue // cluster full is fine
			}
			n := v.NodeByID(id)
			if !Fits(r, *n, Policy{}) {
				return false
			}
			apply(v, r, id)
			if n.MemUsed > n.MemTotal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: consolidation plans never move a container to its own node
// and never target a drained donor.
func TestPropertyConsolidationSane(t *testing.T) {
	f := func(layout []uint8) bool {
		v := cluster()
		var cs []ContainerLoad
		for i, b := range layout {
			if i >= 9 {
				break
			}
			node := v.Nodes[int(b)%len(v.Nodes)]
			c := ContainerLoad{
				Name:     string(rune('a' + i)),
				Node:     node.ID,
				MemBytes: int64(b%50+10) * hw.MiB,
			}
			if !Fits(req(c.Name, 0, c.MemBytes), *v.NodeByID(node.ID), Policy{}) {
				continue
			}
			apply(v, req(c.Name, 0, c.MemBytes), node.ID)
			cs = append(cs, c)
		}
		drained := make(map[netsim.NodeID]bool)
		for _, m := range PlanConsolidation(v, cs, Policy{}) {
			if m.From == m.To {
				return false
			}
			if drained[m.To] {
				return false
			}
			drained[m.From] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBestFit56Nodes(b *testing.B) {
	v := &View{Locate: map[string]netsim.NodeID{}}
	for i := 0; i < 56; i++ {
		id := netsim.NodeID(rune('a'+i/14)) + netsim.NodeID(rune('0'+i%14))
		v.Nodes = append(v.Nodes, NodeView{ID: id, Rack: i / 14, CPU: 875, MemTotal: 256 * hw.MiB, MaxContainers: 3, PoweredOn: true})
	}
	r := req("c", 10, 30*hw.MiB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (BestFit{}).Place(r, v, Policy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// scanPlace is the placers' row scan without the repeated-row skip:
// the reference the placers visiting run heads must agree with.
func scanPlace(name string, req Request, v *View, p Policy) (netsim.NodeID, error) {
	pick := func(rack int, better func(s, best float64) bool, start float64) int {
		best, bestScore := -1, start
		for i, n := range v.Nodes {
			if (rack >= 0 && n.Rack != rack) || !Fits(req, n, p) {
				continue
			}
			if s := load(req, n, p); better(s, bestScore) {
				best, bestScore = i, s
			}
		}
		return best
	}
	higher := func(s, best float64) bool { return s > best }
	best := -1
	switch name {
	case "first-fit":
		for i, n := range v.Nodes {
			if Fits(req, n, p) {
				best = i
				break
			}
		}
	case "best-fit":
		best = pick(-1, higher, -1)
	case "worst-fit":
		best = pick(-1, func(s, b float64) bool { return s < b }, 2)
	case "network-aware":
		peers := map[int]int{}
		for _, peer := range req.Peers {
			if id, ok := v.Locate[peer]; ok {
				peers[v.NodeByID(id).Rack]++
			}
		}
		racks := make([]int, 0, len(peers))
		for r := range peers {
			racks = append(racks, r)
		}
		sort.Slice(racks, func(i, j int) bool {
			if peers[racks[i]] != peers[racks[j]] {
				return peers[racks[i]] > peers[racks[j]]
			}
			return racks[i] < racks[j]
		})
		for _, r := range racks {
			if best = pick(r, higher, -1); best >= 0 {
				break
			}
		}
		if best < 0 {
			best = pick(-1, higher, -1)
		}
	}
	if best < 0 {
		return "", fmt.Errorf("%w: %s", ErrNoCapacity, req.Name)
	}
	return v.Nodes[best].ID, nil
}

// randomRunsView builds a view of racks made of runs of identical rows
// (idle, loaded, powered off or full), so that many rows tie.
func randomRunsView(rng *rand.Rand) *View {
	v := &View{Locate: map[string]netsim.NodeID{}}
	kinds := []NodeView{
		{CPU: 875, MemTotal: 256 * hw.MiB, MemUsed: 48 * hw.MiB, MaxContainers: 3, PoweredOn: true},
		{CPU: 875, CPUUsed: 300, MemTotal: 256 * hw.MiB, MemUsed: 120 * hw.MiB, Containers: 1, MaxContainers: 3, PoweredOn: true},
		{CPU: 875, CPUUsed: 600, MemTotal: 256 * hw.MiB, MemUsed: 48 * hw.MiB, Containers: 2, MaxContainers: 3, PoweredOn: true},
		{CPU: 875, MemTotal: 256 * hw.MiB, MemUsed: 48 * hw.MiB, MaxContainers: 3},
		{CPU: 875, MemTotal: 256 * hw.MiB, MemUsed: 200 * hw.MiB, Containers: 3, MaxContainers: 3, PoweredOn: true},
	}
	for rack := 0; rack < 1+rng.Intn(5); rack++ {
		for len(v.Nodes) < (rack+1)*40 {
			row := kinds[rng.Intn(len(kinds))]
			row.Rack = rack
			if rng.Intn(4) == 0 {
				row.MemUsed += int64(rng.Intn(3)) * hw.MiB
			}
			for run := 1 + rng.Intn(12); run > 0; run-- {
				row.ID = netsim.NodeID(fmt.Sprintf("n%03d", len(v.Nodes)))
				v.Nodes = append(v.Nodes, row)
			}
		}
	}
	for i := 0; i < rng.Intn(6); i++ {
		v.Locate[fmt.Sprintf("p%d", i)] = v.Nodes[rng.Intn(len(v.Nodes))].ID
	}
	return v
}

// TestSkipMatchesFullScan: visiting run heads, which skips every row
// equal to the one before it, never changes a choice.
// Random views of identical runs, powered-off and full nodes, with many
// score ties, go through every placer that visits heads and its row
// scan; then rows are rewritten through SetRow — into a copy of a
// neighbour, into a fresh load, back to their old value — and after
// each write the kept heads must equal heads derived afresh and every
// choice must still match the scan.
func TestSkipMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	placers := []Placer{FirstFit{}, BestFit{}, WorstFit{}, NetworkAware{}}
	for trial := 0; trial < 300; trial++ {
		v := randomRunsView(rng)
		for write := 0; write < 12; write++ {
			r := req("c", hw.MIPS(rng.Intn(4)*150), int64(rng.Intn(4)*30)*hw.MiB, "p0", "p1", "p2", "p3")
			pol := Policy{CPUOvercommit: float64(rng.Intn(2) + 1)}
			for _, pl := range placers {
				got, gerr := pl.Place(r, v, pol)
				want, werr := scanPlace(pl.Name(), r, v, pol)
				if got != want || (gerr == nil) != (werr == nil) {
					t.Fatalf("trial %d write %d %s: chose %q (%v), the row scan %q (%v)", trial, write, pl.Name(), got, gerr, want, werr)
				}
			}
			i := rng.Intn(len(v.Nodes))
			row := v.Nodes[i]
			switch rng.Intn(3) {
			case 0:
				if j := i + rng.Intn(3) - 1; j >= 0 && j < len(v.Nodes) {
					row = v.Nodes[j]
				}
			case 1:
				row.Containers, row.MemUsed = rng.Intn(4), int64(48+rng.Intn(3)*40)*hw.MiB
			}
			row.ID = v.Nodes[i].ID
			v.SetRow(i, row)
			fresh := View{Nodes: v.Nodes}
			if !slices.Equal(v.runHeads(), fresh.runHeads()) {
				t.Fatalf("trial %d write %d: kept heads %v, derived %v", trial, write, v.runHeads(), fresh.runHeads())
			}
		}
	}
}
