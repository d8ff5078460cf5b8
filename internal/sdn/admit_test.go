package sdn

// Flow admission: the cost of the table walk and of a packet-in, the
// switch registry, and the flow hashes that pick ECMP paths and tag
// rules for flushing.

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/topology"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// crossRackPairs returns n distinct host pairs in different racks, in a
// seeded random order.
func crossRackPairs(topo *topology.Topology, n int, seed int64) [][2]netsim.NodeID {
	rng := rand.New(rand.NewSource(seed))
	seen := map[[2]netsim.NodeID]bool{}
	var out [][2]netsim.NodeID
	for len(out) < n {
		ra := rng.Intn(len(topo.Racks))
		rb := (ra + 1 + rng.Intn(len(topo.Racks)-1)) % len(topo.Racks)
		p := [2]netsim.NodeID{
			topo.Racks[ra][rng.Intn(len(topo.Racks[ra]))],
			topo.Racks[rb][rng.Intn(len(topo.Racks[rb]))],
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// TestAdmitAllocs pins the heap objects one admission makes on the 4×14
// tree. A table hit allocates nothing: the path it returns is the
// controller's walk buffer. A packet-in on a cached route over three
// switches allocates the path's rules in one slab and, per rule, its
// idle-expiry closure and its timer's event node: seven. Before
// admission went index-keyed they were 4 and 25 under ECMP; while it
// returned node names, 1 and 10.
func TestAdmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	r := newRig(t)
	hit := openflow.PacketInfo{Src: r.host(0, 0), Dst: r.host(1, 0), Proto: "tcp", DstPort: 80}
	if _, _, err := r.ctrl.Admit(hit, PolicyECMP); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, via, err := r.ctrl.Admit(hit, PolicyECMP); err != nil || via {
			t.Fatalf("table hit: via controller %v, err %v", via, err)
		}
	})
	t.Logf("table hit: %.0f objects", allocs)
	if allocs != 0 {
		t.Errorf("a table-hit Admit makes %.0f objects, want 0", allocs)
	}

	const runs = 150
	pairs := crossRackPairs(r.topo, runs+1, 1)
	for _, p := range pairs {
		if _, err := r.ctrl.PathFor(p[0], p[1], PolicyShortestPath, 0); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	allocs = testing.AllocsPerRun(runs, func() {
		p := pairs[next]
		next++
		pkt := openflow.PacketInfo{Src: p[0], Dst: p[1], Proto: "tcp", DstPort: 80}
		path, via, err := r.ctrl.Admit(pkt, PolicyECMP)
		if err != nil || !via || len(path) != 5 {
			t.Fatalf("packet-in %s->%s: path %v, via controller %v, err %v", p[0], p[1], path, via, err)
		}
	})
	t.Logf("packet-in on a cached route: %.0f objects", allocs)
	if allocs > 7 {
		t.Errorf("a packet-in Admit on a cached 3-switch route makes %.0f objects, want at most 7", allocs)
	}
}

// BenchmarkAdmitPacketIn times the admission steady-1k pays for almost
// every flow: a packet-in on a cached route. Each iteration admits a
// fresh cross-rack pair on the 1040-host benchRig fabric under ECMP, and
// the engine advances 140 ms of simulated time per admission (steady-1k
// admits ~7 flows a second), so rules idle out 30 s after install and
// the tables hold what they hold in that run.
func BenchmarkAdmitPacketIn(b *testing.B) {
	_, topo, ctrl := benchRig(b)
	pairs := crossRackPairs(topo, 4096, 1)
	for _, p := range pairs {
		if _, err := ctrl.PathFor(p[0], p[1], PolicyShortestPath, 0); err != nil {
			b.Fatal(err)
		}
	}
	const step, every = 140 * time.Millisecond, 16
	engine := ctrl.engine
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%every == 0 {
			if err := engine.RunFor(every * step); err != nil {
				b.Fatal(err)
			}
		}
		p := pairs[i%len(pairs)]
		pkt := openflow.PacketInfo{Src: p[0], Dst: p[1], Proto: "tcp", DstPort: 80}
		if _, via, err := ctrl.Admit(pkt, PolicyECMP); err != nil || !via {
			b.Fatalf("admission %d (%s->%s): via controller %v, err %v", i, p[0], p[1], via, err)
		}
	}
}

// TestRegisterSwitch: a switch the network does not know is refused and
// not counted; registering a node's switch again replaces it without
// counting it twice.
func TestRegisterSwitch(t *testing.T) {
	r := newRig(t)
	state := func() string { return string(r.ctrl.AppendState(nil, nil)) }
	want := state()
	if err := r.ctrl.RegisterSwitch(openflow.NewSwitch("nope", r.engine)); !errors.Is(err, ErrUnknownSwitch) {
		t.Fatalf("unknown switch: err = %v, want ErrUnknownSwitch", err)
	}
	if r.ctrl.Switch("nope") != nil {
		t.Fatal("a refused switch is reachable")
	}
	edge := r.topo.Edge[0]
	again := openflow.NewSwitch(edge, r.engine)
	if err := r.ctrl.RegisterSwitch(again); err != nil {
		t.Fatal(err)
	}
	if r.ctrl.Switch(edge) != again {
		t.Fatal("re-registration did not replace the switch")
	}
	if got := state(); got != want {
		t.Fatalf("state line %q after refusal and re-registration, want %q", got, want)
	}
	if r.ctrl.Switch(r.host(0, 0)) != nil {
		t.Fatal("a host answers as a switch")
	}
}

// TestFlowHashesMatchFNV pins the inline FNV-1a of flowKey and
// pairCookie to hash/fnv: the ECMP choice and the flush cookies depend
// on their values.
func TestFlowHashesMatchFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		p := openflow.PacketInfo{Src: netsim.NodeID(str()), Dst: netsim.NodeID(str()),
			Label: openflow.Label(rng.Uint32()), Proto: str(), DstPort: uint16(rng.Uint32())}
		h := fnv.New64a()
		h.Write([]byte(p.Src))
		h.Write([]byte{0})
		h.Write([]byte(p.Dst))
		cookie := h.Sum64() &^ (1 << 32)
		if got := pairCookie(p.Src, p.Dst); got != cookie {
			t.Fatalf("pairCookie(%q, %q) = %#x, hash/fnv gives %#x", p.Src, p.Dst, got, cookie)
		}
		h.Write([]byte{byte(p.Label >> 24), byte(p.Label >> 16), byte(p.Label >> 8), byte(p.Label)})
		h.Write([]byte(p.Proto))
		h.Write([]byte{byte(p.DstPort >> 8), byte(p.DstPort)})
		if got := flowKey(p); got != h.Sum64() {
			t.Fatalf("flowKey(%+v) = %#x, hash/fnv gives %#x", p, got, h.Sum64())
		}
	}
}
