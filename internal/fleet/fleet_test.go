package fleet

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dhcp"
	"repro/internal/dns"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
)

func assembleFleet(t *testing.T, cfg Config) *Result {
	t.Helper()
	var mu sync.Mutex
	r, err := Assemble(cfg, &mu)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestValidateRejectsAddressOverflow(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"too many racks", Config{Racks: MaxRacks + 1, HostsPerRack: 1}, "/20 addressing plan"},
		{"rack too deep", Config{Racks: 1, HostsPerRack: MaxHostsPerRack + 1}, "/20 pool"},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			var mu sync.Mutex
			_, err := Assemble(cse.cfg, &mu)
			if err == nil {
				t.Fatal("overflowing shape accepted")
			}
			if !strings.Contains(err.Error(), cse.want) {
				t.Fatalf("error %q does not explain the %s overflow", err, cse.want)
			}
		})
	}
	// The largest legal shape passes validation (not built — that is
	// the 10⁶-node fleet of a future PR).
	cfg := Config{Racks: MaxRacks, HostsPerRack: MaxHostsPerRack}
	cfg.FillDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("maximal legal shape rejected: %v", err)
	}
}

// TestNodeMACsValidAndUnique: every node MAC the addressing plan allows
// is a six-octet MAC that net.ParseMAC accepts, and its octets are
// b8:27:eb, the index's high byte, the rack and the index's low byte,
// so no two nodes share one.
func TestNodeMACsValidAndUnique(t *testing.T) {
	for rack := 0; rack < MaxRacks; rack++ {
		for idx := 0; idx < MaxHostsPerRack; idx++ {
			mac := dhcp.NodeMAC(rack, idx)
			hw, err := net.ParseMAC(string(mac))
			if err != nil {
				t.Fatalf("NodeMAC(%d, %d) = %s: %v", rack, idx, mac, err)
			}
			if want := []byte{0xb8, 0x27, 0xeb, byte(idx >> 8), byte(rack), byte(idx)}; !bytes.Equal(hw, want) {
				t.Fatalf("NodeMAC(%d, %d) = %s, octets %x, want %x", rack, idx, mac, hw, want)
			}
		}
	}
}

func TestTemplateRejectsBadBoard(t *testing.T) {
	if _, err := NewTemplate(hw.BoardSpec{}, nil); err == nil {
		t.Fatal("empty board accepted")
	}
	small := hw.PiModelB()
	small.MemBytes = 1 // below the OS reservation
	if _, err := NewTemplate(small, nil); err == nil {
		t.Fatal("board with less RAM than the OS accepted")
	}
}

// TestPlanMatchesRegistrationDerivations checks, on every fabric, that
// the plan's addressing is what registration would derive, and that each
// host's record is the one pimaster resolves and carries the in-rack
// index of its canonical name (VM names are derived from Rack and Idx).
func TestPlanMatchesRegistrationDerivations(t *testing.T) {
	for _, cfg := range []Config{
		{Racks: 3, HostsPerRack: 5, Seed: 1},
		{Racks: 4, HostsPerRack: 3, Fabric: topology.FabricLeafSpine, Seed: 1},
		{Racks: 4, HostsPerRack: 4, Fabric: topology.FabricFatTree, FatTreeK: 4, Seed: 1},
	} {
		r := assembleFleet(t, cfg)
		plan := r.plan
		if want := cfg.Racks * cfg.HostsPerRack; plan.Hosts() != want {
			t.Fatalf("%v: plan holds %d hosts, want %d", cfg.Fabric, plan.Hosts(), want)
		}
		for i, hp := range plan.hosts {
			if want := string(r.Topo.Hosts[i]); hp.name != want {
				t.Fatalf("host %d: plan name %s, topology %s", i, hp.name, want)
			}
			node := &r.Nodes[i]
			if ref, err := r.Master.Node(hp.name); err != nil || ref != node {
				t.Fatalf("host %s: pimaster resolves %p (%v), fleet holds %p", hp.name, ref, err, node)
			}
			if node.Idx != hp.idx || topology.HostName(node.Rack, node.Idx) != node.Host {
				t.Fatalf("host %s recorded as rack %d index %d, plan index %d", node.Host, node.Rack, node.Idx, hp.idx)
			}
			if hp.mac != dhcp.NodeMAC(hp.rack, hp.idx) {
				t.Fatalf("host %s: mac %s != NodeMAC(%d,%d)", hp.name, hp.mac, hp.rack, hp.idx)
			}
			if hp.fqdn != dns.NodeFQDN(hp.rack, hp.idx) {
				t.Fatalf("host %s: fqdn %s", hp.name, hp.fqdn)
			}
			// The registered lease must carry exactly the planned address.
			lease, ok := r.Master.DHCP().LeaseOf(hp.mac)
			if !ok {
				t.Fatalf("host %s: no lease", hp.name)
			}
			if lease.Addr != hp.addr || !lease.Static {
				t.Fatalf("host %s: lease %v static=%v, plan %v", hp.name, lease.Addr, lease.Static, hp.addr)
			}
			addrs, err := r.Master.DNS().LookupA(hp.fqdn)
			if err != nil || len(addrs) == 0 || addrs[0] != hp.addr {
				t.Fatalf("host %s: DNS %v (%v), plan %v", hp.name, addrs, err, hp.addr)
			}
		}
	}
}

func TestDirectStatusSkipsJSONButCounts(t *testing.T) {
	r := assembleFleet(t, Config{Racks: 1, HostsPerRack: 1, Seed: 1})
	node := &r.Nodes[0]
	st := node.Daemon().StatusDirect()
	if st.Node != node.Name {
		t.Fatalf("status for %s, want %s", st.Node, node.Name)
	}
	// Direct calls keep the API-request accounting honest.
	if st2 := node.Daemon().StatusDirect(); st2.APIRequests <= st.APIRequests {
		t.Fatalf("direct status not counted: %d then %d", st.APIRequests, st2.APIRequests)
	}
}

// TestSnapshotRestoreWithSeedOverride: a restore shares its snapshot's
// plan and can override the seed, while every Assemble derives a plan
// of its own, even for a shape built before, and only restores count
// as warm boots.
func TestSnapshotRestoreWithSeedOverride(t *testing.T) {
	cfg := Config{Racks: 2, HostsPerRack: 4, Seed: 7}
	warm := WarmHits()
	r := assembleFleet(t, cfg)
	if again := assembleFleet(t, cfg); again.plan == r.plan {
		t.Fatal("a second Assemble of the shape reused the first one's plan")
	}
	if got := WarmHits(); got != warm {
		t.Fatalf("two Assembles moved WarmHits from %d to %d", warm, got)
	}
	snap := r.Snapshot()
	var mu sync.Mutex
	restored, err := snap.Restore(&mu, 99)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Config.Seed != 99 {
		t.Fatalf("seed override ignored: %d", restored.Config.Seed)
	}
	if len(restored.Nodes) != len(r.Nodes) {
		t.Fatalf("restored %d nodes, want %d", len(restored.Nodes), len(r.Nodes))
	}
	// Same plan object: no re-derivation happened.
	if restored.plan != r.plan {
		t.Fatal("restore re-derived the construction plan")
	}
	// Keeping the captured seed.
	kept, err := snap.Restore(&mu, -1)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Config.Seed != 7 {
		t.Fatalf("negative seed should keep captured seed, got %d", kept.Config.Seed)
	}
	if got := WarmHits(); got != warm+2 {
		t.Fatalf("two restores moved WarmHits from %d to %d, want %d", warm, got, warm+2)
	}
}

// TestFatTreePodShardAlignment pins the pod → rack mapping the fat-tree
// megafleet scenarios rely on: topology racks ARE fat-tree pods and the
// construction plan assigns every host the rack index of its pod, so
// per-rack telemetry (energy groups, rack faults) is per-pod telemetry.
func TestFatTreePodShardAlignment(t *testing.T) {
	cfg := Config{
		Racks: 8, HostsPerRack: 16,
		Fabric: topology.FabricFatTree, FatTreeK: 8,
	}
	r := assembleFleet(t, cfg)
	if got := len(r.Topo.Racks); got != cfg.FatTreeK {
		t.Fatalf("fat-tree topology has %d racks, want one per pod (k=%d)", got, cfg.FatTreeK)
	}
	podOf := map[netsim.NodeID]int{}
	for pod, hosts := range r.Topo.Racks {
		for _, h := range hosts {
			podOf[h] = pod
		}
	}
	pods := map[int]bool{}
	for i := range r.plan.hosts {
		hp := &r.plan.hosts[i]
		pod, ok := podOf[netsim.NodeID(hp.name)]
		if !ok {
			t.Fatalf("host %s missing from the topology's pod map", hp.name)
		}
		if hp.rack != pod {
			t.Fatalf("host %s planned into rack %d but wired into pod %d", hp.name, hp.rack, pod)
		}
		pods[pod] = true
	}
	if len(pods) != cfg.FatTreeK {
		t.Fatalf("hosts cover %d pods, want %d", len(pods), cfg.FatTreeK)
	}
}

// referenceMeter writes the cloud meter's state, total draw and total
// energy up to at from the nodes' eager twin meters alone, by the rule
// the kernel digests pin: racks in ascending order, each rack's meters
// summed in sorted host-name order.
func referenceMeter(nodes []Node, twins []*energy.Meter, at sim.Time) (state string, watts, joules float64) {
	byRack := map[int][]int{}
	for i := range nodes {
		byRack[nodes[i].Rack] = append(byRack[nodes[i].Rack], i)
	}
	racks := slices.Sorted(maps.Keys(byRack))
	var b strings.Builder
	fmt.Fprintf(&b, "energy meters=%d groups=%d at=%d\n", len(nodes), len(racks), int64(at))
	for _, rack := range racks {
		members := byRack[rack]
		slices.SortFunc(members, func(x, y int) int { return strings.Compare(nodes[x].Name, nodes[y].Name) })
		var j, w float64
		for _, i := range members {
			j += twins[i].EnergyJoules(at)
			w += twins[i].CurrentWatts()
		}
		fmt.Fprintf(&b, "group %d joules=%016x watts=%016x members=%d\n",
			rack, math.Float64bits(j), math.Float64bits(w), len(members))
		watts += w
		joules += j
	}
	return b.String(), watts, joules
}

// TestMeterOrderIsHostNameOrder: the construction plan decides, once
// per shape, the order the cloud meter sums each rack's meters in, and
// it is host-name order. On racks of more than 100 hosts name order is
// not index order (pi-r00-n100 sorts before pi-r00-n11), so a build
// that attached meters in row order would move the last bits of the
// energy state. Every host also has an eager twin: a meter powered on
// at boot and driven through the same seeded utilisation changes and
// power cycles as the host's own, which only the hosts drawn touch, in
// a cold build and in a fleet restored from its snapshot. After each
// batch the cloud meter's state bytes and totals must equal the twins'
// host-name-order sums bit for bit, so an untouched host's idle slot
// reads as an eager meter that was never driven, and a rack without
// hosts adds no group.
func TestMeterOrderIsHostNameOrder(t *testing.T) {
	for _, s := range []struct {
		name string
		cfg  Config
	}{
		{"multi-root 2x150", Config{Racks: 2, HostsPerRack: 150, Seed: 1}},
		{"fat-tree k=22", Config{Racks: 22, HostsPerRack: 121, Fabric: topology.FabricFatTree, FatTreeK: 22, Seed: 1}},
		// 300 hosts fill 4 of 16 pods and part of a fifth: the 11 empty
		// pods make no meter group.
		{"fat-tree k=16 with empty pods", Config{Racks: 1, HostsPerRack: 300, Fabric: topology.FabricFatTree, FatTreeK: 16, Seed: 1}},
	} {
		t.Run(s.name, func(t *testing.T) {
			cold := assembleFleet(t, s.cfg)
			var mu sync.Mutex
			restored, err := cold.Snapshot().Restore(&mu, -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Result{cold, restored} {
				twins := make([]*energy.Meter, len(r.Nodes))
				for i := range twins {
					twins[i] = energy.NewMeter(r.Config.Board.Power, 0)
					twins[i].PowerOn(0)
				}
				rng := rand.New(rand.NewSource(11))
				now := sim.Time(0)
				for step := 1; step <= 400; step++ {
					now += sim.Time(1+rng.Intn(3000)) * sim.Time(time.Millisecond)
					i, op, util := rng.Intn(len(r.Nodes)), rng.Intn(8), rng.Float64()
					for _, m := range []*energy.Meter{r.Nodes[i].Meter(), twins[i]} {
						switch op {
						case 0:
							m.PowerOff(now)
						case 1:
							m.PowerOn(now)
						default:
							m.SetUtilisation(now, util)
						}
					}
					if step%40 != 0 {
						continue
					}
					at := now + sim.Time(rng.Intn(1000))*sim.Time(time.Millisecond)
					wantState, wantW, wantJ := referenceMeter(r.Nodes, twins, at)
					if got := string(r.Meter.AppendState(nil, at, nil)); got != wantState {
						t.Fatalf("step %d: meter state\n%s\nwant (racks summed in host-name order)\n%s", step, got, wantState)
					}
					if w := r.Meter.TotalWatts(); math.Float64bits(w) != math.Float64bits(wantW) {
						t.Fatalf("step %d: TotalWatts %v, host-name order sums %v", step, w, wantW)
					}
					if j := r.Meter.TotalEnergyJoules(at); math.Float64bits(j) != math.Float64bits(wantJ) {
						t.Fatalf("step %d: TotalEnergyJoules %v, host-name order sums %v", step, j, wantJ)
					}
				}
				touched := 0
				for i := range r.Nodes {
					if r.Nodes[i].Touched() {
						touched++
					}
				}
				if touched == 0 || touched == len(r.Nodes) {
					t.Fatalf("%d of %d hosts touched: the sums must mix meters and idle slots", touched, len(r.Nodes))
				}
			}
		})
	}
}

// TestPlanRefusesRacksNotLaidEndToEnd: the plan's rows are the fabric's
// hosts, found by rack arithmetic, so a topology whose Hosts are not
// its Racks laid end to end is refused, and so is a host whose name is
// not the canonical name of its rack and in-rack index.
func TestPlanRefusesRacksNotLaidEndToEnd(t *testing.T) {
	a, b, c := netsim.NodeID("pi-r00-n00"), netsim.NodeID("pi-r00-n01"), netsim.NodeID("pi-r01-n00")
	skip, short := netsim.NodeID("pi-r00-n02"), netsim.NodeID("pi-r0-n1")
	for _, cse := range []struct {
		name  string
		hosts []netsim.NodeID
		racks [][]netsim.NodeID
		ok    bool
	}{
		{"laid end to end", []netsim.NodeID{a, b, c}, [][]netsim.NodeID{{a, b}, {c}}, true},
		{"racks interleaved", []netsim.NodeID{a, c, b}, [][]netsim.NodeID{{a, b}, {c}}, false},
		{"racks reordered", []netsim.NodeID{c, a, b}, [][]netsim.NodeID{{a, b}, {c}}, false},
		{"host in no rack", []netsim.NodeID{a, b, c}, [][]netsim.NodeID{{a, b}}, false},
		{"rack host not listed", []netsim.NodeID{a, b}, [][]netsim.NodeID{{a, b}, {c}}, false},
		{"index skipped", []netsim.NodeID{a, skip}, [][]netsim.NodeID{{a, skip}}, false},
		{"another rack's name", []netsim.NodeID{a, c}, [][]netsim.NodeID{{a, c}}, false},
		{"unpadded name", []netsim.NodeID{a, short}, [][]netsim.NodeID{{a}, {short}}, false},
	} {
		topo := &topology.Topology{Hosts: cse.hosts, Racks: cse.racks}
		_, err := planFor(topo, make([]int32, len(cse.hosts)))
		if cse.ok && err != nil {
			t.Errorf("%s: refused: %v", cse.name, err)
		}
		if !cse.ok && err == nil {
			t.Errorf("%s: planned", cse.name)
		}
	}
}
