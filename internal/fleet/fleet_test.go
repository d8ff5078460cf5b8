package fleet

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dhcp"
	"repro/internal/dns"
	"repro/internal/hw"
	"repro/internal/netsim"
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

func TestPlanMatchesRegistrationDerivations(t *testing.T) {
	r := assembleFleet(t, Config{Racks: 3, HostsPerRack: 5, Seed: 1})
	plan := r.plan
	if plan.Hosts() != 15 {
		t.Fatalf("plan holds %d hosts, want 15", plan.Hosts())
	}
	for i, hp := range plan.hosts {
		if want := string(r.Topo.Hosts[i]); hp.name != want {
			t.Fatalf("host %d: plan name %s, topology %s", i, hp.name, want)
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

func TestRackShardsAlignToRackBoundaries(t *testing.T) {
	r := assembleFleet(t, Config{Racks: 7, HostsPerRack: 3, Seed: 1})
	plan := r.plan
	for _, workers := range []int{1, 2, 3, 7, 50} {
		spans := rackShards(plan, workers)
		// Spans are contiguous, ordered, and cover every host once.
		next := 0
		for _, span := range spans {
			if span[0] != next {
				t.Fatalf("workers=%d: span starts at %d, want %d", workers, span[0], next)
			}
			next = span[1]
		}
		if next != plan.Hosts() {
			t.Fatalf("workers=%d: spans cover %d of %d hosts", workers, next, plan.Hosts())
		}
		// No span splits a rack.
		for _, span := range spans {
			if plan.hosts[span[0]].idx != 0 {
				t.Fatalf("workers=%d: span %v starts mid-rack", workers, span)
			}
		}
	}
}

func TestLazyTransportServesHTTPPaths(t *testing.T) {
	r := assembleFleet(t, Config{Racks: 1, HostsPerRack: 2, Seed: 1})
	// Metrics is not on the direct fast path: it exercises the lazily
	// built HTTP handler through the dispatch transport.
	node := r.Nodes[0]
	m, err := node.Client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m["cpu_util"]; !ok {
		t.Fatalf("metrics over lazy transport = %v", m)
	}
	// Unknown hosts still error.
	bogus := *node.Client
	bogus.BaseURL = "http://no-such-host"
	if _, err := bogus.Metrics(); err == nil {
		t.Fatal("transport served a host that does not exist")
	}
}

func TestDirectClientSkipsJSONButCounts(t *testing.T) {
	r := assembleFleet(t, Config{Racks: 1, HostsPerRack: 1, Seed: 1})
	node := r.Nodes[0]
	st, err := node.Client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != node.Name {
		t.Fatalf("status for %s, want %s", st.Node, node.Name)
	}
	// Direct calls keep the API-request accounting honest.
	st2, _ := node.Client.Status()
	if st2.APIRequests <= st.APIRequests {
		t.Fatalf("direct status not counted: %d then %d", st.APIRequests, st2.APIRequests)
	}
}

func TestSnapshotRestoreWithSeedOverride(t *testing.T) {
	ResetWarmCache()
	r := assembleFleet(t, Config{Racks: 2, HostsPerRack: 4, Seed: 7})
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
}

func TestWarmCacheKeyedOnShape(t *testing.T) {
	ResetWarmCache()
	base := Config{Racks: 2, HostsPerRack: 3, Seed: 1}
	assembleFleet(t, base)
	if WarmHits() != 0 {
		t.Fatalf("first build hit the warm cache (%d)", WarmHits())
	}
	// Same shape, different seed: warm.
	reseeded := base
	reseeded.Seed = 2
	assembleFleet(t, reseeded)
	if WarmHits() != 1 {
		t.Fatalf("same shape did not warm-boot (hits %d)", WarmHits())
	}
	// Different shape: cold again.
	wider := base
	wider.HostsPerRack = 4
	assembleFleet(t, wider)
	if WarmHits() != 1 {
		t.Fatalf("different shape warm-booted (hits %d)", WarmHits())
	}
	// Different fabric: different shape key.
	leaf := base
	leaf.Fabric = topology.FabricLeafSpine
	assembleFleet(t, leaf)
	if WarmHits() != 1 {
		t.Fatalf("different fabric warm-booted (hits %d)", WarmHits())
	}
}

func TestSerialAndShardedProduceSameRegistry(t *testing.T) {
	for _, fabric := range []topology.Fabric{
		topology.FabricMultiRoot, topology.FabricFatTree, topology.FabricLeafSpine,
	} {
		t.Run(fabric.String(), func(t *testing.T) {
			cfg := Config{Racks: 4, HostsPerRack: 4, Seed: 3, Fabric: fabric}
			serial := assembleFleet(t, SerialBuild(cfg))
			sharded := assembleFleet(t, cfg)
			if len(serial.Nodes) != len(sharded.Nodes) {
				t.Fatalf("node counts differ: %d vs %d", len(serial.Nodes), len(sharded.Nodes))
			}
			for i := range serial.Nodes {
				a, b := serial.Nodes[i], sharded.Nodes[i]
				if a.Name != b.Name || a.Rack != b.Rack || a.Host != b.Host {
					t.Fatalf("node %d differs: %s/r%d vs %s/r%d", i, a.Name, a.Rack, b.Name, b.Rack)
				}
			}
			leaseStr := func(r *Result) string {
				var b strings.Builder
				for _, l := range r.Master.DHCP().Leases() {
					fmt.Fprintf(&b, "%s %s %s %v\n", l.MAC, l.Addr, l.Pool, l.Static)
				}
				return b.String()
			}
			if leaseStr(serial) != leaseStr(sharded) {
				t.Fatal("DHCP registries differ between serial and sharded builds")
			}
			da := fmt.Sprint(serial.Master.DNS().Dump())
			db := fmt.Sprint(sharded.Master.DNS().Dump())
			if da != db {
				t.Fatal("DNS registries differ between serial and sharded builds")
			}
		})
	}
}

// TestFatTreePodShardAlignment pins the pod → rack mapping the fat-tree
// megafleet scenarios rely on: topology racks ARE fat-tree pods and the
// construction plan assigns every host the rack index of its pod, so
// the build's rack-granular shards never split a pod and per-rack
// telemetry (energy groups, rack faults) is per-pod telemetry.
func TestFatTreePodShardAlignment(t *testing.T) {
	cfg := Config{
		Racks: 8, HostsPerRack: 16,
		Fabric: topology.FabricFatTree, FatTreeK: 8,
	}
	r := assembleFleet(t, cfg)
	if got := len(r.Topo.Racks); got != cfg.FatTreeK {
		t.Fatalf("fat-tree topology has %d racks, want one per pod (k=%d)", got, cfg.FatTreeK)
	}
	pods := map[int]bool{}
	for i := range r.plan.hosts {
		hp := &r.plan.hosts[i]
		pod, ok := r.Topo.HostRack[netsim.NodeID(hp.name)]
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
