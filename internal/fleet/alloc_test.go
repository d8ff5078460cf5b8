package fleet

import (
	"sync"
	"testing"

	"repro/internal/topology"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// allocShapes are the fleets whose per-host heap objects are pinned.
var allocShapes = []struct {
	name string
	cfg  Config
}{
	{"fat-tree k=16", Config{Racks: 16, HostsPerRack: 64, Fabric: topology.FabricFatTree, FatTreeK: 16, Seed: 1}},
	{"published 4x14 multi-root", Config{Seed: 1}},
}

// TestColdBuildAllocs pins the heap objects a cold fleet build makes per
// host: fabric wiring (the topology builder records nodes in one slab
// and cables by index, host names are cut from one string, and the
// network is wired from that in bulk, as a restore's is: one slab of
// cable pairs and one of hop entries, flow sets made on first use),
// template stamping (no empty maps per host, every host's kernel,
// meter, suite and daemon in one slab, the meter observing the kernel
// without a closure), one record per host (pimaster's NodeRef, stamped
// by value into one slice, with no per-host REST client or client URL)
// and naming answered from the plan's rows (no DNS record, DHCP lease
// or pimaster map entry per host, and host names, FQDNs and MACs built
// without fmt). Before those changes a k=16 fat-tree build made 43.8
// objects per host and the published 4×14 tree 39.2; with every row
// still filed into DNS and DHCP they made 21.4 and 22.4, with five
// objects stamped per host 16.1 and 16.3, with the slab 11.1 and 11.4,
// and with a node, a cable pair and a hop array allocated one at a
// time; now 3.1 and 6.0.
func TestColdBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const perHost = 8
	for _, s := range allocShapes {
		var mu sync.Mutex
		hosts := 0
		allocs := testing.AllocsPerRun(3, func() {
			r, err := Assemble(s.cfg, &mu)
			if err != nil {
				t.Fatal(err)
			}
			hosts = len(r.Nodes)
		})
		if got := allocs / float64(hosts); got > perHost {
			t.Errorf("%s: a cold build makes %.0f objects for %d hosts, %.2f per host; want at most %d",
				s.name, allocs, hosts, got, perHost)
		}
	}
}

// TestWarmRestoreAllocs pins the heap objects a fork's Snapshot.Restore
// makes per host. The plan is shared, and pimaster attaches its rows
// to DNS and DHCP instead of filing two records, a lease and two map
// entries per host. The restore runs no topology builder: it wires
// its links from the plan's wiring in bulk and shares the nodes, their
// name index and the topology, and it stamps every host into one
// slab. What remains grows with the switches and racks, not
// the hosts. With every row filed, a restore made 19.3 objects per
// host (k=16) and 19.2 (4×14); with the fabric rebuilt and five
// objects stamped per host, 14.0 and 12.9; now 0.55 and 1.7.
func TestWarmRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const perHost = 4
	for _, s := range allocShapes {
		var mu sync.Mutex
		r, err := Assemble(s.cfg, &mu)
		if err != nil {
			t.Fatal(err)
		}
		snap := r.Snapshot()
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := snap.Restore(&mu, -1); err != nil {
				t.Fatal(err)
			}
		})
		if got := allocs / float64(len(r.Nodes)); got > perHost {
			t.Errorf("%s: a restore makes %.0f objects for %d hosts, %.2f per host; want at most %d",
				s.name, allocs, len(r.Nodes), got, perHost)
		}
	}
}
