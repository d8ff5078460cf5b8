package fleet

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

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
// cable pairs and one of hop entries, a link's flow state made by its
// first flow), no host stamped (each host boots on its first touch, one
// object then, and its meter is an idle slot until it does), one record
// per host (pimaster's NodeRef, written by value into one slice, with
// no per-host REST client or client URL) and naming answered from the
// plan's rows (no DNS record, DHCP lease or pimaster map entry per
// host, and host names, FQDNs and MACs built without fmt, each kind cut
// from one string). Before those changes a k=16 fat-tree build made
// 43.8 objects per host and the published 4×14 tree 39.2; with every
// row still filed into DNS and DHCP they made 21.4 and 22.4, with five
// objects stamped per host 16.1 and 16.3, with every host stamped into
// one slab but a node, a cable pair and a hop array still allocated one
// at a time 11.1 and 11.4, with an FQDN and a MAC string formatted per
// row 3.1 and 6.0, with every host stamped into one slab 1.1 and 4.1;
// now 0.96 and 3.84.
func TestColdBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const perHost = 4
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
// makes per host, and the bytes it allocates per host on
// megafleet-10000's shape. The plan is shared, and pimaster attaches
// its rows to DNS and DHCP instead of filing two records, a lease and
// two map entries per host. The restore runs no topology builder: it
// wires its links from the plan's wiring in bulk and shares the nodes,
// their name index and the topology, and it stamps no host: each boots
// on its first touch. What remains grows with the switches and racks,
// not the hosts. With every row filed, a restore made 19.3 objects per
// host (k=16) and 19.2 (4×14); with the fabric rebuilt and five
// objects stamped per host, 14.0 and 12.9; with every host stamped
// into one slab 0.55 and 1.7, and 634 bytes a host at 40×250; now
// 0.46 and 1.46, and 305 bytes.
func TestWarmRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const perHost, bytesPerHost = 2, 350
	megafleet := Config{Seed: 113, Racks: 40, HostsPerRack: 250, AggSwitches: 8}
	var mu sync.Mutex
	r, err := Assemble(megafleet, &mu)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	const restores = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < restores; i++ {
		if _, err := snap.Restore(&mu, -1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / restores / uint64(len(r.Nodes)); got > bytesPerHost {
		t.Errorf("a restore of %d hosts allocates %d bytes per host; want at most %d", len(r.Nodes), got, bytesPerHost)
	}
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

// TestHostSlabEntry: a booted host, one allocation made on its first
// touch (it was an entry of a slab stamped for every host), holds only
// what every host uses. Its kernel points at the template's board
// instead of copying the 112-byte hw.BoardSpec, and its daemon's three
// monitoring series are made by the first StartSampling; with both in
// the entry it was 528 bytes. It also holds pimaster's record of it,
// the daemon's handle and a poll count.
func TestHostSlabEntry(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit platforms")
	}
	if size := unsafe.Sizeof(host{}); size > 336 {
		t.Fatalf("a host's slab entry is %d bytes, want at most 336", size)
	}
}

// TestStampedKernelsShareTheBoard: every kernel of a fleet reads the
// one board its template validated.
func TestStampedKernelsShareTheBoard(t *testing.T) {
	r := assembleFleet(t, Config{Racks: 2, HostsPerRack: 3, Seed: 1})
	board := func(n *Node) uintptr {
		return reflect.ValueOf(n.Suite().Kernel()).Elem().FieldByName("spec").Pointer()
	}
	first := board(&r.Nodes[0])
	for i := range r.Nodes {
		if got := board(&r.Nodes[i]); got != first {
			t.Fatalf("host %s's kernel has a board of its own", r.Nodes[i].Name)
		}
		if r.Nodes[i].Suite().Kernel().Spec() != r.Config.Board {
			t.Fatalf("host %s's kernel runs on %+v", r.Nodes[i].Name, r.Nodes[i].Suite().Kernel().Spec())
		}
	}
}

// TestColdBuildLiveBytes pins the live heap a cold build leaves per
// host, after a GC: the fabric's cable pairs and hop arrays, the plan
// and pimaster, and no host state: every host is its plan row until
// something touches it. A link leg carrying its flow state and a host
// slab entry carrying its board and monitoring series left 1,888 bytes
// a host at k=16, a list of the links beside their slab 1,414 and a
// slab of every host stamped 1,366; now about 1,045.
func TestColdBuildLiveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes differ under the race detector")
	}
	const perHost = 1100
	cfg := allocShapes[0].cfg
	var mu sync.Mutex
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := Assemble(cfg, &mu)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if got := live / int64(len(r.Nodes)); got > perHost {
		t.Errorf("a cold build of %d hosts leaves %d live bytes, %d per host; want at most %d",
			len(r.Nodes), live, got, perHost)
	}
}
