package fleet

import (
	"sync"
	"testing"

	"repro/internal/topology"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestColdBuildAllocs pins the heap objects a cold fleet build makes per
// host: fabric wiring (both legs of a cable in one object, flow sets
// made on first use, an index-keyed link table), template stamping (no
// empty maps per host) and bulk registration (registries sized once,
// one pool name per rack, records built without a format-then-parse
// round trip), and one record per host (pimaster's NodeRef, stamped
// by value into one slice, with no per-host REST client or client URL).
// Before those changes a k=16 fat-tree build made 43.8 objects per host
// and the published 4×14 tree 39.2.
func TestColdBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const perHost = 24
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"fat-tree k=16", Config{Racks: 16, HostsPerRack: 64, Fabric: topology.FabricFatTree, FatTreeK: 16, Seed: 1}},
		{"published 4x14 multi-root", Config{Seed: 1}},
	}
	for _, s := range shapes {
		var mu sync.Mutex
		hosts := 0
		allocs := testing.AllocsPerRun(3, func() {
			ResetWarmCache()
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
