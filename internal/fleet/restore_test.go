package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pimaster"
	"repro/internal/sdn"
	"repro/internal/topology"
)

// restoreShapes are small fleets of each fabric.
var restoreShapes = []Config{
	{Racks: 3, HostsPerRack: 4, Seed: 1},
	{Racks: 4, HostsPerRack: 4, Fabric: topology.FabricFatTree, FatTreeK: 4, Seed: 1},
	{Racks: 3, HostsPerRack: 3, Fabric: topology.FabricLeafSpine, Seed: 1},
}

// fabricState renders a fleet's network and SDN state.
func fabricState(r *Result) []byte {
	return r.Ctrl.AppendState(r.Net.AppendState(nil, nil), nil)
}

// TestRestoredFleetsShareNoLinkState: fleets restored from one snapshot
// share the source's nodes and topology and own their links, so a link
// downed, shaped or loaded in one leaves its sibling and the source
// untouched.
func TestRestoredFleetsShareNoLinkState(t *testing.T) {
	for _, cfg := range restoreShapes {
		cfg.FillDefaults()
		t.Run(cfg.Fabric.String(), func(t *testing.T) {
			src := assembleFleet(t, cfg)
			var mu sync.Mutex
			a, err := src.Snapshot().Restore(&mu, -1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := src.Snapshot().Restore(&mu, -1)
			if err != nil {
				t.Fatal(err)
			}
			if a.Topo != src.Topo || b.Topo != src.Topo || a.Net.NodeAt(0) != src.Net.NodeAt(0) {
				t.Fatal("a restore rebuilt the topology or the nodes")
			}
			srcState, bState := fabricState(src), fabricState(b)
			if !bytes.Equal(fabricState(a), srcState) || !bytes.Equal(bState, srcState) {
				t.Fatal("a restored fabric's state differs from its source's")
			}
			rack0, rack1 := src.Topo.Racks[0], src.Topo.Racks[1]
			edge := src.Topo.RackEdges[0][0]
			if err := a.Net.SetLinkUp(rack0[0], edge, false); err != nil {
				t.Fatal(err)
			}
			for l := range topology.Uplinks(a.Net, edge) {
				if err := a.Net.ShapeLink(l.From(), l.To(), netsim.Shaping{CapacityScale: 0.5}); err != nil {
					t.Fatal(err)
				}
				break
			}
			path, err := a.Ctrl.PathFor(rack0[1], rack1[1], sdn.PolicyECMP, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Net.StartFlow(netsim.FlowSpec{Src: rack0[1], Dst: rack1[1], Path: path}); err != nil {
				t.Fatal(err)
			}
			if err := a.Engine.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(fabricState(a), srcState) {
				t.Fatal("the restore's own fabric did not change")
			}
			if !bytes.Equal(fabricState(src), srcState) || !bytes.Equal(fabricState(b), bState) {
				t.Fatal("a link changed in one restore moved the source or the sibling")
			}
			if !src.Net.Link(rack0[0], edge).Up() || !b.Net.Link(rack0[0], edge).Up() {
				t.Fatal("a link downed in one restore is down elsewhere")
			}
		})
	}
}

// TestForksAdvanceConcurrently: two fleets restored from one snapshot
// run the same history on two goroutines at once (VM spawns, flows,
// uplink failures and recoveries), reading the shared plan, wiring and
// topology; under -race any write to the shared state is a report. Both
// must end in the same network, SDN and energy state, and the source
// must not move.
func TestForksAdvanceConcurrently(t *testing.T) {
	src := assembleFleet(t, restoreShapes[0])
	snap := src.Snapshot()
	srcState := fabricState(src)
	drive := func(r *Result) error {
		for i := 0; i < 6; i++ {
			if _, err := r.Master.SpawnVM(pimaster.SpawnVMRequest{Name: fmt.Sprintf("vm%d", i), Image: "raspbian"}); err != nil {
				return err
			}
		}
		rng := rand.New(rand.NewSource(5))
		hosts := r.Topo.Hosts
		for step := 0; step < 60; step++ {
			if step%10 == 5 {
				for l := range topology.Uplinks(r.Net, r.Topo.Edge[1]) {
					if err := r.Net.SetLinkUp(l.From(), l.To(), !l.Up()); err != nil {
						return err
					}
					break
				}
			}
			a, b := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			if a == b {
				continue
			}
			path, err := r.Ctrl.PathFor(a, b, sdn.PolicyECMP, uint64(step))
			if err != nil {
				return err
			}
			if _, err := r.Net.StartFlow(netsim.FlowSpec{Src: a, Dst: b, Path: path, SizeBits: float64(1+rng.Intn(20)) * 1e6}); err != nil {
				return err
			}
			if err := r.Engine.RunFor(50 * time.Millisecond); err != nil {
				return err
			}
		}
		return r.Engine.RunFor(10 * time.Second)
	}
	forks := make([]*Result, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range forks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var mu sync.Mutex
			if forks[i], errs[i] = snap.Restore(&mu, -1); errs[i] == nil {
				errs[i] = drive(forks[i])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
	}
	a, b := forks[0], forks[1]
	if a.Net.ActiveFlows() != 0 || a.Engine.Fired() < 100 || len(a.Master.VMs()) != 6 {
		t.Fatalf("history degenerated: %d flows still live, %d events fired, %d VMs", a.Net.ActiveFlows(), a.Engine.Fired(), len(a.Master.VMs()))
	}
	now := a.Engine.Now()
	if !bytes.Equal(fabricState(a), fabricState(b)) || !bytes.Equal(a.Meter.AppendState(nil, now, nil), b.Meter.AppendState(nil, now, nil)) {
		t.Fatal("two forks of one snapshot ran one history to different states")
	}
	if !bytes.Equal(fabricState(src), srcState) {
		t.Fatal("the forks moved the source fleet")
	}
}
