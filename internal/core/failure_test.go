package core

// Failure-injection suite: the "murky details of practical DC
// management" (Section IV) — link failures, crashed nodes, migration
// aborts mid-copy, and full-cluster admission pressure.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/pimaster"
	"repro/internal/placement"
	"repro/internal/sdn"
)

func TestLinkFailureBreaksFlowsThenReroutes(t *testing.T) {
	c := newCloud(t, Config{})
	src, dst := c.Topo.Racks[0][0], c.Topo.Racks[1][0]

	c.Mu.Lock()
	path, err := c.Ctrl.PathFor(src, dst, sdn.PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reason netsim.EndReason
	if _, err := c.Net.StartFlow(netsim.FlowSpec{
		Src: src, Dst: dst, Path: path, SizeBits: 1e9,
		OnEnd: func(_ *netsim.Flow, r netsim.EndReason) { reason = r },
	}); err != nil {
		t.Fatal(err)
	}
	agg := c.Net.NodeAt(path[2]).ID
	c.Mu.Unlock()
	if err := c.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	// Fail the uplink the flow rides.
	c.Mu.Lock()
	if err := c.Net.SetLinkUp(c.Topo.Edge[0], agg, false); err != nil {
		t.Fatal(err)
	}
	if reason != netsim.EndLinkDown {
		t.Fatalf("flow end reason = %v, want link-down", reason)
	}
	// New traffic routes around the failure via the other root.
	path2, err := c.Ctrl.PathFor(src, dst, sdn.PolicyShortestPath, 0)
	if err != nil {
		t.Fatalf("no path after single uplink failure: %v", err)
	}
	if c.Net.NodeAt(path2[2]).ID == agg {
		t.Fatal("reroute still uses the failed uplink")
	}
	c.Mu.Unlock()
}

func TestNodeCrashFreesNothingButPlacementAvoidsIt(t *testing.T) {
	c := newCloud(t, Config{Racks: 1, HostsPerRack: 3})
	// A "crash": all containers stop, node powers off.
	victim := c.Nodes()[0]
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "pre", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Master.VM("pre")
	if err != nil {
		t.Fatal(err)
	}
	crashed, _ := c.NodeByName(rec.Node)
	c.Mu.Lock()
	for _, name := range crashed.Suite().List() {
		if err := crashed.Suite().Stop(name); err != nil {
			t.Fatal(err)
		}
	}
	crashed.Meter().PowerOff(c.Engine.Now())
	c.Mu.Unlock()
	_ = victim

	// Subsequent placements land elsewhere.
	for i := 0; i < 4; i++ {
		rec, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{
			Name: "post" + string(rune('a'+i)), Image: "raspbian",
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Node == crashed.Name {
			t.Fatalf("placed on crashed node %s", crashed.Name)
		}
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMigrationAbortsWhenPathDies(t *testing.T) {
	// Cut every inter-rack path mid-copy: the copy flow dies, the
	// migration fails, and the source container must be running again.
	c := newCloud(t, Config{})
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "svc", Image: "webserver"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.Master.VM("svc")
	srcNode, _ := c.NodeByName(rec.Node)
	var dstNode *Node
	for _, n := range c.Nodes() {
		if n.Rack != srcNode.Rack {
			dstNode = n
			break
		}
	}
	// Slow the copy so we can fail it mid-flight: big dirty footprint.
	c.Mu.Lock()
	if err := srcNode.Suite().AllocAppMem("svc", 100*hw.MiB); err != nil {
		t.Fatal(err)
	}
	c.Mu.Unlock()
	var rep migration.Report
	done := false
	err := c.Master.MigrateVM("svc", pimaster.MigrateVMRequest{TargetNode: dstNode.Name},
		func(r migration.Report) { rep = r; done = true })
	if err != nil {
		t.Fatal(err)
	}
	// ~130 MiB over ~100 Mb/s ≈ 11 s; cut the fabric at 2 s.
	if err := c.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	c.Mu.Lock()
	for _, agg := range c.Topo.Agg {
		if err := c.Net.SetLinkUp(c.Topo.Edge[srcNode.Rack], agg, false); err != nil {
			t.Fatal(err)
		}
	}
	c.Mu.Unlock()
	if err := c.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("migration neither finished nor failed")
	}
	if rep.Err == nil {
		t.Fatal("migration should have failed when the fabric died")
	}
	// Source still serves.
	c.Mu.Lock()
	cont, err := srcNode.Suite().Get("svc")
	c.Mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := cont.State().String(); got != "RUNNING" {
		t.Fatalf("source state after aborted migration = %s", got)
	}
	// Standby cleaned up on the destination.
	c.Mu.Lock()
	_, derr := dstNode.Suite().Get("svc")
	c.Mu.Unlock()
	if derr == nil {
		t.Fatal("destination standby survived the aborted migration")
	}
}

func TestClusterAdmissionPressure(t *testing.T) {
	// Fill the whole 1-rack cloud to its comfortable density, then watch
	// rejection behave: ErrNoCapacity, no partial state.
	c := newCloud(t, Config{Racks: 1, HostsPerRack: 4})
	capacity := 4 * 3
	for i := 0; i < capacity; i++ {
		if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{
			Name: "vm" + string(rune('a'+i)), Image: "raspbian",
		}); err != nil {
			t.Fatalf("spawn %d within capacity failed: %v", i, err)
		}
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	leases := len(c.Master.DHCP().Leases())
	recs := c.Master.DNS().RecordCount()
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "overflow", Image: "raspbian"}); !errors.Is(err, placement.ErrNoCapacity) {
		t.Fatalf("overflow spawn = %v", err)
	}
	if len(c.Master.DHCP().Leases()) != leases || c.Master.DNS().RecordCount() != recs {
		t.Fatal("rejected spawn leaked DHCP or DNS state")
	}
	// Destroy one; admission resumes.
	if err := c.Master.DestroyVM("vma"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "overflow", Image: "raspbian"}); err != nil {
		t.Fatalf("spawn after destroy: %v", err)
	}
}

func TestDeterministicCloudRuns(t *testing.T) {
	// Two clouds with the same seed and operations end in the same
	// virtual state; a different seed diverges in RNG-driven paths.
	run := func(seed int64) (string, float64) {
		c := newCloud(t, Config{Racks: 2, HostsPerRack: 3, Seed: seed})
		rec, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "d", Image: "webserver"})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.RunFor(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		return rec.Node, c.PowerDraw()
	}
	n1, p1 := run(42)
	n2, p2 := run(42)
	if n1 != n2 || p1 != p2 {
		t.Fatalf("same seed diverged: %s/%v vs %s/%v", n1, p1, n2, p2)
	}
}
