package migration

import (
	"errors"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/image"
	"repro/internal/lxc"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/oslinux"
	"repro/internal/sdn"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rig is a two-rack PiCloud slice with suites on every host.
type rig struct {
	engine *sim.Engine
	net    *netsim.Network
	topo   *topology.Topology
	ctrl   *sdn.Controller
	suites map[netsim.NodeID]*lxc.Suite
	mgr    *Manager
}

func newRig(t testing.TB, cfg Config) *rig {
	t.Helper()
	e := sim.NewEngine(1)
	topo, w, err := topology.BuildMultiRoot(topology.MultiRootConfig{Racks: 2, HostsPerRack: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := sdn.NewController(e, n)
	for _, id := range topo.Switches() {
		ctrl.RegisterSwitch(openflow.NewSwitch(id, e))
	}
	store := image.StockImages()
	suites := make(map[netsim.NodeID]*lxc.Suite)
	for _, h := range topo.Hosts {
		k, err := oslinux.NewKernel(e, hw.PiModelB(), string(h))
		if err != nil {
			t.Fatal(err)
		}
		suites[h] = lxc.NewSuite(e, k, store)
	}
	return &rig{engine: e, net: n, topo: topo, ctrl: ctrl, suites: suites, mgr: NewManager(e, n, ctrl, cfg)}
}

// spawn boots a container on host.
func (r *rig) spawn(t testing.TB, host netsim.NodeID, name string) {
	t.Helper()
	s := r.suites[host]
	if _, err := s.Create(lxc.Spec{Name: name, Image: "webserver"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(name, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationIdleContainer(t *testing.T) {
	r := newRig(t, Config{})
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	r.spawn(t, src, "web1")

	var rep Report
	done := false
	err := r.mgr.Migrate(Request{
		Container: "web1",
		SrcHost:   src, DstHost: dst,
		SrcSuite: r.suites[src], DstSuite: r.suites[dst],
		Routing: RoutingIP,
		OnDone:  func(rp Report) { rep = rp; done = true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("migration never completed")
	}
	if rep.Err != nil {
		t.Fatalf("migration failed: %v", rep.Err)
	}
	if !rep.Converged {
		t.Fatal("idle container should converge")
	}
	// Idle container: 30MiB RSS, no dirtying → one round then instant
	// stop-and-copy.
	if rep.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", rep.Iterations)
	}
	if rep.TotalBytes != 30*hw.MiB {
		t.Fatalf("copied %d bytes, want 30MiB", rep.TotalBytes)
	}
	// Downtime is just the switchover overhead (50ms default).
	if rep.Downtime != 50*time.Millisecond {
		t.Fatalf("downtime = %v, want 50ms", rep.Downtime)
	}
	// Source gone, destination running.
	if _, err := r.suites[src].Get("web1"); !errors.Is(err, lxc.ErrNotFound) {
		t.Fatal("source container survived")
	}
	c, err := r.suites[dst].Get("web1")
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != lxc.StateRunning {
		t.Fatalf("destination state = %v", c.State())
	}
}

func TestMigrationDirtyingConverges(t *testing.T) {
	r := newRig(t, Config{})
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	r.spawn(t, src, "db1")
	// Dirty at 1MiB/s; the 100Mb/s link copies ~12.5MiB/s, so pre-copy
	// shrinks the working set geometrically.
	c, _ := r.suites[src].Get("db1")
	if err := r.suites[src].Kernel().SetDirtyRate(c.CgroupName(), float64(hw.MiB)); err != nil {
		t.Fatal(err)
	}
	var rep Report
	err := r.mgr.Migrate(Request{
		Container: "db1", SrcHost: src, DstHost: dst,
		SrcSuite: r.suites[src], DstSuite: r.suites[dst],
		Routing: RoutingIP,
		OnDone:  func(rp Report) { rep = rp },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("migration failed: %v", rep.Err)
	}
	if !rep.Converged {
		t.Fatal("should converge: copy rate >> dirty rate")
	}
	if rep.Iterations < 2 {
		t.Fatalf("iterations = %d, want ≥2 with dirtying", rep.Iterations)
	}
	if rep.TotalBytes <= 30*hw.MiB {
		t.Fatal("total bytes should exceed RSS when pages re-dirty")
	}
	// Destination inherits the dirty rate.
	dc, err := r.suites[dst].Get("db1")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.suites[dst].Kernel().CGroup(dc.CgroupName()).DirtyRateBytesPerS(); got != float64(hw.MiB) {
		t.Fatalf("destination dirty rate = %v", got)
	}
}

func TestMigrationNonConvergentForcedStop(t *testing.T) {
	r := newRig(t, Config{MaxIterations: 4})
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	r.spawn(t, src, "hot")
	c, _ := r.suites[src].Get("hot")
	// Dirty faster than the ~12.5MiB/s the link can copy.
	if err := r.suites[src].Kernel().SetDirtyRate(c.CgroupName(), 100*float64(hw.MiB)); err != nil {
		t.Fatal(err)
	}
	var rep Report
	err := r.mgr.Migrate(Request{
		Container: "hot", SrcHost: src, DstHost: dst,
		SrcSuite: r.suites[src], DstSuite: r.suites[dst],
		Routing: RoutingIP,
		OnDone:  func(rp Report) { rep = rp },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("migration failed: %v", rep.Err)
	}
	if rep.Converged {
		t.Fatal("hot container should not converge")
	}
	if rep.Iterations != 4 {
		t.Fatalf("iterations = %d, want MaxIterations=4", rep.Iterations)
	}
	// Forced stop ships a full working set: long downtime.
	if rep.Downtime < time.Second {
		t.Fatalf("downtime = %v; forced stop should be seconds", rep.Downtime)
	}
}

func TestLabelRoutingKeepsFlowsAlive(t *testing.T) {
	r := newRig(t, Config{})
	client := r.topo.Racks[0][1]
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	r.spawn(t, src, "svc")
	label := r.ctrl.AssignLabel("svc", src)

	// A long-lived client flow to the service.
	path, err := r.ctrl.PathFor(client, src, sdn.PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flowEnd netsim.EndReason
	flow, err := r.net.StartFlow(netsim.FlowSpec{
		Src: client, Dst: src, Path: path,
		OnEnd: func(_ *netsim.Flow, reason netsim.EndReason) { flowEnd = reason },
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	err = r.mgr.Migrate(Request{
		Container: "svc", SrcHost: src, DstHost: dst,
		SrcSuite: r.suites[src], DstSuite: r.suites[dst],
		Routing: RoutingLabel, Label: label,
		LiveFlows: []*netsim.Flow{flow},
		OnDone:    func(rp Report) { rep = rp },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("migration failed: %v", rep.Err)
	}
	if rep.FlowsRerouted != 1 || rep.FlowsBroken != 0 {
		t.Fatalf("rerouted/broken = %d/%d, want 1/0", rep.FlowsRerouted, rep.FlowsBroken)
	}
	if ended, _ := flow.Ended(); ended {
		t.Fatalf("label-routed flow died during migration: %v", flowEnd)
	}
	// The flow now terminates at the new host.
	if l := r.net.Link(r.topo.Edge[1], dst); l.FlowCount() != 1 {
		t.Fatalf("the link into the new host %s carries %d flows, want the re-routed one", dst, l.FlowCount())
	}
	// Label resolves to the new host.
	if h, _ := r.ctrl.HostOfLabel(label); h != dst {
		t.Fatalf("label points at %s, want %s", h, dst)
	}
}

func TestIPRoutingBreaksFlows(t *testing.T) {
	r := newRig(t, Config{})
	client := r.topo.Racks[0][1]
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	r.spawn(t, src, "svc")
	path, err := r.ctrl.PathFor(client, src, sdn.PolicyShortestPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	var flowEnd netsim.EndReason
	flow, err := r.net.StartFlow(netsim.FlowSpec{
		Src: client, Dst: src, Path: path,
		OnEnd: func(_ *netsim.Flow, reason netsim.EndReason) { flowEnd = reason },
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	err = r.mgr.Migrate(Request{
		Container: "svc", SrcHost: src, DstHost: dst,
		SrcSuite: r.suites[src], DstSuite: r.suites[dst],
		Routing:   RoutingIP,
		LiveFlows: []*netsim.Flow{flow},
		OnDone:    func(rp Report) { rep = rp },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.RunFor(time.Minute); err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("migration failed: %v", rep.Err)
	}
	if rep.FlowsBroken != 1 || rep.FlowsRerouted != 0 {
		t.Fatalf("rerouted/broken = %d/%d, want 0/1", rep.FlowsRerouted, rep.FlowsBroken)
	}
	if ended, _ := flow.Ended(); !ended {
		t.Fatal("ip-routed flow survived migration")
	}
	_ = flowEnd
}

func TestMigrateValidation(t *testing.T) {
	r := newRig(t, Config{})
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	r.spawn(t, src, "c")
	cases := []struct {
		name string
		req  Request
	}{
		{"no container", Request{SrcHost: src, DstHost: dst, SrcSuite: r.suites[src], DstSuite: r.suites[dst]}},
		{"same host", Request{Container: "c", SrcHost: src, DstHost: src, SrcSuite: r.suites[src], DstSuite: r.suites[src]}},
		{"label without label", Request{Container: "c", SrcHost: src, DstHost: dst, SrcSuite: r.suites[src], DstSuite: r.suites[dst], Routing: RoutingLabel}},
		{"missing container", Request{Container: "ghost", SrcHost: src, DstHost: dst, SrcSuite: r.suites[src], DstSuite: r.suites[dst], Routing: RoutingIP}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := r.mgr.Migrate(c.req); err == nil {
				t.Fatalf("Migrate accepted %s", c.name)
			}
		})
	}
}

func TestMigrateBusyRejected(t *testing.T) {
	r := newRig(t, Config{})
	src, dst, dst2 := r.topo.Racks[0][0], r.topo.Racks[1][0], r.topo.Racks[1][1]
	r.spawn(t, src, "c")
	req := Request{
		Container: "c", SrcHost: src, DstHost: dst,
		SrcSuite: r.suites[src], DstSuite: r.suites[dst], Routing: RoutingIP,
	}
	if err := r.mgr.Migrate(req); err != nil {
		t.Fatal(err)
	}
	req2 := req
	req2.DstHost = dst2
	req2.DstSuite = r.suites[dst2]
	if err := r.mgr.Migrate(req2); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent migrate = %v", err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationFailureThawsSource(t *testing.T) {
	r := newRig(t, Config{})
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	r.spawn(t, src, "c")
	// Fill the destination's memory so the app-memory mirror fails at
	// switchover.
	if err := r.suites[src].AllocAppMem("c", 100*hw.MiB); err != nil {
		t.Fatal(err)
	}
	dk := r.suites[dst].Kernel()
	if _, err := dk.CreateCGroup("hog", oslinux.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := dk.Alloc("hog", dk.MemAvailable()-40*hw.MiB); err != nil {
		t.Fatal(err)
	}
	var rep Report
	err := r.mgr.Migrate(Request{
		Container: "c", SrcHost: src, DstHost: dst,
		SrcSuite: r.suites[src], DstSuite: r.suites[dst],
		Routing: RoutingIP,
		OnDone:  func(rp Report) { rep = rp },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil {
		t.Fatal("migration should have failed on destination memory")
	}
	// Source thawed and still running; standby cleaned up.
	c, err := r.suites[src].Get("c")
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != lxc.StateRunning {
		t.Fatalf("source state = %v, want RUNNING after failed migration", c.State())
	}
	if _, err := r.suites[dst].Get("c"); !errors.Is(err, lxc.ErrNotFound) {
		t.Fatal("destination standby survived failure")
	}
}

func TestRoutingModeString(t *testing.T) {
	if RoutingIP.String() != "ip-routed" || RoutingLabel.String() != "label-routed" {
		t.Error("routing mode strings wrong")
	}
}
