package p2p

import (
	"errors"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sdn"
	"repro/internal/sim"
	"repro/internal/topology"
)

// rig is a PiCloud fabric with a gossip mesh over every host.
type rig struct {
	engine *sim.Engine
	net    *netsim.Network
	topo   *topology.Topology
	mesh   *Mesh
}

func newRig(t testing.TB, racks, hostsPerRack int, cfg Config) *rig {
	t.Helper()
	e := sim.NewEngine(99)
	topo, w, err := topology.BuildMultiRoot(topology.MultiRootConfig{Racks: racks, HostsPerRack: hostsPerRack})
	if err != nil {
		t.Fatal(err)
	}
	n := netsim.Wire(e, w)
	ctrl := sdn.NewController(e, n)
	for _, id := range topo.Switches() {
		ctrl.RegisterSwitch(openflow.NewSwitch(id, e))
	}
	return &rig{engine: e, net: n, topo: topo, mesh: NewMesh(e, n, ctrl, cfg)}
}

func (r *rig) joinAll(t testing.TB) {
	t.Helper()
	for _, h := range r.topo.Hosts {
		if _, err := r.mesh.Join(h); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMembershipConverges(t *testing.T) {
	r := newRig(t, 4, 14, Config{})
	r.joinAll(t)
	if err := r.engine.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	total := len(r.topo.Hosts)
	converged := r.mesh.ConvergedViews(total)
	if converged != total {
		t.Fatalf("after 30s only %d/%d agents see the full membership", converged, total)
	}
}

func TestConvergenceSpeedLogarithmic(t *testing.T) {
	// Epidemic dissemination should reach all 56 nodes in well under a
	// minute at 1 round/s with fanout 2.
	r := newRig(t, 4, 14, Config{})
	r.joinAll(t)
	deadline := 20 * time.Second
	if err := r.engine.RunFor(deadline); err != nil {
		t.Fatal(err)
	}
	if got := r.mesh.ConvergedViews(len(r.topo.Hosts)); got < len(r.topo.Hosts)*9/10 {
		t.Fatalf("after %v only %d/%d converged", deadline, got, len(r.topo.Hosts))
	}
}

func TestFailureDetection(t *testing.T) {
	r := newRig(t, 2, 4, Config{})
	r.joinAll(t)
	if err := r.engine.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := r.topo.Hosts[3]
	r.mesh.Stop(victim)
	// Heartbeats stop; within DeadAfter (10s) plus slack every live
	// agent marks it dead.
	if err := r.engine.RunFor(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, h := range r.topo.Hosts {
		if h == victim {
			continue
		}
		a := r.mesh.Agent(h)
		if st := a.Members()[victim]; st != StatusDead {
			t.Fatalf("agent %s sees %s as %s, want dead", h, victim, st)
		}
		if a.AliveCount() != len(r.topo.Hosts)-1 {
			t.Fatalf("agent %s alive count = %d", h, a.AliveCount())
		}
	}
}

func TestSuspectBeforeDead(t *testing.T) {
	r := newRig(t, 1, 4, Config{SuspectAfter: 5 * time.Second, DeadAfter: 60 * time.Second})
	r.joinAll(t)
	if err := r.engine.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	victim := r.topo.Hosts[2]
	r.mesh.Stop(victim)
	if err := r.engine.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	a := r.mesh.Agent(r.topo.Hosts[0])
	if st := a.Members()[victim]; st != StatusSuspect {
		t.Fatalf("status = %s, want suspect (before DeadAfter)", st)
	}
}

func TestDecentralisedPlacement(t *testing.T) {
	r := newRig(t, 2, 3, Config{})
	r.joinAll(t)
	// Publish loads: host 0 nearly full, the rest roomy.
	for i, h := range r.topo.Hosts {
		a := r.mesh.Agent(h)
		used := int64(60 * hw.MiB)
		if i == 0 {
			used = 240 * hw.MiB
		}
		a.SetLoad(Load{MemUsed: used, MemTotal: 256 * hw.MiB, Containers: i % 2})
	}
	if err := r.engine.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Any agent can answer placement; the full host never wins.
	for _, h := range r.topo.Hosts {
		got, err := r.mesh.Agent(h).Place(PlaceRequest{MemBytes: 30 * hw.MiB, MaxContainers: 3})
		if err != nil {
			t.Fatalf("agent %s: %v", h, err)
		}
		if got == r.topo.Hosts[0] {
			t.Fatalf("agent %s placed on the full host", h)
		}
	}
}

func TestPlacementRespectsLimits(t *testing.T) {
	r := newRig(t, 1, 2, Config{})
	r.joinAll(t)
	for _, h := range r.topo.Hosts {
		r.mesh.Agent(h).SetLoad(Load{MemUsed: 250 * hw.MiB, MemTotal: 256 * hw.MiB})
	}
	if err := r.engine.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	a := r.mesh.Agent(r.topo.Hosts[0])
	if _, err := a.Place(PlaceRequest{MemBytes: 30 * hw.MiB}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("placement on full mesh = %v", err)
	}
	// Container cap.
	for _, h := range r.topo.Hosts {
		r.mesh.Agent(h).SetLoad(Load{MemUsed: 60 * hw.MiB, MemTotal: 256 * hw.MiB, Containers: 3})
	}
	if err := r.engine.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Place(PlaceRequest{MemBytes: hw.MiB, MaxContainers: 3}); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("placement over container cap = %v", err)
	}
}

func TestPlacementAvoidsDeadNodes(t *testing.T) {
	r := newRig(t, 1, 3, Config{})
	r.joinAll(t)
	// The emptiest node will die.
	r.mesh.Agent(r.topo.Hosts[0]).SetLoad(Load{MemUsed: 200 * hw.MiB, MemTotal: 256 * hw.MiB})
	r.mesh.Agent(r.topo.Hosts[1]).SetLoad(Load{MemUsed: 48 * hw.MiB, MemTotal: 256 * hw.MiB})
	r.mesh.Agent(r.topo.Hosts[2]).SetLoad(Load{MemUsed: 100 * hw.MiB, MemTotal: 256 * hw.MiB})
	if err := r.engine.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.mesh.Stop(r.topo.Hosts[1])
	if err := r.engine.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := r.mesh.Agent(r.topo.Hosts[0]).Place(PlaceRequest{MemBytes: 10 * hw.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if got == r.topo.Hosts[1] {
		t.Fatal("placed on a dead node")
	}
}

func TestStoppedAgentRefusesQueries(t *testing.T) {
	r := newRig(t, 1, 2, Config{})
	r.joinAll(t)
	r.mesh.Stop(r.topo.Hosts[0])
	if _, err := r.mesh.Agent(r.topo.Hosts[0]).Place(PlaceRequest{MemBytes: 1}); !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped agent = %v", err)
	}
	if r.mesh.LiveAgents() != 1 {
		t.Fatalf("live agents = %d", r.mesh.LiveAgents())
	}
}

func TestDoubleJoinRejected(t *testing.T) {
	r := newRig(t, 1, 2, Config{})
	if _, err := r.mesh.Join(r.topo.Hosts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := r.mesh.Join(r.topo.Hosts[0]); err == nil {
		t.Fatal("double join accepted")
	}
}

func TestGossipTrafficBounded(t *testing.T) {
	r := newRig(t, 2, 4, Config{})
	r.joinAll(t)
	if err := r.engine.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Fanout 2 push–pull at 1 round/s for 60s: 2 pushes plus ~2 replies
	// per round, bounded by ~4/round + probe slack.
	for _, h := range r.topo.Hosts {
		a := r.mesh.Agent(h)
		if a.DigestsSent() > 280 {
			t.Fatalf("agent %s sent %d digests; protocol too chatty", h, a.DigestsSent())
		}
		if a.DigestsReceived() == 0 {
			t.Fatalf("agent %s received nothing", h)
		}
	}
}

func TestPartitionHealsAfterLinkRepair(t *testing.T) {
	r := newRig(t, 2, 3, Config{})
	r.joinAll(t)
	if err := r.engine.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Partition rack 1 by cutting its ToR uplinks.
	for _, agg := range r.topo.Agg {
		if err := r.net.SetLinkUp(r.topo.Edge[1], agg, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.engine.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Rack-0 agents mark rack-1 dead.
	a0 := r.mesh.Agent(r.topo.Racks[0][0])
	for _, h := range r.topo.Racks[1] {
		if st := a0.Members()[h]; st != StatusDead {
			t.Fatalf("partitioned host %s seen as %s", h, st)
		}
	}
	// Heal, and the membership recovers.
	for _, agg := range r.topo.Agg {
		if err := r.net.SetLinkUp(r.topo.Edge[1], agg, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.engine.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := a0.AliveCount(); got != len(r.topo.Hosts) {
		t.Fatalf("after heal alive = %d, want %d", got, len(r.topo.Hosts))
	}
}

func TestStatusString(t *testing.T) {
	if StatusAlive.String() != "alive" || StatusSuspect.String() != "suspect" || StatusDead.String() != "dead" {
		t.Error("status strings wrong")
	}
}

func BenchmarkGossipRound56Agents(b *testing.B) {
	r := newRig(b, 4, 14, Config{})
	r.joinAll(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.engine.RunFor(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
