package workload

import (
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

// rig is a small PiCloud slice: 2 racks × 4 hosts, suites everywhere.
type rig struct {
	engine *sim.Engine
	net    *netsim.Network
	topo   *topology.Topology
	ctrl   *sdn.Controller
	suites map[netsim.NodeID]*lxc.Suite
	fabric *Fabric
}

func newRig(t testing.TB) *rig {
	t.Helper()
	e := sim.NewEngine(42)
	topo, w, err := topology.BuildMultiRoot(topology.MultiRootConfig{Racks: 2, HostsPerRack: 4})
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
	return &rig{
		engine: e, net: n, topo: topo, ctrl: ctrl, suites: suites,
		fabric: &Fabric{Engine: e, Net: n, Ctrl: ctrl, Policy: sdn.PolicyECMP},
	}
}

// boot spawns a running container and returns its endpoint.
func (r *rig) boot(t testing.TB, host netsim.NodeID, name, img string) Endpoint {
	t.Helper()
	s := r.suites[host]
	if _, err := s.Create(lxc.Spec{Name: name, Image: img}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(name, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	return Endpoint{Host: host, Suite: s, Container: name}
}

func TestFabricSend(t *testing.T) {
	r := newRig(t)
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	var got error = errNotCalled
	if err := r.fabric.Send(src, dst, hw.MiB, 80, func(err error) { got = err }); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("send result = %v", got)
	}
	if err := r.fabric.Send(src, dst, 0, 80, nil); err == nil {
		t.Fatal("zero-size send accepted")
	}
}

var errNotCalled = &notCalledError{}

type notCalledError struct{}

func (*notCalledError) Error() string { return "callback not invoked" }

func TestWebServerServesRequest(t *testing.T) {
	r := newRig(t)
	ep := r.boot(t, r.topo.Racks[0][0], "web1", "webserver")
	srv, err := NewWebServer(r.fabric, ep, WebServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client := r.topo.Racks[1][0]
	var reqErr error = errNotCalled
	srv.HandleRequest(client, func(e error) { reqErr = e })
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if reqErr != nil {
		t.Fatalf("request failed: %v", reqErr)
	}
	if srv.Served() != 1 || srv.Rejected() != 0 {
		t.Fatalf("served/rejected = %d/%d", srv.Served(), srv.Rejected())
	}
}

func TestWebServerRejectsWhenStopped(t *testing.T) {
	r := newRig(t)
	ep := r.boot(t, r.topo.Racks[0][0], "web1", "webserver")
	srv, err := NewWebServer(r.fabric, ep, WebServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Suite.Stop("web1"); err != nil {
		t.Fatal(err)
	}
	var reqErr error
	srv.HandleRequest(r.topo.Racks[1][0], func(e error) { reqErr = e })
	if reqErr == nil {
		t.Fatal("request to stopped container succeeded")
	}
	if srv.Rejected() != 1 {
		t.Fatalf("rejected = %d", srv.Rejected())
	}
}

func TestNewWebServerValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewWebServer(r.fabric, Endpoint{}, WebServerConfig{}); err == nil {
		t.Fatal("empty endpoint accepted")
	}
}

func TestLoadGenLatencyAndGoodput(t *testing.T) {
	r := newRig(t)
	var servers []*WebServer
	for i, host := range []netsim.NodeID{r.topo.Racks[0][0], r.topo.Racks[0][1]} {
		ep := r.boot(t, host, "web"+string(rune('0'+i)), "webserver")
		srv, err := NewWebServer(r.fabric, ep, WebServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	farm, err := NewWebFarm(servers...)
	if err != nil {
		t.Fatal(err)
	}
	clients := []Endpoint{{Host: r.topo.Racks[1][0]}, {Host: r.topo.Racks[1][1]}}
	gen, err := NewLoadGen(r.fabric, farm, clients, LoadGenConfig{RatePerSecond: 20, Duration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := r.engine.RunFor(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	if gen.Issued < 100 {
		t.Fatalf("issued = %d, want ~200", gen.Issued)
	}
	if gen.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if gen.Failed > 0 {
		t.Fatalf("failed = %d", gen.Failed)
	}
	// Round-robin: both backends served.
	if servers[0].Served() == 0 || servers[1].Served() == 0 {
		t.Fatalf("per-server served = %d/%d", servers[0].Served(), servers[1].Served())
	}
	// A lone 5MI request on an idle Pi ≈ 5.7ms CPU + ~3ms transfer of
	// 32KiB at 100Mb/s; loaded p50 should stay in the tens of ms.
	p50 := gen.Latency.Quantile(0.5)
	if p50 <= 0 || p50 > 1000 {
		t.Fatalf("p50 latency = %vms", p50)
	}
	if gen.GoodputPerSecond() <= 0 {
		t.Fatal("goodput not positive")
	}
}

func TestLoadGenValidation(t *testing.T) {
	r := newRig(t)
	ep := r.boot(t, r.topo.Racks[0][0], "w", "webserver")
	srv, _ := NewWebServer(r.fabric, ep, WebServerConfig{})
	farm, _ := NewWebFarm(srv)
	if _, err := NewWebFarm(); err != ErrNoServers {
		t.Fatalf("empty farm = %v", err)
	}
	if _, err := NewLoadGen(r.fabric, farm, nil, LoadGenConfig{RatePerSecond: 1}); err == nil {
		t.Fatal("no clients accepted")
	}
	if _, err := NewLoadGen(r.fabric, farm, []Endpoint{{Host: "h"}}, LoadGenConfig{}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestMapReduceJob(t *testing.T) {
	r := newRig(t)
	var workers []Endpoint
	for i := 0; i < 4; i++ {
		host := r.topo.Racks[i%2][i/2]
		workers = append(workers, r.boot(t, host, "hd"+string(rune('0'+i)), "hadoop"))
	}
	runner, err := NewMRRunner(r.fabric, workers)
	if err != nil {
		t.Fatal(err)
	}
	var rep MRReport
	got := false
	err = runner.Run(MRJob{Name: "wordcount", Maps: 8, Reduces: 4}, func(rp MRReport) {
		rep = rp
		got = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("job never finished")
	}
	if rep.TaskFailures != 0 {
		t.Fatalf("failures = %d", rep.TaskFailures)
	}
	if rep.Makespan <= 0 || rep.MapPhase <= 0 || rep.ReducePhase <= 0 {
		t.Fatalf("phases = %+v", rep)
	}
	if rep.ShuffledBytes == 0 {
		t.Fatal("no shuffle traffic")
	}
	// Phases are sequential and sum to the makespan.
	sum := rep.MapPhase + rep.ShufflePhase + rep.ReducePhase
	if d := (rep.Makespan - sum).Seconds(); d > 1e-6 || d < -1e-6 {
		t.Fatalf("phases %v do not sum to makespan %v", sum, rep.Makespan)
	}
}

func TestMapReduceValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewMRRunner(r.fabric, nil); err == nil {
		t.Fatal("no workers accepted")
	}
	ep := r.boot(t, r.topo.Racks[0][0], "hd", "hadoop")
	runner, err := NewMRRunner(r.fabric, []Endpoint{ep})
	if err != nil {
		t.Fatal(err)
	}
	if err := runner.Run(MRJob{Name: "bad", Maps: 0, Reduces: 1}, nil); err == nil {
		t.Fatal("zero maps accepted")
	}
}

func TestMapReduceScalesOut(t *testing.T) {
	// The same job on 2 workers vs 4 workers: more workers → shorter
	// makespan (the paper's distributed-computation argument).
	run := func(nWorkers int) time.Duration {
		r := newRig(t)
		var workers []Endpoint
		for i := 0; i < nWorkers; i++ {
			host := r.topo.Hosts[i]
			workers = append(workers, r.boot(t, host, "hd", "hadoop"))
		}
		runner, err := NewMRRunner(r.fabric, workers)
		if err != nil {
			t.Fatal(err)
		}
		var rep MRReport
		if err := runner.Run(MRJob{Name: "scale", Maps: 8, Reduces: 4}, func(rp MRReport) { rep = rp }); err != nil {
			t.Fatal(err)
		}
		if err := r.engine.Run(); err != nil {
			t.Fatal(err)
		}
		return rep.Makespan
	}
	small, large := run(2), run(6)
	if large >= small {
		t.Fatalf("6 workers (%v) not faster than 2 (%v)", large, small)
	}
}

func TestOnOffGenerator(t *testing.T) {
	r := newRig(t)
	gen, err := NewOnOffGenerator(r.fabric, r.topo.Hosts, OnOffConfig{Sources: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := r.engine.RunFor(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	if gen.FlowsStarted == 0 {
		t.Fatal("no bursts generated")
	}
	if gen.FlowsFailed > gen.FlowsStarted/2 {
		t.Fatalf("too many failures: %d/%d", gen.FlowsFailed, gen.FlowsStarted)
	}
	// Traffic actually crossed the fabric.
	if CrossRackBytes(r.net, r.topo.Edge) == 0 {
		t.Fatal("no cross-rack traffic recorded")
	}
}

func TestOnOffValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewOnOffGenerator(r.fabric, r.topo.Hosts[:1], OnOffConfig{Sources: 1}); err == nil {
		t.Fatal("single host accepted")
	}
	if _, err := NewOnOffGenerator(r.fabric, r.topo.Hosts, OnOffConfig{}); err == nil {
		t.Fatal("zero sources accepted")
	}
}

func TestGravityGeneratorVariability(t *testing.T) {
	r := newRig(t)
	gen, err := NewGravityGenerator(r.fabric, r.topo.Racks, GravityConfig{EpochSeconds: 5, FlowsPerEpoch: 10})
	if err != nil {
		t.Fatal(err)
	}
	gen.Start()
	if err := r.engine.RunFor(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	gen.Stop()
	if gen.Epochs < 30 {
		t.Fatalf("epochs = %d", gen.Epochs)
	}
	// Epoch loads must vary — that is the point of the generator.
	if cov := gen.CoV(); cov < 0.05 {
		t.Fatalf("CoV = %v; traffic should be bursty", cov)
	}
}

func TestGravityValidation(t *testing.T) {
	r := newRig(t)
	if _, err := NewGravityGenerator(r.fabric, r.topo.Racks[:1], GravityConfig{}); err == nil {
		t.Fatal("single rack accepted")
	}
}

func BenchmarkLoadGen1000Requests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRig(b)
		ep := r.boot(b, r.topo.Racks[0][0], "w", "webserver")
		srv, err := NewWebServer(r.fabric, ep, WebServerConfig{})
		if err != nil {
			b.Fatal(err)
		}
		farm, err := NewWebFarm(srv)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := NewLoadGen(r.fabric, farm, []Endpoint{{Host: r.topo.Racks[1][0]}}, LoadGenConfig{RatePerSecond: 100, Duration: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		gen.Start()
		if err := r.engine.RunFor(12 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
