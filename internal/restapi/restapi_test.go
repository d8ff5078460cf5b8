package restapi

import (
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/image"
	"repro/internal/lxc"
	"repro/internal/oslinux"
	"repro/internal/sim"
)

// rig is one node daemon behind a real HTTP test server.
type rig struct {
	mu     sync.Mutex
	engine *sim.Engine
	suite  *lxc.Suite
	meter  *energy.Meter
	daemon *Daemon
	server *httptest.Server
	client *Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{engine: sim.NewEngine(1)}
	k, err := oslinux.NewKernel(r.engine, hw.PiModelB(), "pi-r00-n00")
	if err != nil {
		t.Fatal(err)
	}
	r.suite = lxc.NewSuite(r.engine, k, image.StockImages())
	r.meter = energy.NewMeter(hw.PiModelB().Power, 0)
	r.meter.PowerOn(0)
	k.OnUtilChange(r.meter)
	r.daemon = New(&r.mu, r.engine, "pi-r00-n00", 0, r.suite, r.meter)
	r.server = httptest.NewServer(r.daemon.Handler())
	t.Cleanup(r.server.Close)
	r.client = NewClient(r.server.URL, r.server.Client())
	return r
}

// settle advances the simulation until quiet (boots finish).
func (r *rig) settle(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStatusEndpoint(t *testing.T) {
	r := newRig(t)
	st, err := r.client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "pi-r00-n00" {
		t.Fatalf("node = %s", st.Node)
	}
	if st.Model != "raspberry-pi-model-b" || st.Arch != "armv6" {
		t.Fatalf("model/arch = %s/%s", st.Model, st.Arch)
	}
	if st.MemTotal != 256*hw.MiB {
		t.Fatalf("mem total = %d", st.MemTotal)
	}
	if st.MaxComfort != 3 {
		t.Fatalf("max comfortable = %d, paper says 3", st.MaxComfort)
	}
	if !st.PoweredOn || st.PowerWatts <= 0 {
		t.Fatalf("power = %v/%v", st.PoweredOn, st.PowerWatts)
	}
	if st.APIRequests == 0 {
		t.Fatal("request counter not ticking")
	}
}

func TestSpawnLifecycleOverHTTP(t *testing.T) {
	r := newRig(t)
	doc, err := r.client.Spawn(SpawnRequest{Name: "web1", Image: "webserver"})
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != "STARTING" {
		t.Fatalf("spawn state = %s, want STARTING (202 semantics)", doc.State)
	}
	r.settle(t)
	doc, err = r.client.Container("web1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != "RUNNING" {
		t.Fatalf("state = %s", doc.State)
	}
	if doc.MemBytes != 30*hw.MiB {
		t.Fatalf("mem = %d, want 30MiB idle RSS", doc.MemBytes)
	}
	list, err := r.client.Containers()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Name != "web1" {
		t.Fatalf("list = %+v", list)
	}
	if err := r.client.Delete("web1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Container("web1"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("after delete: %v", err)
	}
}

func TestSpawnValidation(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.Spawn(SpawnRequest{Name: "x", Image: "no-such-image"}); err == nil {
		t.Fatal("unknown image accepted")
	}
	if _, err := r.client.Spawn(SpawnRequest{Name: "", Image: "raspbian"}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := r.client.Spawn(SpawnRequest{Name: "x", Image: "raspbian", Net: "tunnel"}); err == nil {
		t.Fatal("bad net mode accepted")
	}
	// Duplicate: 409.
	if _, err := r.client.Spawn(SpawnRequest{Name: "dup", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Spawn(SpawnRequest{Name: "dup", Image: "raspbian"}); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("duplicate spawn = %v", err)
	}
}

func TestActions(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.Spawn(SpawnRequest{Name: "c", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	doc, err := r.client.Action("c", "freeze")
	if err != nil {
		t.Fatal(err)
	}
	if doc.State != "FROZEN" {
		t.Fatalf("state = %s", doc.State)
	}
	if _, err := r.client.Action("c", "unfreeze"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Action("c", "stop"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Action("c", "start"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.Action("c", "reboot"); err == nil {
		t.Fatal("unknown action accepted")
	}
	// Bad state transitions map to 409.
	if _, err := r.client.Action("c", "unfreeze"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("bad transition = %v", err)
	}
}

func TestLimitsEndpoint(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.Spawn(SpawnRequest{Name: "c", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	doc, err := r.client.SetLimits("c", LimitsRequest{MemLimitBytes: 64 * hw.MiB, CPUShares: 512, CPUQuotaMIPS: 200})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Shares != 512 || doc.Quota != 200 {
		t.Fatalf("doc = %+v", doc)
	}
	if _, err := r.client.SetLimits("ghost", LimitsRequest{}); err == nil {
		t.Fatal("limits on missing container accepted")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.Spawn(SpawnRequest{Name: "c", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	m, err := r.client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m["spawns"] != 1 {
		t.Fatalf("spawns = %v", m["spawns"])
	}
	if _, ok := m["power_watts"]; !ok {
		t.Fatal("power_watts missing")
	}
	if _, ok := m["mem_used_bytes"]; !ok {
		t.Fatal("mem_used_bytes missing")
	}
	if err := r.client.Delete("c"); err != nil {
		t.Fatal(err)
	}
	if m, err = r.client.Metrics(); err != nil {
		t.Fatal(err)
	}
	if m["destroys"] != 1 {
		t.Fatalf("destroys = %v", m["destroys"])
	}
	series, err := r.client.Series()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range series {
		names = append(names, s.Name)
	}
	if got := strings.Join(names, ","); got != "cpu_util,mem_used_bytes,power_watts" {
		t.Fatalf("series = %s", got)
	}
}

func TestDeleteRunningContainerStopsFirst(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.Spawn(SpawnRequest{Name: "c", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	if err := r.client.Delete("c"); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Delete("c"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestSpawnRollsBackOnStartFailure(t *testing.T) {
	r := newRig(t)
	// Exhaust node memory so Start's idle-RSS allocation fails.
	k := r.suite.Kernel()
	r.mu.Lock()
	if _, err := k.CreateCGroup("hog", oslinux.Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := k.Alloc("hog", k.MemAvailable()); err != nil {
		t.Fatal(err)
	}
	r.mu.Unlock()
	if _, err := r.client.Spawn(SpawnRequest{Name: "c", Image: "raspbian"}); err == nil {
		t.Fatal("spawn should fail without memory")
	}
	// The failed spawn must not leave a half-created container.
	if _, err := r.client.Container("c"); err == nil {
		t.Fatal("rollback missing: container exists")
	}
}

// TestDirectMatchesHTTP holds the direct methods in lockstep with the
// HTTP handlers: of two identical daemons, one driven through
// SpawnDirect, StatusDirect and DeleteDirect and its twin over HTTP,
// each call answers with equal documents, request counts included, and
// refusals agree.
func TestDirectMatchesHTTP(t *testing.T) {
	direct, wire := newRig(t), newRig(t)
	same := func(what string, d, w any, derr, werr error) {
		t.Helper()
		if (derr == nil) != (werr == nil) {
			t.Fatalf("%s: direct error %v, HTTP error %v", what, derr, werr)
		}
		if !reflect.DeepEqual(d, w) {
			t.Fatalf("%s:\ndirect %+v\nHTTP   %+v", what, d, w)
		}
	}
	status := func(after string) {
		t.Helper()
		st, err := wire.client.Status()
		same("status after "+after, direct.daemon.StatusDirect(), st, nil, err)
	}
	status("boot")
	for _, req := range []SpawnRequest{
		{Name: "web", Image: "webserver"},
		{Name: "db", Image: "database", MemLimitBytes: 64 * hw.MiB, CPUShares: 512, CPUQuotaMIPS: 300, Net: "nat"},
		{Name: "web", Image: "webserver"},
		{Name: "bad", Image: "no-such-image"},
		{Name: "odd", Image: "raspbian", Net: "token-ring"},
	} {
		dd, derr := direct.daemon.SpawnDirect(req)
		wd, werr := wire.client.Spawn(req)
		same("spawn "+req.Name, dd, wd, derr, werr)
		status("spawn " + req.Name)
	}
	direct.settle(t)
	wire.settle(t)
	status("settle")
	for _, name := range []string{"web", "ghost", "db"} {
		derr := direct.daemon.DeleteDirect(name)
		werr := wire.client.Delete(name)
		same("delete "+name, nil, nil, derr, werr)
		status("delete " + name)
	}
}

// TestLoadDirectMatchesStatus: LoadDirect reads what StatusDirect
// reports in every field placement reads, so both yield the same
// placement row, and counts the same one API request. Two identical
// daemons are driven in step through spawns (one refused), an
// allocation the board cannot hold (an OOM reject), CPU load, a delete
// and power-off; one is polled each way.
func TestLoadDirectMatchesStatus(t *testing.T) {
	full, load := newRig(t), newRig(t)
	poll := func(after string) {
		t.Helper()
		st, got := full.daemon.StatusDirect(), load.daemon.LoadDirect()
		if want := st.Load(); got != want {
			t.Fatalf("after %s: LoadDirect %+v, StatusDirect %+v", after, got, want)
		}
		if a, b := full.daemon.Status().APIRequests, load.daemon.Status().APIRequests; a != b {
			t.Fatalf("after %s: %d API requests polled by status, %d by load", after, a, b)
		}
	}
	both := func(what string, f func(r *rig) error) {
		t.Helper()
		if ef, el := f(full), f(load); (ef == nil) != (el == nil) {
			t.Fatalf("%s: %v on one daemon, %v on the other", what, ef, el)
		}
		poll(what)
	}
	poll("boot")
	for _, req := range []SpawnRequest{
		{Name: "web", Image: "webserver"},
		{Name: "db", Image: "database", MemLimitBytes: 64 * hw.MiB},
		{Name: "web", Image: "webserver"},
	} {
		both("spawn "+req.Name, func(r *rig) error { _, err := r.daemon.SpawnDirect(req); return err })
	}
	full.settle(t)
	load.settle(t)
	poll("settle")
	both("oom", func(r *rig) error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if err := r.suite.AllocAppMem("web", 1<<40); err == nil {
			t.Fatal("a 1 TiB allocation fit")
		}
		if r.suite.Kernel().OOMRejects() == 0 {
			t.Fatal("no OOM reject counted")
		}
		_, err := r.suite.Exec("web", oslinux.TaskSpec{WorkMI: 10000})
		return err
	})
	both("delete db", func(r *rig) error { return r.daemon.DeleteDirect("db") })
	both("power-off", func(r *rig) error {
		r.meter.PowerOff(r.engine.Now())
		return nil
	})
	if st := load.daemon.Status(); st.PoweredOn || st.CPUUtil < 0.99 || st.Containers != 1 {
		t.Fatalf("the drive did not reach a loaded, powered-off node: %+v", st)
	}
}

func TestStatusReflectsLoadAndPower(t *testing.T) {
	r := newRig(t)
	if _, err := r.client.Spawn(SpawnRequest{Name: "c", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	r.settle(t)
	r.mu.Lock()
	if _, err := r.suite.Exec("c", oslinux.TaskSpec{WorkMI: 10000}); err != nil {
		t.Fatal(err)
	}
	r.mu.Unlock()
	st, err := r.client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.CPUUtil < 0.99 {
		t.Fatalf("cpu util = %v, want ~1 under load", st.CPUUtil)
	}
	if st.PowerWatts < 3.4 {
		t.Fatalf("power = %v W, want near 3.5 peak", st.PowerWatts)
	}
	if st.Running != 1 || st.Containers != 1 {
		t.Fatalf("containers = %d/%d", st.Running, st.Containers)
	}
}

func BenchmarkStatusEndpoint(b *testing.B) {
	r := &rig{engine: sim.NewEngine(1)}
	k, err := oslinux.NewKernel(r.engine, hw.PiModelB(), "pi")
	if err != nil {
		b.Fatal(err)
	}
	r.suite = lxc.NewSuite(r.engine, k, image.StockImages())
	r.daemon = New(&r.mu, r.engine, "pi", 0, r.suite, nil)
	r.server = httptest.NewServer(r.daemon.Handler())
	defer r.server.Close()
	r.client = NewClient(r.server.URL, r.server.Client())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.client.Status(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMonitoringSeries(t *testing.T) {
	r := newRig(t)
	r.mu.Lock()
	stop := r.daemon.StartSampling(time.Second)
	r.mu.Unlock()
	if _, err := r.client.Spawn(SpawnRequest{Name: "c", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	// Let the container boot (bounded run: the sampling ticker keeps the
	// event queue permanently non-empty, so settle() would never return),
	// then burn CPU and sample for a while.
	r.mu.Lock()
	if err := r.engine.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := r.suite.Exec("c", oslinux.TaskSpec{WorkMI: 8750}); err != nil {
		t.Fatal(err)
	}
	if err := r.engine.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.mu.Unlock()
	series, err := r.client.Series()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SeriesSummary{}
	for _, s := range series {
		byName[s.Name] = s
	}
	cpu := byName["cpu_util"]
	if cpu.Samples < 5 {
		t.Fatalf("cpu samples = %d", cpu.Samples)
	}
	if cpu.Max < 0.99 {
		t.Fatalf("cpu max = %v, want ~1 under load", cpu.Max)
	}
	if byName["power_watts"].Max < 3.4 {
		t.Fatalf("power max = %v", byName["power_watts"].Max)
	}
	// Stop sampling: no further growth.
	r.mu.Lock()
	stop()
	if err := r.engine.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	r.mu.Unlock()
	after, err := r.client.Series()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range after {
		if s.Name == "cpu_util" && s.Samples > cpu.Samples+6 {
			t.Fatalf("sampling continued after stop: %d → %d", cpu.Samples, s.Samples)
		}
	}
}

// TestSeriesBeforeSampling: a daemon makes its monitoring series on its
// first StartSampling, and one never sampled serves the same document,
// byte for byte, as one whose sampling is armed but has not ticked.
func TestSeriesBeforeSampling(t *testing.T) {
	r := newRig(t)
	get := func() string {
		t.Helper()
		resp, err := r.server.Client().Get(r.server.URL + APIPrefix + "/series")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type") + "\n" + string(body)
	}
	before := get()
	if r.daemon.series != nil {
		t.Fatal("a daemon never sampled holds monitoring series")
	}
	r.mu.Lock()
	stop := r.daemon.StartSampling(time.Second)
	r.mu.Unlock()
	defer stop()
	if r.daemon.series == nil {
		t.Fatal("StartSampling made no series")
	}
	if after := get(); after != before {
		t.Fatalf("series before sampling:\n%s\nafter StartSampling:\n%s", before, after)
	}
	want := `[{"name":"cpu_util","samples":0,"mean":0,"max":0,"last":0},` +
		`{"name":"mem_used_bytes","samples":0,"mean":0,"max":0,"last":0},` +
		`{"name":"power_watts","samples":0,"mean":0,"max":0,"last":0}]`
	if !strings.Contains(before, want) {
		t.Fatalf("unsampled series:\n%s\nwant three empty series", before)
	}
}
