package scenario

// Gates for untouched hosts: a fleet host stays its plan row until
// something first touches it through pimaster.NodeRef's accessors, and
// only then boots. The laziness must be invisible:
//
//   - TestLazyHostsMatchTouchedTwin runs every catalog scenario (but the
//     10⁶-node one, and the megafleets at gate size) on a cloud used as
//     built and on a twin whose every host was touched before install;
//     traces, kernel state, pimaster's JSON documents, metrics and each
//     side's forks must agree.
//   - TestRestoreMaterialisesOnlyTouchedHosts pins that it is real: a
//     restored megafleet-10000 boots only the hosts its VMs land on.
//   - TestServeMasterDuringRun reads the node list and single nodes
//     over HTTP while the run boots hosts underneath (run it under
//     -race).

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/restapi"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// masterDocs are the pimaster documents the twin differential compares,
// read in this order on both sides.
var masterDocs = []string{"/api/v1/nodes", "/api/v1/vms", "/api/v1/dns", "/api/v1/leases"}

// twinSide is one side of the differential after its run.
type twinSide struct {
	rep     *Report
	state   core.KernelState
	docs    [][]byte
	cp      *Checkpoint
	touched int
}

// touchAll boots every host of the cloud through the public accessors.
func touchAll(c *core.Cloud) {
	for _, n := range c.Nodes() {
		n.Daemon()
		n.Suite()
		n.Meter()
	}
}

// runTwin builds spec's cloud, touches every host first if touch is
// set, installs the spec, checkpoints at mid and runs to the end.
func runTwin(t *testing.T, spec Spec, mid time.Duration, touch bool) twinSide {
	t.Helper()
	cloud, err := core.New(spec.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	if touch {
		touchAll(cloud)
	}
	r, err := Install(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RunTo(mid); err != nil {
		t.Fatal(err)
	}
	side := twinSide{cp: r.Checkpoint()}
	if side.rep, err = r.Execute(); err != nil {
		t.Fatal(err)
	}
	side.state = cloud.KernelState()
	handler := cloud.Master.Handler()
	for _, path := range masterDocs {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		side.docs = append(side.docs, rec.Body.Bytes())
	}
	for _, n := range cloud.Nodes() {
		if n.Touched() {
			side.touched++
		}
	}
	return side
}

func TestLazyHostsMatchTouchedTwin(t *testing.T) {
	for _, name := range Names() {
		if name == "megafleet-1000000" {
			continue
		}
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = shrinkForGate(spec)
			mid := (spec.Duration / 2).Round(time.Second)
			lazy := runTwin(t, spec, mid, false)
			touched := runTwin(t, spec, mid, true)

			requireIdentical(t, "lazy vs touched", lazy.rep, touched.rep)
			if len(lazy.rep.Metrics) != len(touched.rep.Metrics) {
				t.Fatalf("%d metrics against %d", len(lazy.rep.Metrics), len(touched.rep.Metrics))
			}
			if lazy.state != touched.state {
				t.Fatalf("kernel state differs:\n  lazy    %+v\n  touched %+v", lazy.state, touched.state)
			}
			for i, path := range masterDocs {
				if string(lazy.docs[i]) != string(touched.docs[i]) {
					t.Fatalf("GET %s differs:\n  lazy    %.400s\n  touched %.400s", path, lazy.docs[i], touched.docs[i])
				}
			}
			// Each side's checkpoint, carrying the other side's stamp:
			// its fork verifies the replay against that stamp.
			for _, pair := range []struct {
				name     string
				from, to *Checkpoint
			}{{"lazy", lazy.cp, touched.cp}, {"touched", touched.cp, lazy.cp}} {
				cp := *pair.from
				cp.Stamp = pair.to.Stamp
				fork, err := cp.Fork()
				if err != nil {
					t.Fatalf("fork of the %s checkpoint against the other side's stamp: %v", pair.name, err)
				}
				fork.Cloud.Close()
			}
			t.Logf("%s: %d hosts touched by the run of an untouched cloud", name, lazy.touched)
		})
	}
}

// TestRestoreMaterialisesOnlyTouchedHosts: a cold build and a restore
// of megafleet-10000 stamp no host, and the restore's install boots
// exactly the hosts its VMs landed on: placement reads every other row
// from the template's idle status.
func TestRestoreMaterialisesOnlyTouchedHosts(t *testing.T) {
	spec, err := Catalog("megafleet-10000")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := core.New(spec.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	restored, err := core.Restore(cold.Snapshot(), -1)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	for _, c := range []*core.Cloud{cold, restored} {
		for _, n := range c.Nodes() {
			if n.Touched() {
				t.Fatalf("%s booted before anything touched it", n.Name)
			}
		}
	}
	if _, err := Install(restored, spec); err != nil {
		t.Fatal(err)
	}
	landed := map[string]bool{}
	for _, vm := range restored.Master.VMs() {
		landed[vm.Node] = true
	}
	if len(landed) == 0 {
		t.Fatal("the install placed no VM")
	}
	touched := 0
	for _, n := range restored.Nodes() {
		if n.Touched() != landed[n.Name] {
			t.Fatalf("%s: touched %v, hosts a VM %v", n.Name, n.Touched(), landed[n.Name])
		}
		if n.Touched() {
			touched++
		}
	}
	t.Logf("%d of %d hosts booted for %d VMs", touched, len(restored.Nodes()), len(restored.Master.VMs()))
}

// TestFirstKernelStateAllocs: a capture renders into one fixed chunk
// hashed as it fills, so the first KernelState of a restored
// megafleet-10000 cloud, replayed to mid-run (about 380 KB of state,
// 2,576 link lines of it), allocates at most 128 KB. Rendering into a
// buffer the cloud grew from empty allocated 1.27 MB.
func TestFirstKernelStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race detector")
	}
	spec, err := Catalog("megafleet-10000")
	if err != nil {
		t.Fatal(err)
	}
	run, cp, err := Branch(spec, spec.Duration/2)
	if err != nil {
		t.Fatal(err)
	}
	run.Cloud.Close()
	restored, err := core.Restore(cp.snap, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	r, err := Install(restored, cp.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.ReplayHistory(cp.Injections, cp.At); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := restored.KernelState()
	runtime.ReadMemStats(&after)
	if got != cp.Kernel {
		t.Fatalf("replayed kernel state %+v, captured %+v", got, cp.Kernel)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 128<<10 {
		t.Fatalf("the first capture allocated %d bytes, want at most %d", alloc, 128<<10)
	}
}

// TestServeMasterDuringRun: pimaster's node list, single-node status and
// panel are read over HTTP from Cloud.ServeMaster while another
// goroutine advances a churning run that boots hosts as it crashes
// them; each read must list every node (and name the one asked for) as
// the run goes on. Under -race this is the check that booting a host
// and polling the fleet share no unguarded state (the panel read the
// engine clock without the cloud lock).
func TestServeMasterDuringRun(t *testing.T) {
	spec, err := Catalog("node-churn")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cloud.Close()
	base := r.Cloud.ServeMaster()
	nodes := r.Cloud.Nodes()
	done := make(chan error, 1)
	go func() { done <- r.RunTo(spec.Duration) }()
	get := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s %v", path, resp.StatusCode, body, err)
		}
		if into == nil {
			return
		}
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatal(err)
		}
	}
	reads := 0
	for running := true; running || reads < 2; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		var list []restapi.NodeStatus
		get("/api/v1/nodes", &list)
		if len(list) != len(nodes) {
			t.Fatalf("read %d: %d nodes listed, want %d", reads, len(list), len(nodes))
		}
		want := nodes[reads*7%len(nodes)].Name
		var one restapi.NodeStatus
		get("/api/v1/nodes/"+want, &one)
		if one.Node != want || list[reads*7%len(nodes)].Node != want {
			t.Fatalf("read %d: asked for %s, got %s (listed %s)", reads, want, one.Node, list[reads*7%len(nodes)].Node)
		}
		get("/panel", nil)
	}
	if !r.Finished() {
		t.Fatalf("the run stopped at %v", r.Offset())
	}
}
