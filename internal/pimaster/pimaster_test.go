package pimaster_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dhcp"
	"repro/internal/dns"
	"repro/internal/migration"
	"repro/internal/pimaster"
	"repro/internal/placement"
	"repro/internal/restapi"
)

func newCloud(t *testing.T, cfg core.Config) *core.Cloud {
	t.Helper()
	c, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := pimaster.New(pimaster.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// planRows is a HostTable over (rack, in-rack index, netsim node
// index) triples, looked up by scanning.
type planRows [][3]int

func (p planRows) NodeIndex(i int) int32 { return int32(p[i][2]) }

func (p planRows) Hosts() int { return len(p) }

func (p planRows) Host(i int) (string, netip.Addr) {
	return dns.NodeFQDN(p[i][0], p[i][1]), pimaster.NodeAddr(p[i][0], p[i][1])
}

func (p planRows) Reservation(i int) (dhcp.MAC, netip.Addr, string) {
	return dhcp.NodeMAC(p[i][0], p[i][1]), pimaster.NodeAddr(p[i][0], p[i][1]), pimaster.RackPool(p[i][0])
}

func (p planRows) RowOfName(name string) (int, bool) {
	return p.scan(func(i int) bool { fqdn, _ := p.Host(i); return fqdn == name })
}

func (p planRows) RowOfAddr(addr netip.Addr) (int, bool) {
	return p.scan(func(i int) bool { _, a := p.Host(i); return a == addr })
}

func (p planRows) RowOfMAC(mac dhcp.MAC) (int, bool) {
	return p.scan(func(i int) bool { m, _, _ := p.Reservation(i); return m == mac })
}

// Boot is never called: the test touches no host.
func (p planRows) Boot(int) *pimaster.Booted { panic("planRows boots no host") }

func (p planRows) Idle() restapi.NodeStatus { return restapi.NodeStatus{} }

func (p planRows) scan(match func(int) bool) (int, bool) {
	for i := range p {
		if match(i) {
			return i, true
		}
	}
	return 0, false
}

// TestRegisterNodeValidation: RegisterNodes, the only way a node enters
// pimaster, refuses a fleet holding a node that names no fabric host, a
// host registered twice, a node whose
// name is not its host id or a row whose netsim index names another
// node or none. Each fleet goes to a fresh master over the same
// fabric, which registers nothing from a refused fleet and then takes
// the valid one.
func TestRegisterNodeValidation(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 1, HostsPerRack: 2})
	at := func(i int) int { return int(c.Net.Node(c.Nodes()[i].Host).Index()) }
	rows := planRows{{0, 0, at(0)}, {0, 1, at(1)}}
	for _, cse := range []struct {
		name string
		edit func(nodes []pimaster.NodeRef)
		rows planRows
	}{
		{"valid", nil, nil},
		{"incomplete ref", func(n []pimaster.NodeRef) { n[0] = pimaster.NodeRef{} }, nil},
		{"duplicate host", func(n []pimaster.NodeRef) { n[1].Name, n[1].Host = n[0].Name, n[0].Host }, nil},
		{"name is not its host id", func(n []pimaster.NodeRef) { n[0].Name = "pi-r00-n09" }, nil},
		{"index names another host", nil, planRows{{0, 0, at(1)}, {0, 1, at(1)}}},
		{"index names a switch", nil, planRows{{0, 0, at(0)}, {0, 1, 0}}},
		{"index outside the fabric", nil, planRows{{0, 0, at(0)}, {0, 1, c.Net.NodeCount()}}},
	} {
		t.Run(cse.name, func(t *testing.T) {
			m, err := pimaster.New(pimaster.Config{Engine: c.Engine, CloudMu: new(sync.Mutex), Ctrl: c.Ctrl})
			if err != nil {
				t.Fatal(err)
			}
			valid := func() []pimaster.NodeRef { return []pimaster.NodeRef{*c.Nodes()[0], *c.Nodes()[1]} }
			if cse.edit != nil || cse.rows != nil {
				nodes, table := valid(), rows
				if cse.edit != nil {
					cse.edit(nodes)
				}
				if cse.rows != nil {
					table = cse.rows
				}
				if err := m.RegisterNodes(nodes, table); err == nil {
					t.Fatalf("%s accepted", cse.name)
				}
				if got := len(m.Nodes()); got != 0 {
					t.Fatalf("refused fleet registered %d nodes", got)
				}
			}
			if err := m.RegisterNodes(valid(), rows); err != nil {
				t.Fatal(err)
			}
			if got := len(m.Nodes()); got != 2 {
				t.Fatalf("valid fleet registered %d nodes", got)
			}
		})
	}
}

func TestSpawnValidation(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 1, HostsPerRack: 2})
	cases := []struct {
		name string
		req  pimaster.SpawnVMRequest
	}{
		{"no name", pimaster.SpawnVMRequest{Image: "raspbian"}},
		{"no image", pimaster.SpawnVMRequest{Name: "x"}},
		{"bad image", pimaster.SpawnVMRequest{Name: "x", Image: "no-such"}},
		{"bad placer", pimaster.SpawnVMRequest{Name: "x", Image: "raspbian", Placer: "magic"}},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			if _, err := c.Master.SpawnVM(cse.req); err == nil {
				t.Fatalf("accepted %s", cse.name)
			}
		})
	}
	// A failed spawn must leak no lease or DNS record.
	leases := len(c.Master.DHCP().Leases())
	recs := c.Master.DNS().RecordCount()
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "x", Image: "no-such"}); err == nil {
		t.Fatal("bad image accepted")
	}
	if got := len(c.Master.DHCP().Leases()); got != leases {
		t.Fatalf("leases leaked: %d → %d", leases, got)
	}
	if got := c.Master.DNS().RecordCount(); got != recs {
		t.Fatalf("dns leaked: %d → %d", recs, got)
	}
}

// TestFailedSpawnBindsNoLabel: a spawn the node daemon refuses must not
// leave the VM's forwarding label bound to a host it never ran on, or
// the label enters the SDN state (and the kernel digest).
func TestFailedSpawnBindsNoLabel(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 1, HostsPerRack: 2})
	before := string(c.Ctrl.AppendState(nil, nil))
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "x", Image: "no-such"}); err == nil {
		t.Fatal("bad image accepted")
	}
	if l, ok := c.Ctrl.LabelOf("x"); ok {
		host, _ := c.Ctrl.HostOfLabel(l)
		t.Fatalf("failed spawn bound label %d to %s", l, host)
	}
	if after := string(c.Ctrl.AppendState(nil, nil)); after != before {
		t.Fatalf("failed spawn moved the SDN state:\n%s→\n%s", before, after)
	}
	// The next successful spawn takes the first label.
	rec, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "y", Image: "raspbian"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Label != 1 {
		t.Fatalf("first successful spawn got label %d, want 1", rec.Label)
	}
}

func TestClusterFullReturnsNoCapacity(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 1, HostsPerRack: 1})
	for i := 0; i < 3; i++ {
		if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{
			Name: "vm" + string(rune('a'+i)), Image: "raspbian",
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	_, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "vmz", Image: "raspbian"})
	if !errors.Is(err, placement.ErrNoCapacity) {
		t.Fatalf("4th VM on a 1-node cloud = %v, want ErrNoCapacity (3 comfortable per Pi)", err)
	}
}

func TestPerRequestPlacerOverride(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 1, HostsPerRack: 3, Placer: placement.BestFit{}})
	a, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "a", Image: "raspbian"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	// Override to worst-fit: lands on an empty node despite best-fit
	// default.
	b, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "b", Image: "raspbian", Placer: "worst-fit"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Node == b.Node {
		t.Fatalf("worst-fit override ignored: both on %s", a.Node)
	}
}

func TestMigrateErrors(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 2, HostsPerRack: 1})
	if err := c.Master.MigrateVM("ghost", pimaster.MigrateVMRequest{TargetNode: "x"}, nil); !errors.Is(err, pimaster.ErrNoSuchVM) {
		t.Fatalf("migrate missing vm = %v", err)
	}
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "v", Image: "raspbian"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := c.Master.MigrateVM("v", pimaster.MigrateVMRequest{TargetNode: "ghost"}, nil); !errors.Is(err, pimaster.ErrNoSuchNode) {
		t.Fatalf("migrate to missing node = %v", err)
	}
}

func TestMigrateIPModeViaMaster(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 2, HostsPerRack: 1})
	rec, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "v", Image: "raspbian"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	var dstName string
	for _, n := range c.Nodes() {
		if n.Name != rec.Node {
			dstName = n.Name
		}
	}
	var rep migration.Report
	if err := c.Master.MigrateVM("v", pimaster.MigrateVMRequest{TargetNode: dstName, Routing: "ip"}, func(r migration.Report) { rep = r }); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("migration failed: %v", rep.Err)
	}
	if rep.Mode != migration.RoutingIP {
		t.Fatalf("mode = %v, want ip-routed", rep.Mode)
	}
}

func TestPowerSummary(t *testing.T) {
	c := newCloud(t, core.Config{})
	p := c.Master.Power()
	if p.Nodes != 56 {
		t.Fatalf("nodes = %d", p.Nodes)
	}
	if !p.SocketOK {
		t.Fatal("idle PiCloud must fit one socket strip")
	}
	if p.TotalWatts <= 0 || p.TotalWatts > p.SocketLimitW {
		t.Fatalf("draw = %v (limit %v)", p.TotalWatts, p.SocketLimitW)
	}
}

func TestNodeFQDNRegistered(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 2, HostsPerRack: 2})
	// All four nodes have A records under the PiCloud zone.
	for _, n := range c.Nodes() {
		fqdn := n.Name + ".picloud.dcs.gla.ac.uk."
		addrs, err := c.Master.DNS().LookupA(fqdn)
		if err != nil {
			t.Fatalf("node %s not in DNS: %v", n.Name, err)
		}
		if !strings.HasPrefix(addrs[0].String(), "10.") {
			t.Fatalf("node addr = %v", addrs)
		}
	}
}

func TestLeaseSweeper(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 1, HostsPerRack: 2})
	c.Mu.Lock()
	stop := c.Master.StartLeaseSweeper(time.Minute)
	c.Mu.Unlock()
	// A dynamic container lease that expires (default 12h) gets swept.
	lease, err := c.Master.DHCP().Request("rack0", "02:1c:00:00:00:99")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(13 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Master.DHCP().LeaseOf(lease.MAC); ok {
		t.Fatal("expired lease survived the sweeper")
	}
	// Node leases are static: they survive.
	if len(c.Master.DHCP().Leases()) != 2 {
		t.Fatalf("leases = %d, want the 2 static node leases", len(c.Master.DHCP().Leases()))
	}
	c.Mu.Lock()
	stop()
	c.Mu.Unlock()
}

// TestHTTPHandlers drives every pimaster endpoint over the wire,
// including the error paths.
func TestHTTPHandlers(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 2, HostsPerRack: 2})
	base := c.ServeMaster()
	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	post := func(path, body string) (int, string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}

	// Node endpoints.
	if code, body := get("/api/v1/nodes/pi-r00-n00"); code != 200 || !strings.Contains(body, "raspberry-pi-model-b") {
		t.Fatalf("node get = %d %s", code, body)
	}
	if code, _ := get("/api/v1/nodes/ghost"); code != 404 {
		t.Fatalf("missing node = %d", code)
	}

	// VM lifecycle over HTTP.
	if code, body := post("/api/v1/vms", `{"name":"h1","image":"webserver"}`); code != 202 {
		t.Fatalf("spawn = %d %s", code, body)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	if code, _ := post("/api/v1/vms", `{"name":"h1","image":"webserver"}`); code != 409 {
		t.Fatalf("duplicate spawn = %d", code)
	}
	if code, _ := post("/api/v1/vms", `{bad json`); code != 400 {
		t.Fatalf("bad json = %d", code)
	}
	if code, body := get("/api/v1/vms/h1"); code != 200 || !strings.Contains(body, "h1") {
		t.Fatalf("vm get = %d %s", code, body)
	}
	if code, _ := get("/api/v1/vms/ghost"); code != 404 {
		t.Fatalf("missing vm = %d", code)
	}

	// Migrate over HTTP.
	rec, err := c.Master.VM("h1")
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, n := range c.Nodes() {
		if n.Name != rec.Node {
			target = n.Name
			break
		}
	}
	if code, body := post("/api/v1/vms/h1/migrate", `{"target_node":"`+target+`"}`); code != 202 {
		t.Fatalf("migrate = %d %s", code, body)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	if code, _ := post("/api/v1/vms/h1/migrate", `{nope`); code != 400 {
		t.Fatalf("bad migrate json = %d", code)
	}
	if code, _ := post("/api/v1/vms/ghost/migrate", `{"target_node":"x"}`); code != 404 {
		t.Fatalf("migrate missing vm = %d", code)
	}

	// Service endpoints.
	if code, body := get("/api/v1/leases"); code != 200 || !strings.Contains(body, "b8:27:eb") {
		t.Fatalf("leases = %d %s", code, body)
	}
	if code, body := get("/api/v1/dns"); code != 200 || !strings.Contains(body, "picloud.dcs.gla.ac.uk") {
		t.Fatalf("dns = %d %.120s", code, body)
	}
	if code, body := get("/api/v1/images"); code != 200 || !strings.Contains(body, "webserver:latest") {
		t.Fatalf("images = %d %s", code, body)
	}
	if code, body := get("/api/v1/power"); code != 200 || !strings.Contains(body, "total_watts") {
		t.Fatalf("power = %d %s", code, body)
	}

	// DELETE via HTTP.
	req, err := http.NewRequest(http.MethodDelete, base+"/api/v1/vms/h1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("delete = %d", resp.StatusCode)
	}
}

func TestImageOpsOverHTTP(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 1, HostsPerRack: 1})
	base := c.ServeMaster()
	post := func(path, body string) (int, string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(out)
	}
	// Patch: add a CVE-fix layer.
	code, body := post("/api/v1/images/webserver/latest/patch",
		`{"new_tag":"patched","layer_size_bytes":2097152,"layer_packages":["openssl"],"layer_note":"CVE fix"}`)
	if code != 201 || !strings.Contains(body, "webserver:patched") {
		t.Fatalf("patch = %d %s", code, body)
	}
	// Upgrade: replace the base.
	code, body = post("/api/v1/images/webserver/latest/upgrade",
		`{"new_tag":"jessie","layer_size_bytes":230686720,"layer_packages":["raspbian-core"],"layer_note":"jessie base"}`)
	if code != 201 || !strings.Contains(body, "webserver:jessie") {
		t.Fatalf("upgrade = %d %s", code, body)
	}
	// Spawn: stamp a tenant image.
	code, body = post("/api/v1/images/webserver/latest/spawn",
		`{"new_name":"tenant1-web","new_tag":"v1"}`)
	if code != 201 || !strings.Contains(body, "tenant1-web:v1") {
		t.Fatalf("spawn = %d %s", code, body)
	}
	// The spawned image is now deployable through the normal path.
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "t1", Image: "tenant1-web:v1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	// Error paths.
	if code, _ := post("/api/v1/images/ghost/latest/patch", `{"new_tag":"x","layer_size_bytes":1}`); code != 404 {
		t.Fatalf("patch missing image = %d", code)
	}
	if code, _ := post("/api/v1/images/webserver/latest/frob", `{}`); code != 400 {
		t.Fatalf("unknown op = %d", code)
	}
	if code, _ := post("/api/v1/images/webserver/latest/patch", `{bad`); code != 400 {
		t.Fatalf("bad json = %d", code)
	}
	if code, _ := post("/api/v1/images/webserver/latest/spawn", `{"new_name":"tenant1-web","new_tag":"v1"}`); code != 409 {
		t.Fatalf("duplicate spawn = %d", code)
	}
}

// mixedRequests makes n spawn requests that mix placers, CPU
// reservations, memory sizes and peers.
func mixedRequests(n int) []pimaster.SpawnVMRequest {
	placers := []string{"", "best-fit", "worst-fit", "network-aware", "round-robin", "first-fit"}
	reqs := make([]pimaster.SpawnVMRequest, n)
	for i := range reqs {
		reqs[i] = pimaster.SpawnVMRequest{
			Name: fmt.Sprintf("vm%02d", i), Image: "raspbian",
			Placer:        placers[i%len(placers)],
			CPUDemandMIPS: int64(i%4) * 150,
			MemLimitBytes: int64(i%3) * 16 << 20,
		}
		if i > 2 {
			reqs[i].Peers = []string{reqs[i-1].Name, reqs[i-3].Name}
		}
	}
	return reqs
}

// TestSpawnVMsMatchesSpawnVM: SpawnVMs places every request against one
// fleet poll, patched after each spawn by re-polling only the node the
// VM landed on and locating the VM; it must make the choice SpawnVM,
// polling every node for every spawn, makes on a twin cloud. The mixed
// requests run until the cloud is out of room. In the second list,
// round-robin puts the ninth VM alone in rack 2, and a network-aware
// request naming it as its peer must follow it there, where best-fit,
// its choice with no placed peer, would pick a loaded host in rack 0.
func TestSpawnVMsMatchesSpawnVM(t *testing.T) {
	if refused := spawnTwins(t, mixedRequests(40)); refused == 0 {
		t.Fatal("the cloud never ran out of room, so no SpawnVMs call resumed")
	}
	follow := make([]pimaster.SpawnVMRequest, 10)
	for i := range follow {
		follow[i] = pimaster.SpawnVMRequest{Name: fmt.Sprintf("rr%d", i), Image: "raspbian", Placer: "round-robin"}
	}
	follow[9] = pimaster.SpawnVMRequest{Name: "peer", Image: "raspbian", Placer: "network-aware", Peers: []string{"rr8"}}
	spawnTwins(t, follow)
}

// spawnTwins sends reqs through SpawnVMs on one 3×4 cloud, resuming with
// the requests after each refusal, and through SpawnVM one at a time on
// its twin. Each request must land on the same node with the same
// address and name on both, or be refused by both; it returns how many
// were refused.
func spawnTwins(t *testing.T, reqs []pimaster.SpawnVMRequest) (refused int) {
	t.Helper()
	cfg := core.Config{Racks: 3, HostsPerRack: 4, Seed: 1}
	batched, polled := newCloud(t, cfg), newCloud(t, cfg)
	var got []*pimaster.VMRecord // nil where SpawnVMs refused
	for len(got) < len(reqs) {
		recs, err := batched.Master.SpawnVMs(reqs[len(got):])
		got = append(got, recs...)
		if err != nil {
			got = append(got, nil)
		}
	}
	for i, req := range reqs {
		want, werr := polled.Master.SpawnVM(req)
		if (got[i] == nil) != (werr != nil) {
			t.Fatalf("spawn %d: SpawnVMs made %v, SpawnVM failed with %v", i, got[i], werr)
		}
		if werr != nil {
			refused++
			continue
		}
		if got[i].Node != want.Node || got[i].IP != want.IP || got[i].FQDN != want.FQDN {
			t.Fatalf("spawn %d (%s): SpawnVMs chose %s %s %s, SpawnVM %s %s %s", i, req.Placer,
				got[i].Node, got[i].IP, got[i].FQDN, want.Node, want.IP, want.FQDN)
		}
	}
	return refused
}

// TestSpawnVMsPollsOnce: SpawnVMs polls the F nodes once and makes two
// daemon requests per VM, the spawn and the re-poll of its node
// (F + 2N), where SpawnVM polls every node per VM (N·(F + 1)).
func TestSpawnVMsPollsOnce(t *testing.T) {
	cfg := core.Config{Racks: 3, HostsPerRack: 4, Seed: 1}
	const nodes, vms = 12, 5
	requests := func(c *core.Cloud) (n uint64) {
		for _, ref := range c.Master.Nodes() {
			n += ref.Daemon().Status().APIRequests
		}
		return n
	}
	reqs := make([]pimaster.SpawnVMRequest, vms)
	for i := range reqs {
		reqs[i] = pimaster.SpawnVMRequest{Name: fmt.Sprintf("vm%d", i), Image: "raspbian"}
	}

	batched := newCloud(t, cfg)
	before := requests(batched)
	if recs, err := batched.Master.SpawnVMs(reqs); err != nil || len(recs) != vms {
		t.Fatalf("SpawnVMs made %d records: %v", len(recs), err)
	}
	if got, want := requests(batched)-before, uint64(nodes+2*vms); got != want {
		t.Fatalf("SpawnVMs made %d daemon requests, want %d", got, want)
	}

	polled := newCloud(t, cfg)
	before = requests(polled)
	for _, req := range reqs {
		if _, err := polled.Master.SpawnVM(req); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := requests(polled)-before, uint64(vms*(nodes+1)); got != want {
		t.Fatalf("%d SpawnVM calls made %d daemon requests, want %d", vms, got, want)
	}
}

// TestVMsOnFiltersVMs: VMsOn lists exactly the VMs that VMs lists on the
// node, in the same name order, for every node, an empty one and an
// unknown name included, and follows a destroy.
func TestVMsOnFiltersVMs(t *testing.T) {
	c := newCloud(t, core.Config{Racks: 2, HostsPerRack: 4, Seed: 1})
	// First-fit fills two nodes, puts one VM on a third and leaves the
	// rest empty; names count down, so each node's list must be sorted.
	reqs := make([]pimaster.SpawnVMRequest, 7)
	for i := range reqs {
		reqs[i] = pimaster.SpawnVMRequest{Name: fmt.Sprintf("vm%02d", 20-i), Image: "raspbian", Placer: "first-fit"}
	}
	if _, err := c.Master.SpawnVMs(reqs); err != nil {
		t.Fatal(err)
	}
	names := []string{"pi-r09-n09"}
	for _, ref := range c.Master.Nodes() {
		names = append(names, ref.Name)
	}
	check := func() {
		t.Helper()
		all := c.Master.VMs()
		for _, name := range names {
			var want []pimaster.VMRecord
			for _, vm := range all {
				if vm.Node == name {
					want = append(want, vm)
				}
			}
			if got := c.Master.VMsOn(name); !slices.Equal(got, want) {
				t.Fatalf("VMsOn(%s) = %v, want %v", name, got, want)
			}
		}
	}
	check()
	if err := c.Master.DestroyVM(c.Master.VMs()[0].Name); err != nil {
		t.Fatal(err)
	}
	check()
}
