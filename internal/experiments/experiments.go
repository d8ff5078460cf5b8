// Package experiments contains the reproduction harness: one runner per
// table, figure and quantitative claim of the paper (T1, F1–F4, C1–C3)
// plus the Section III research directions (R1–R8). Each runner builds
// the cloud it needs, executes the workload, and returns a Result whose
// metrics `pibench -exp all` prints and the benchmarks assert on.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/energy"
	"repro/internal/hw"
	"repro/internal/lxc"
	"repro/internal/openflow"
	"repro/internal/oslinux"
	"repro/internal/pimaster"
	"repro/internal/restapi"
	"repro/internal/sdn"
	"repro/internal/topology"
)

// Result is the outcome of one experiment.
type Result struct {
	ID      string
	Title   string
	Metrics map[string]float64
	// Table is the human-readable output pibench prints.
	Table string
}

// metric formats one "name = value" line.
func metric(name string, v float64, unit string) string {
	return fmt.Sprintf("  %-38s %12.3f %s", name, v, unit)
}

// render assembles the Result table from its metrics (sorted) plus any
// extra pre-formatted blocks.
func render(r *Result, blocks ...string) {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n", r.ID, r.Title)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(&b, metric(n, r.Metrics[n], ""))
	}
	for _, blk := range blocks {
		b.WriteString(blk)
		if !strings.HasSuffix(blk, "\n") {
			b.WriteString("\n")
		}
	}
	r.Table = b.String()
}

// Table1 regenerates the paper's only table: the 56-server cost
// comparison.
func Table1() (*Result, error) {
	rows := cost.TableI(56)
	r := &Result{
		ID:    "T1",
		Title: "Table I — cost breakdown of a testbed consisting 56 servers",
		Metrics: map[string]float64{
			"testbed_total_usd": rows[0].TotalCostUSD,
			"testbed_total_w":   rows[0].TotalPeakW,
			"picloud_total_usd": rows[1].TotalCostUSD,
			"picloud_total_w":   rows[1].TotalPeakW,
			"cost_ratio":        cost.CostRatio(56),
			"power_ratio":       cost.PowerRatio(56),
		},
	}
	bom := cost.AnalyseBoM()
	r.Metrics["pi_bom_total_usd"] = bom.TotalUSD
	r.Metrics["pi_soc_usd"] = bom.SoCCostUSD
	render(r, cost.FormatTableI(rows))
	return r, nil
}

// Fig1 regenerates the rack layout: 4 racks × 14 Pis.
func Fig1() (*Result, error) {
	c, err := core.New(core.Config{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	r := &Result{
		ID:    "F1",
		Title: "Fig. 1 — four PiCloud racks",
		Metrics: map[string]float64{
			"racks":          float64(len(c.Topo.Racks)),
			"pis_per_rack":   float64(len(c.Topo.Racks[0])),
			"total_pis":      float64(len(c.Nodes())),
			"idle_power_w":   c.PowerDraw(),
			"board_cost_usd": hw.PiModelB().UnitCostUSD,
		},
	}
	render(r, c.Describe())
	return r, nil
}

// Fig2 regenerates the system architecture: the multi-root tree with ToR
// and OpenFlow aggregation switches, SDN path installation, and the
// re-cabling to a fat-tree the paper says the design permits.
func Fig2() (*Result, error) {
	c, err := core.New(core.Config{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.Mu.Lock()
	// All-pairs reachability over a deterministic sample: every host to
	// the first host of every rack.
	paths := 0
	hops := 0
	for _, src := range c.Topo.Hosts {
		for _, rack := range c.Topo.Racks {
			dst := rack[0]
			if src == dst {
				continue
			}
			p, err := c.Ctrl.PathFor(src, dst, sdn.PolicyShortestPath, 0)
			if err != nil {
				c.Mu.Unlock()
				return nil, fmt.Errorf("unreachable %s->%s: %w", src, dst, err)
			}
			paths++
			hops += len(p) - 1
		}
	}
	// Exercise the programmable plane: admit one flow per rack pair so
	// the controller reactively installs rules on the OpenFlow switches.
	for _, rack := range c.Topo.Racks[1:] {
		pkt := openflow.PacketInfo{Src: c.Topo.Racks[0][0], Dst: rack[0], Proto: "tcp", DstPort: 80}
		if _, _, err := c.Ctrl.Admit(pkt, sdn.PolicyECMP); err != nil {
			c.Mu.Unlock()
			return nil, err
		}
	}
	packetIns := c.Ctrl.PacketIns()
	c.Mu.Unlock()

	// Re-cable the same 56 hosts into a fat-tree and a leaf-spine.
	recabled := 0
	for _, f := range []topology.Fabric{topology.FabricFatTree, topology.FabricLeafSpine} {
		alt, err := core.New(core.Config{Fabric: f})
		if err != nil {
			return nil, fmt.Errorf("re-cabling to %s: %w", f, err)
		}
		if len(alt.Nodes()) == 56 {
			recabled++
		}
		alt.Close()
	}
	r := &Result{
		ID:    "F2",
		Title: "Fig. 2 — system architecture (multi-root tree, ToR + OpenFlow aggregation, gateway)",
		Metrics: map[string]float64{
			"tor_switches":       float64(len(c.Topo.Edge)),
			"aggregation_roots":  float64(len(c.Topo.Agg)),
			"gateways":           float64(len(c.Topo.Core)),
			"sampled_paths_ok":   float64(paths),
			"mean_path_hops":     float64(hops) / float64(paths),
			"recabled_fabrics":   float64(recabled),
			"packet_ins":         float64(packetIns),
			"switch_rules_after": float64(c.Ctrl.RulesInstalled()),
		},
	}
	render(r)
	return r, nil
}

// Fig3 regenerates the per-node software stack: boot one Pi, run the
// three application containers of the figure, report the layers.
func Fig3() (*Result, error) {
	c, err := core.New(core.Config{Racks: 1, HostsPerRack: 1})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for _, img := range []string{"webserver", "database", "hadoop"} {
		if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: img + "-ctr", Image: img}); err != nil {
			return nil, err
		}
		if err := c.Settle(); err != nil {
			return nil, err
		}
	}
	node := c.Nodes()[0]
	stack, err := c.SoftwareStack(node.Name)
	if err != nil {
		return nil, err
	}
	c.Mu.Lock()
	memUsed := node.Suite().Kernel().MemUsed()
	running := node.Suite().RunningCount()
	c.Mu.Unlock()
	r := &Result{
		ID:    "F3",
		Title: "Fig. 3 — PiCloud software stack (SoC → Raspbian → LXC → API → containers)",
		Metrics: map[string]float64{
			"containers_running":  float64(running),
			"node_mem_used_mib":   float64(memUsed) / float64(hw.MiB),
			"node_mem_total_mib":  float64(node.Suite().Kernel().MemTotal()) / float64(hw.MiB),
			"stack_layers":        float64(len(stack)),
			"idle_rss_per_ctr_mb": float64(lxc.IdleRSSBytes) / float64(hw.MiB),
		},
	}
	render(r, "  "+strings.Join(stack, "\n  "))
	return r, nil
}

// Fig4 regenerates the management web interface: serve the panel, drive
// the use cases the paper names (monitor CPU load, spawn a VM instance,
// set soft per-VM limits) through the REST APIs.
func Fig4() (*Result, error) {
	c, err := core.New(core.Config{Racks: 2, HostsPerRack: 3})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	base := c.ServeMaster()

	// Use case 1: spawn a VM through pimaster.
	resp, err := http.Post(base+"/api/v1/vms", "application/json",
		strings.NewReader(`{"name":"panel-vm","image":"webserver"}`))
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	spawned := 0.0
	if resp.StatusCode == http.StatusAccepted {
		spawned = 1
	}
	if err := c.Settle(); err != nil {
		return nil, err
	}
	// Use case 2: remote monitoring of CPU load on all nodes, through
	// pimaster's node listing.
	resp, err = http.Get(base + "/api/v1/nodes")
	if err != nil {
		return nil, err
	}
	var statuses []restapi.NodeStatus
	err = json.NewDecoder(resp.Body).Decode(&statuses)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	monitored := 0
	for _, st := range statuses {
		if st.CPUMIPS > 0 {
			monitored++
		}
	}
	// Use case 3: set soft per-VM limits.
	rec, err := c.Master.VM("panel-vm")
	if err != nil {
		return nil, err
	}
	node, err := c.NodeByName(rec.Node)
	if err != nil {
		return nil, err
	}
	// A remote client reaches the node's daemon over HTTP.
	daemon := httptest.NewServer(node.Daemon().Handler())
	defer daemon.Close()
	limitsOK := 0.0
	if _, err := restapi.NewClient(daemon.URL, daemon.Client()).SetLimits("panel-vm", limitsDoc()); err == nil {
		limitsOK = 1
	}
	// The panel itself.
	resp, err = http.Get(base + "/panel")
	if err != nil {
		return nil, err
	}
	html, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := &Result{
		ID:    "F4",
		Title: "Fig. 4 — PiCloud management web interface on pimaster",
		Metrics: map[string]float64{
			"panel_bytes":      float64(len(html)),
			"nodes_monitored":  float64(monitored),
			"vm_spawned":       spawned,
			"limits_set":       limitsOK,
			"panel_shows_vm":   boolMetric(strings.Contains(string(html), "panel-vm")),
			"panel_shows_watt": boolMetric(strings.Contains(string(html), "power draw")),
		},
	}
	render(r)
	return r, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// limitsDoc builds the Fig. 4 "soft per-VM limits" request.
func limitsDoc() restapi.LimitsRequest {
	return restapi.LimitsRequest{MemLimitBytes: 64 * hw.MiB, CPUShares: 512, CPUQuotaMIPS: 200}
}

// ClaimDensity reproduces C1: "we can run three containers on a single
// Pi, each consuming 30MB RAM when idle" and "up to 3 co-located
// concurrent virtualised hosts". Containers carry a realistic app
// footprint on top of the idle RSS; the fourth no longer fits.
func ClaimDensity() (*Result, error) {
	c, err := core.New(core.Config{Racks: 1, HostsPerRack: 1})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	node := c.Nodes()[0]
	const appMem = 35 * hw.MiB
	placedOK := 0
	var fourthErr error
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("ctr-%d", i)
		c.Mu.Lock()
		_, err := node.Suite().Create(lxc.Spec{Name: name, Image: "raspbian"})
		if err == nil {
			err = node.Suite().Start(name, nil)
		}
		if err == nil {
			err = c.Engine.Run()
		}
		if err == nil {
			err = node.Suite().AllocAppMem(name, appMem)
		}
		c.Mu.Unlock()
		if err != nil {
			fourthErr = err
			break
		}
		placedOK++
	}
	c.Mu.Lock()
	memUsed := node.Suite().Kernel().MemUsed()
	c.Mu.Unlock()
	r := &Result{
		ID:    "C1",
		Title: "Claim — 3 containers per Pi comfortably; 30MB idle RSS each",
		Metrics: map[string]float64{
			"containers_fitting": float64(placedOK),
			"idle_rss_mib":       float64(lxc.IdleRSSBytes) / float64(hw.MiB),
			"app_mem_each_mib":   float64(appMem) / float64(hw.MiB),
			"node_mem_used_mib":  float64(memUsed) / float64(hw.MiB),
			"node_mem_total_mib": 256,
			"fourth_rejected":    boolMetric(fourthErr != nil),
		},
	}
	extra := ""
	if fourthErr != nil {
		extra = "  fourth container: " + fourthErr.Error()
	}
	render(r, extra)
	return r, nil
}

// ClaimPower reproduces C2: "we can run the PiCloud from a single
// trailing power socket board" — idle and full-load draw of all 56 Pis
// against a UK 13A strip.
func ClaimPower() (*Result, error) {
	c, err := core.New(core.Config{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	idle := c.PowerDraw()
	// Saturate every node.
	c.Mu.Lock()
	for _, n := range c.Nodes() {
		k := n.Suite().Kernel()
		if _, err := k.CreateCGroup("burn", oslinux.Limits{}); err != nil {
			c.Mu.Unlock()
			return nil, err
		}
		if _, err := k.StartTask("burn", oslinux.TaskSpec{}); err != nil {
			c.Mu.Unlock()
			return nil, err
		}
	}
	c.Mu.Unlock()
	peak := c.PowerDraw()
	sock := energy.UKTrailingSocket()
	r := &Result{
		ID:    "C2",
		Title: "Claim — whole PiCloud from a single trailing power socket",
		Metrics: map[string]float64{
			"idle_draw_w":     idle,
			"peak_draw_w":     peak,
			"paper_peak_w":    196,
			"socket_limit_w":  sock.MaxWatts(),
			"fits_socket":     boolMetric(sock.CanSupply(peak)),
			"x86_peak_w":      10080,
			"x86_fits_socket": boolMetric(sock.CanSupply(10080)),
		},
	}
	render(r)
	return r, nil
}

// ClaimCooling reproduces C3: power and cooling "reportedly accounts for
// 33% of the total power consumption in Cloud DCs", which the PiCloud
// avoids entirely.
func ClaimCooling() (*Result, error) {
	cool := energy.DefaultCooling()
	x86IT := 10080.0
	r := &Result{
		ID:    "C3",
		Title: "Claim — cooling is 33% of total DC power; PiCloud needs none",
		Metrics: map[string]float64{
			"cooling_share":      cool.Share,
			"x86_it_w":           x86IT,
			"x86_cooling_w":      cool.OverheadWatts(x86IT),
			"x86_facility_w":     cool.FacilityWatts(x86IT),
			"implied_pue":        cool.PUE(),
			"picloud_cooling_w":  0,
			"picloud_facility_w": 196,
		},
	}
	render(r)
	return r, nil
}

// All runs every experiment in order.
func All() ([]*Result, error) {
	runners := []func() (*Result, error){
		Table1, Fig1, Fig2, Fig3, Fig4,
		ClaimDensity, ClaimPower, ClaimCooling,
		Placement, ConsolidationRipple, MigrationRouting,
		SDNCongestion, TrafficDynamism, BareVsContainer,
		TopologyRecable, MapReduceScaleOut, P2PManagement,
	}
	out := make([]*Result, 0, len(runners))
	for _, run := range runners {
		r, err := run()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ByID runs a single experiment by its identifier (case-insensitive).
func ByID(id string) (*Result, error) {
	switch strings.ToLower(id) {
	case "t1", "table1":
		return Table1()
	case "f1", "fig1":
		return Fig1()
	case "f2", "fig2":
		return Fig2()
	case "f3", "fig3":
		return Fig3()
	case "f4", "fig4":
		return Fig4()
	case "c1", "claim-density":
		return ClaimDensity()
	case "c2", "claim-power":
		return ClaimPower()
	case "c3", "claim-cooling":
		return ClaimCooling()
	case "r1", "placement":
		return Placement()
	case "r2", "ripple":
		return ConsolidationRipple()
	case "r3", "migration":
		return MigrationRouting()
	case "r4", "sdn":
		return SDNCongestion()
	case "r5", "traffic":
		return TrafficDynamism()
	case "r6", "bare":
		return BareVsContainer()
	case "r7", "recable":
		return TopologyRecable()
	case "r8", "hadoop":
		return MapReduceScaleOut()
	case "x1", "p2p":
		return P2PManagement()
	default:
		return nil, fmt.Errorf("experiments: unknown id %q", id)
	}
}

// IDs lists every experiment identifier in run order.
func IDs() []string {
	return []string{"t1", "f1", "f2", "f3", "f4", "c1", "c2", "c3",
		"r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8", "x1"}
}
