package repro_test

// One benchmark per table and figure of the paper, plus one per research
// direction experiment (R1–R8) and ablation micro-benches. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiments runner and
// asserts the paper-shape result, so `-bench` doubles as the
// reproduction gate. Custom metrics (ns/op aside) expose the headline
// quantity of each experiment.

import (
	"os"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// runExp executes one experiment per benchmark iteration and returns the
// last result for metric reporting.
func runExp(b *testing.B, f func() (*experiments.Result, error)) *experiments.Result {
	b.Helper()
	var last *experiments.Result
	for i := 0; i < b.N; i++ {
		r, err := f()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	return last
}

// BenchmarkTableICost regenerates Table I (cost/power/cooling of 56
// servers, x86 vs Pi).
func BenchmarkTableICost(b *testing.B) {
	r := runExp(b, experiments.Table1)
	if r.Metrics["picloud_total_usd"] != 1960 || r.Metrics["testbed_total_usd"] != 112000 {
		b.Fatalf("Table I numbers drifted: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["cost_ratio"], "cost-ratio")
	b.ReportMetric(r.Metrics["power_ratio"], "power-ratio")
}

// BenchmarkFig1Racks regenerates the rack layout (4 × 14).
func BenchmarkFig1Racks(b *testing.B) {
	r := runExp(b, experiments.Fig1)
	if r.Metrics["total_pis"] != 56 {
		b.Fatalf("wrong scale: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["idle_power_w"], "idle-W")
}

// BenchmarkFig2Architecture regenerates the multi-root-tree architecture
// with reachability verification and re-cabling.
func BenchmarkFig2Architecture(b *testing.B) {
	r := runExp(b, experiments.Fig2)
	if r.Metrics["recabled_fabrics"] != 2 {
		b.Fatalf("re-cabling failed: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["mean_path_hops"], "mean-hops")
}

// BenchmarkFig3Stack boots the per-node software stack with the three
// application containers.
func BenchmarkFig3Stack(b *testing.B) {
	r := runExp(b, experiments.Fig3)
	if r.Metrics["containers_running"] != 3 {
		b.Fatalf("stack incomplete: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["node_mem_used_mib"], "node-MiB")
}

// BenchmarkFig4Panel serves and drives the management web interface.
func BenchmarkFig4Panel(b *testing.B) {
	r := runExp(b, experiments.Fig4)
	if r.Metrics["vm_spawned"] != 1 || r.Metrics["limits_set"] != 1 {
		b.Fatalf("management use cases failed: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["panel_bytes"], "panel-B")
}

// BenchmarkClaimContainersPerPi verifies the 3-containers-per-Pi density
// claim (C1).
func BenchmarkClaimContainersPerPi(b *testing.B) {
	r := runExp(b, experiments.ClaimDensity)
	if r.Metrics["containers_fitting"] != 3 {
		b.Fatalf("density drifted: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["containers_fitting"], "containers")
}

// BenchmarkClaimPowerSocket verifies the single-socket power claim (C2).
func BenchmarkClaimPowerSocket(b *testing.B) {
	r := runExp(b, experiments.ClaimPower)
	if r.Metrics["fits_socket"] != 1 {
		b.Fatalf("socket claim failed: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["peak_draw_w"], "peak-W")
}

// BenchmarkClaimCooling verifies the 33% cooling share model (C3).
func BenchmarkClaimCooling(b *testing.B) {
	r := runExp(b, experiments.ClaimCooling)
	b.ReportMetric(r.Metrics["implied_pue"], "PUE")
}

// BenchmarkPlacementAlgorithms runs R1: cross-rack traffic per placer.
func BenchmarkPlacementAlgorithms(b *testing.B) {
	r := runExp(b, experiments.Placement)
	na := r.Metrics["network-aware_cross_rack_mib"]
	rr := r.Metrics["round-robin_cross_rack_mib"]
	if na > rr {
		b.Fatalf("network-aware (%v) worse than round-robin (%v)", na, rr)
	}
	b.ReportMetric(rr-na, "MiB-saved")
}

// BenchmarkConsolidationRipple runs R2: power saved vs congestion and
// latency induced by naive consolidation.
func BenchmarkConsolidationRipple(b *testing.B) {
	r := runExp(b, experiments.ConsolidationRipple)
	if r.Metrics["watts_after"] >= r.Metrics["watts_before"] {
		b.Fatalf("consolidation saved no power: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["watts_before"]-r.Metrics["watts_after"], "W-saved")
	b.ReportMetric(r.Metrics["p99_ms_after"]-r.Metrics["p99_ms_before"], "p99-ms-added")
}

// BenchmarkMigrationRouting runs R3: IP vs label routed migration.
func BenchmarkMigrationRouting(b *testing.B) {
	r := runExp(b, experiments.MigrationRouting)
	if r.Metrics["label_flows_broken"] != 0 {
		b.Fatalf("label routing broke flows: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["ip_flows_broken"], "ip-broken")
	b.ReportMetric(r.Metrics["label_downtime_ms"], "downtime-ms")
}

// BenchmarkSDNCongestion runs R4: routing policies under a hotspot.
func BenchmarkSDNCongestion(b *testing.B) {
	r := runExp(b, experiments.SDNCongestion)
	b.ReportMetric(r.Metrics["shortest_max_util"], "shortest-util")
	b.ReportMetric(r.Metrics["congestion_max_util"], "congestion-util")
}

// BenchmarkTrafficDynamism runs R5: burstiness of the generated traffic.
func BenchmarkTrafficDynamism(b *testing.B) {
	r := runExp(b, experiments.TrafficDynamism)
	if r.Metrics["epoch_load_cov"] < 0.05 {
		b.Fatalf("traffic too smooth: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["epoch_load_cov"], "CoV")
}

// BenchmarkBareVsContainer runs R6: virtualisation-removal comparison.
func BenchmarkBareVsContainer(b *testing.B) {
	r := runExp(b, experiments.BareVsContainer)
	b.ReportMetric(r.Metrics["container_overhead_mib"], "overhead-MiB")
}

// BenchmarkTopologyRecable runs R7: shuffle makespan per fabric.
func BenchmarkTopologyRecable(b *testing.B) {
	r := runExp(b, experiments.TopologyRecable)
	b.ReportMetric(r.Metrics["multiroot_makespan_s"], "multiroot-s")
	b.ReportMetric(r.Metrics["fattree_makespan_s"], "fattree-s")
	b.ReportMetric(r.Metrics["leafspine_makespan_s"], "leafspine-s")
}

// BenchmarkMapReduceScaleOut runs R8: makespan vs worker count.
func BenchmarkMapReduceScaleOut(b *testing.B) {
	r := runExp(b, experiments.MapReduceScaleOut)
	if r.Metrics["workers_56_makespan_s"] >= r.Metrics["workers_07_makespan_s"] {
		b.Fatalf("no scale-out: %v", r.Metrics)
	}
	b.ReportMetric(r.Metrics["workers_07_makespan_s"], "7w-s")
	b.ReportMetric(r.Metrics["workers_56_makespan_s"], "56w-s")
}

// ---------------------------------------------------------------------------
// Scenario-engine benchmarks: one per canned scenario, tracking the perf
// trajectory of fleet-scale runs from PR 1 onward. Each executes the full
// scenario timeline once per iteration and reports simulated-seconds per
// wall-second plus engine events/sec, so `-bench=Scenario -benchtime=1x`
// doubles as the CI smoke gate for the scenario engine.

// runScenario executes a canned scenario once per iteration and reports
// its headline throughput metrics.
func runScenario(b *testing.B, name string) *scenario.Report {
	b.Helper()
	var last *scenario.Report
	for i := 0; i < b.N; i++ {
		spec, err := scenario.Catalog(name)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := scenario.Execute(spec)
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.ReportMetric(last.SimTime.Seconds()/last.WallTime.Seconds(), "sim-s/wall-s")
	b.ReportMetric(float64(last.EventsFired)/last.WallTime.Seconds(), "events/s")
	return last
}

// BenchmarkScenarioDiurnalDay runs the compressed day/night curve on the
// published 4×14 testbed.
func BenchmarkScenarioDiurnalDay(b *testing.B) {
	r := runScenario(b, "diurnal-day")
	if r.Metrics["diurnal_flows"] == 0 {
		b.Fatal("diurnal curve generated no traffic")
	}
}

// BenchmarkScenarioMigrationStorm mass-migrates under load.
func BenchmarkScenarioMigrationStorm(b *testing.B) {
	r := runScenario(b, "migration-storm")
	if r.Metrics["migrations_done"] == 0 {
		b.Fatal("storm completed no migrations")
	}
	b.ReportMetric(r.Metrics["migrations_done"], "migrations")
}

// BenchmarkScenarioRackBlackout powers a rack off and back on mid-run.
func BenchmarkScenarioRackBlackout(b *testing.B) {
	r := runScenario(b, "rack-blackout")
	if r.Metrics["faults_injected"] == 0 {
		b.Fatal("no blackout injected")
	}
}

// BenchmarkScenarioNodeChurn cycles random nodes through crash/recover.
func BenchmarkScenarioNodeChurn(b *testing.B) {
	r := runScenario(b, "node-churn")
	if r.Metrics["faults_injected"] == 0 {
		b.Fatal("no churn happened")
	}
}

// BenchmarkScenarioBrownoutFabric shapes every ToR uplink.
func BenchmarkScenarioBrownoutFabric(b *testing.B) {
	r := runScenario(b, "brownout-fabric")
	if r.Metrics["faults_injected"] == 0 {
		b.Fatal("no degradation applied")
	}
}

// BenchmarkScenarioFlashCrowd spikes arrivals on a 200-node leaf-spine.
func BenchmarkScenarioFlashCrowd(b *testing.B) {
	r := runScenario(b, "flash-crowd")
	if r.Nodes != 200 {
		b.Fatalf("flash crowd ran on %d nodes, want 200", r.Nodes)
	}
}

// BenchmarkScenarioMegafleet1000 is the previous scale-out gate: 1040
// simulated nodes with churn and a fabric brownout must complete inside
// the CI bench-smoke job (and, since PR 2, also under -race).
func BenchmarkScenarioMegafleet1000(b *testing.B) {
	r := runScenario(b, "megafleet-1000")
	if r.Nodes < 1000 {
		b.Fatalf("megafleet ran on %d nodes, want ≥ 1000", r.Nodes)
	}
	b.ReportMetric(float64(r.Nodes), "nodes")
}

// BenchmarkScenarioMegafleet10000 is the PR 2 scale gate for the
// incremental congestion-domain solver and the SDN route cache: 10,000
// simulated nodes in 40 racks, with churn and a fabric brownout, must
// complete inside the CI bench-smoke job. Since PR 3's fleet builder
// (template stamping, sharded bring-up, JSON-free boot) the wall time
// is no longer dominated by cloud construction.
func BenchmarkScenarioMegafleet10000(b *testing.B) {
	r := runScenario(b, "megafleet-10000")
	if r.Nodes < 10000 {
		b.Fatalf("megafleet ran on %d nodes, want ≥ 10000", r.Nodes)
	}
	if r.Metrics["faults_injected"] == 0 {
		b.Fatal("no faults injected at scale")
	}
	b.ReportMetric(r.BuildWallTime.Seconds(), "build-s")
	b.ReportMetric(float64(r.Nodes), "nodes")
}

// megafleet100kBudget is the wall-time budget of the 10⁵-node scale
// gate: build plus run must finish inside it on a CI runner. Local
// 1-core measurements sit around 6 s; the budget leaves ~20× headroom
// for slow shared runners while still catching a construction-path
// regression back to the per-node serial/JSON boot (which would take
// minutes). Override with MEGAFLEET100K_BUDGET (a Go duration) when
// qualifying slower hardware.
const megafleet100kBudget = 2 * time.Minute

// BenchmarkScenarioMegafleet100000 is the PR 3 scale gate for the
// parallel, template-based fleet builder: 100,000 simulated nodes in
// 250 racks boot through the full control plane (kernels, suites,
// daemons, DHCP, DNS, placement) and survive churn plus a fabric
// brownout — inside a hard wall-time budget.
func BenchmarkScenarioMegafleet100000(b *testing.B) {
	budget := megafleet100kBudget
	if s := os.Getenv("MEGAFLEET100K_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			b.Fatalf("bad MEGAFLEET100K_BUDGET %q: %v", s, err)
		}
		budget = d
	}
	r := runScenario(b, "megafleet-100000")
	if r.Nodes < 100000 {
		b.Fatalf("megafleet ran on %d nodes, want ≥ 100000", r.Nodes)
	}
	if r.Metrics["faults_injected"] == 0 {
		b.Fatal("no faults injected at scale")
	}
	if total := r.BuildWallTime + r.WallTime; total > budget {
		b.Fatalf("scale gate blew its wall-time budget: built in %v + ran in %v > %v",
			r.BuildWallTime.Round(time.Millisecond), r.WallTime.Round(time.Millisecond), budget)
	}
	b.ReportMetric(r.BuildWallTime.Seconds(), "build-s")
	b.ReportMetric(float64(r.Nodes), "nodes")
}

// BenchmarkScenarioMegafleetFattree1000 runs the k=16 fat-tree
// megafleet: 1024 nodes, gravity-heavy cross-pod load, churn, and an
// edge-uplink outage. Every cross-pod cold route must be answered by
// the structured synthesis — the LinkFail prunes ECMP fans but never
// leaves the provable two-tier shape, so fallbacks stay at zero here
// too.
func BenchmarkScenarioMegafleetFattree1000(b *testing.B) {
	r := runScenario(b, "megafleet-fattree-1000")
	if r.Nodes < 1000 {
		b.Fatalf("fat-tree megafleet ran on %d nodes, want ≥ 1000", r.Nodes)
	}
	if r.Metrics["route_synth_hits"] == 0 {
		b.Fatal("route synthesis never engaged on the fat-tree")
	}
	if fb := r.Metrics["dijkstra_fallbacks"]; fb != 0 {
		b.Fatalf("%v Dijkstra fallbacks on the k=16 fat-tree", fb)
	}
	b.ReportMetric(float64(r.Nodes), "nodes")
}

// megafleetFattree100kBudget is the wall-time budget of the 10⁵-node
// fat-tree scale gate. The k=74 fabric wires ~104k cables across three
// switch tiers, so construction dominates; the budget mirrors the
// multi-root 100k gate's headroom policy. Override with
// MEGAFLEET_FATTREE100K_BUDGET (a Go duration) when qualifying slower
// hardware.
const megafleetFattree100kBudget = 4 * time.Minute

// BenchmarkScenarioMegafleetFattree100000 is the PR 10 scale gate for
// cross-pod route synthesis: 101,306 nodes in a k=74 fat-tree where
// the gravity mix makes almost every cold route cross-pod. All links
// stay up, so a single Dijkstra fallback means the synthesis failed to
// cover a provable shape — at this scale one fallback settles the
// whole 100k-node fabric, which is exactly the cost the synthesis
// exists to avoid. The gate therefore requires zero fallbacks, not
// just a fast run.
func BenchmarkScenarioMegafleetFattree100000(b *testing.B) {
	budget := megafleetFattree100kBudget
	if s := os.Getenv("MEGAFLEET_FATTREE100K_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			b.Fatalf("bad MEGAFLEET_FATTREE100K_BUDGET %q: %v", s, err)
		}
		budget = d
	}
	r := runScenario(b, "megafleet-fattree-100000")
	if r.Nodes < 100000 {
		b.Fatalf("fat-tree megafleet ran on %d nodes, want ≥ 100000", r.Nodes)
	}
	if r.Metrics["route_synth_hits"] == 0 {
		b.Fatal("route synthesis never engaged on the fat-tree")
	}
	if fb := r.Metrics["dijkstra_fallbacks"]; fb != 0 {
		b.Fatalf("%v Dijkstra fallbacks on an all-links-up fat-tree; cross-pod synthesis must cover every pair", fb)
	}
	if total := r.BuildWallTime + r.WallTime; total > budget {
		b.Fatalf("fat-tree scale gate blew its wall-time budget: built in %v + ran in %v > %v",
			r.BuildWallTime.Round(time.Millisecond), r.WallTime.Round(time.Millisecond), budget)
	}
	b.ReportMetric(r.BuildWallTime.Seconds(), "build-s")
	b.ReportMetric(float64(r.Nodes), "nodes")
}

// megafleet1MBudget is the wall-time budget of the 10⁶-node scale
// gate: construction plus the full fault-and-traffic timeline. A
// single-core reference box builds the 1,000,192-node fleet in ~50 s
// and runs the 20 s timeline in well under a second (lazy accounting,
// parallel solving, hierarchical meters, synthesised routes); ten
// minutes leaves slow shared CI runners an order of magnitude of
// headroom while still catching a regression of the run phase back to
// whole-fleet-per-instant costs. Override with MEGAFLEET1M_BUDGET.
const megafleet1MBudget = 10 * time.Minute

// BenchmarkScenarioMegafleet1000000 is the PR 4 scale gate for the
// run-phase kernel: a million-plus simulated nodes (256 racks × 3907,
// the /20 addressing plan's territory) boot through the fleet builder,
// then survive node churn and a fabric brownout under background
// traffic — inside a hard wall-time budget covering build and run.
func BenchmarkScenarioMegafleet1000000(b *testing.B) {
	budget := megafleet1MBudget
	if s := os.Getenv("MEGAFLEET1M_BUDGET"); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil {
			b.Fatalf("bad MEGAFLEET1M_BUDGET %q: %v", s, err)
		}
		budget = d
	}
	r := runScenario(b, "megafleet-1000000")
	if r.Nodes < 1000000 {
		b.Fatalf("megafleet ran on %d nodes, want ≥ 1,000,000", r.Nodes)
	}
	if r.Metrics["faults_injected"] == 0 {
		b.Fatal("no faults injected at scale")
	}
	if r.Metrics["route_synth_hits"] == 0 {
		b.Fatal("structured route synthesis never engaged at scale")
	}
	if total := r.BuildWallTime + r.WallTime; total > budget {
		b.Fatalf("scale gate blew its wall-time budget: built in %v + ran in %v > %v",
			r.BuildWallTime.Round(time.Millisecond), r.WallTime.Round(time.Millisecond), budget)
	}
	b.ReportMetric(r.BuildWallTime.Seconds(), "build-s")
	b.ReportMetric(r.WallTime.Seconds(), "run-s")
	b.ReportMetric(float64(r.Nodes), "nodes")
}
