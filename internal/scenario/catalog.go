package scenario

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/netsim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// The canned catalog: named, reproducible runs from the paper's 4×14
// testbed up to 1000+ simulated nodes. cmd/piscale and cmd/picloud both
// expose it; the BenchmarkScenario* entries track its performance
// trajectory release over release.

// Catalog returns the spec for a named canned scenario.
func Catalog(name string) (Spec, error) {
	for _, s := range catalog() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (try one of %v)", name, Names())
}

// Names lists the canned scenarios, sorted.
func Names() []string {
	specs := catalog()
	out := make([]string, 0, len(specs))
	for _, s := range specs {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// NodeCount returns the number of nodes a spec's cloud boots — the
// per-scenario count `piscale -list` prints. It applies the same
// defaulting core.New does, so the listing always agrees with what a
// run would build.
func NodeCount(s Spec) int {
	cfg := s.Cloud
	cfg.FillDefaults()
	return cfg.Racks * cfg.HostsPerRack
}

// Describe renders a one-line-per-scenario listing with node counts.
func Describe() string {
	out := ""
	for _, n := range Names() {
		s, _ := Catalog(n)
		out += fmt.Sprintf("  %-18s %6d nodes, %-8v %s\n", n, NodeCount(s), s.Duration, s.Description)
	}
	return out
}

func catalog() []Spec {
	return []Spec{
		{
			Name:        "diurnal-day",
			Description: "a compressed day/night load curve over the published 4×14 testbed",
			Cloud:       core.Config{Seed: 11},
			Duration:    10 * time.Minute,
			Traffic: TrafficSpec{
				Diurnal: &DiurnalConfig{Period: 10 * time.Minute, FlowBytes: 2 * hw.MiB},
			},
		},
		{
			Name:        "migration-storm",
			Description: "32 VMs live-migrated at once under gravity background traffic",
			Cloud:       core.Config{Seed: 23},
			Duration:    5 * time.Minute,
			Fleet:       FleetSpec{VMs: 40, Image: "webserver", CPUDemandMIPS: 100},
			Traffic: TrafficSpec{
				Gravity: &workload.GravityConfig{EpochSeconds: 20, FlowsPerEpoch: 12},
			},
			Faults: []Fault{
				MigrationStorm{At: 60 * time.Second, Moves: 32},
			},
		},
		{
			Name:        "rack-blackout",
			Description: "a whole rack loses power for two minutes mid-run",
			Cloud:       core.Config{Seed: 31},
			Duration:    5 * time.Minute,
			// Round-robin cycles nodes in order, so ≥ 29 VMs are needed
			// before rack 2 hosts any; 36 puts 8 containers in the blast
			// radius instead of darkening empty boards.
			Fleet: FleetSpec{VMs: 36, Image: "webserver", Placer: "round-robin"},
			Traffic: TrafficSpec{
				OnOff: &workload.OnOffConfig{Sources: 12},
			},
			Faults: []Fault{
				RackFail{Rack: 2, At: 60 * time.Second, Outage: 2 * time.Minute},
			},
		},
		{
			Name:        "node-churn",
			Description: "a node crashes every 20 s and returns after a minute dark",
			Cloud:       core.Config{Seed: 41},
			Duration:    5 * time.Minute,
			Fleet:       FleetSpec{VMs: 16, Image: "database"},
			Traffic: TrafficSpec{
				OnOff: &workload.OnOffConfig{Sources: 8},
			},
			Faults: []Fault{
				NodeChurn{Start: 30 * time.Second, Every: 20 * time.Second, Outage: time.Minute},
			},
		},
		{
			Name:        "brownout-fabric",
			Description: "every ToR uplink shaped to quarter capacity, +2 ms, 2% loss",
			Cloud:       core.Config{Seed: 53},
			Duration:    5 * time.Minute,
			Traffic: TrafficSpec{
				OnOff:   &workload.OnOffConfig{Sources: 16},
				Gravity: &workload.GravityConfig{EpochSeconds: 15},
			},
			Faults: []Fault{
				Degrade{
					At: 60 * time.Second, Outage: 2 * time.Minute,
					Shaping: netsim.Shaping{CapacityScale: 0.25, ExtraLatency: 2 * time.Millisecond, Loss: 0.02},
				},
			},
		},
		{
			Name:        "flash-crowd",
			Description: "a 200-node leaf-spine scale-out hit by a steep arrival spike",
			Cloud: core.Config{
				Seed: 67, Racks: 8, HostsPerRack: 25,
				Fabric: topology.FabricLeafSpine, SpineSwitches: 4,
			},
			Duration: 5 * time.Minute,
			Traffic: TrafficSpec{
				Diurnal: &DiurnalConfig{
					Period: 5 * time.Minute, Tick: 2 * time.Second,
					BaseFlowsPerTick: 2, PeakExtraFlowsPerTick: 40,
					FlowBytes: hw.MiB,
				},
			},
		},
		{
			Name:        "megafleet-10000",
			Description: "10,000 nodes in 40 racks of 250: the incremental-solver scale gate",
			Cloud: core.Config{
				Seed: 113, Racks: 40, HostsPerRack: 250, AggSwitches: 8,
			},
			Duration: time.Minute,
			Fleet:    FleetSpec{VMs: 64, Image: "webserver"},
			Traffic: TrafficSpec{
				OnOff:   &workload.OnOffConfig{Sources: 80},
				Gravity: &workload.GravityConfig{EpochSeconds: 15, FlowsPerEpoch: 60},
			},
			Faults: []Fault{
				NodeChurn{Start: 15 * time.Second, Every: 15 * time.Second, Outage: 20 * time.Second},
				Degrade{
					At: 30 * time.Second, Outage: 20 * time.Second,
					Shaping: netsim.Shaping{CapacityScale: 0.5, ExtraLatency: time.Millisecond, Loss: 0.01},
				},
			},
		},
		{
			Name:        "megafleet-100000",
			Description: "100,000 nodes in 250 racks of 400: the fleet-builder scale gate",
			Cloud: core.Config{
				Seed: 131, Racks: 250, HostsPerRack: 400, AggSwitches: 16,
			},
			Duration: 30 * time.Second,
			Fleet:    FleetSpec{VMs: 64, Image: "webserver"},
			Traffic: TrafficSpec{
				OnOff:   &workload.OnOffConfig{Sources: 64},
				Gravity: &workload.GravityConfig{EpochSeconds: 10, FlowsPerEpoch: 40},
			},
			Faults: []Fault{
				NodeChurn{Start: 8 * time.Second, Every: 8 * time.Second, Outage: 10 * time.Second},
				Degrade{
					At: 12 * time.Second, Outage: 10 * time.Second,
					Shaping: netsim.Shaping{CapacityScale: 0.5, ExtraLatency: time.Millisecond, Loss: 0.01},
				},
			},
		},
		{
			Name:        "megafleet-1000000",
			Description: "1,000,192 nodes in 256 racks of 3907: the run-phase kernel scale gate",
			// The /20-per-rack addressing plan carries at most 256 racks
			// of 4093 hosts (fleet.MaxRacks × fleet.MaxHostsPerRack);
			// 256 × 3907 crosses the million-node line with headroom in
			// every rack pool. 32 aggregation roots keep the ECMP fan
			// wide enough that the structured route synthesis, not the
			// fabric, decides cold-routing cost.
			Cloud: core.Config{
				Seed: 151, Racks: 256, HostsPerRack: 3907, AggSwitches: 32,
			},
			Duration: 20 * time.Second,
			Fleet:    FleetSpec{VMs: 48, Image: "webserver"},
			Traffic: TrafficSpec{
				OnOff:   &workload.OnOffConfig{Sources: 48},
				Gravity: &workload.GravityConfig{EpochSeconds: 10, FlowsPerEpoch: 32},
			},
			Faults: []Fault{
				NodeChurn{Start: 6 * time.Second, Every: 6 * time.Second, Outage: 8 * time.Second},
				Degrade{
					At: 9 * time.Second, Outage: 6 * time.Second,
					Shaping: netsim.Shaping{CapacityScale: 0.5, ExtraLatency: time.Millisecond, Loss: 0.01},
				},
			},
		},
		{
			Name:        "megafleet-fattree-1000",
			Description: "1024 nodes in a k=16 fat-tree: gravity-heavy cross-pod load with churn and an uplink outage",
			// Racks are fat-tree pods (16 pods × 64 hosts fills the
			// k³/4 capacity exactly), so per-rack faults and energy
			// groups are per-pod. Every cross-pod cold route exercises
			// the edge→agg→core→agg→edge synthesis case; the LinkFail
			// prunes one pod's ECMP fan without pushing any pair
			// outside the provable shape.
			Cloud: core.Config{
				Seed: 173, Racks: 16, HostsPerRack: 64,
				Fabric: topology.FabricFatTree, FatTreeK: 16,
			},
			Duration: 2 * time.Minute,
			Fleet:    FleetSpec{VMs: 48, Image: "webserver"},
			Traffic: TrafficSpec{
				OnOff:   &workload.OnOffConfig{Sources: 32},
				Gravity: &workload.GravityConfig{EpochSeconds: 15, FlowsPerEpoch: 40},
			},
			Faults: []Fault{
				NodeChurn{Start: 20 * time.Second, Every: 15 * time.Second, Outage: 30 * time.Second},
				LinkFail{At: 45 * time.Second, Outage: 30 * time.Second},
			},
		},
		{
			Name:        "megafleet-fattree-100000",
			Description: "101,306 nodes in a k=74 fat-tree: the cross-pod route-synthesis scale gate",
			// 74 pods × 1369 hosts fills the k³/4 capacity; the
			// gravity mix makes almost every cold route cross-pod. No
			// link faults: all links stay up, so the run must finish
			// with zero Dijkstra fallbacks — at this scale a single
			// cold cross-pod fallback settles the whole 100k-node
			// fabric, which is exactly what the synthesis exists to
			// avoid (BenchmarkScenarioMegafleetFattree100000 asserts
			// it).
			Cloud: core.Config{
				Seed: 181, Racks: 74, HostsPerRack: 1369,
				Fabric: topology.FabricFatTree, FatTreeK: 74,
			},
			Duration: 30 * time.Second,
			Fleet:    FleetSpec{VMs: 64, Image: "webserver"},
			Traffic: TrafficSpec{
				OnOff:   &workload.OnOffConfig{Sources: 64},
				Gravity: &workload.GravityConfig{EpochSeconds: 10, FlowsPerEpoch: 40},
			},
		},
		{
			Name:        "megafleet-1000",
			Description: "1040 nodes in 20 racks: mixed load, churn, and a fabric brownout",
			Cloud: core.Config{
				Seed: 97, Racks: 20, HostsPerRack: 52, AggSwitches: 4,
			},
			Duration: 2 * time.Minute,
			Fleet:    FleetSpec{VMs: 48, Image: "webserver"},
			Traffic: TrafficSpec{
				OnOff:   &workload.OnOffConfig{Sources: 40},
				Gravity: &workload.GravityConfig{EpochSeconds: 15, FlowsPerEpoch: 30},
			},
			Faults: []Fault{
				NodeChurn{Start: 20 * time.Second, Every: 15 * time.Second, Outage: 30 * time.Second},
				Degrade{
					At: 45 * time.Second, Outage: 45 * time.Second,
					Shaping: netsim.Shaping{CapacityScale: 0.5, ExtraLatency: time.Millisecond, Loss: 0.01},
				},
			},
		},
	}
}
