// Consolidation: the paper's cautionary tale, live. A web farm spread
// over all four racks serves steady traffic; the power-aware planner
// then drains lightly-used Pis so they can be switched off. Power drops
// by an order of magnitude — and the p99 latency explodes, because the
// consolidated nodes' 100 Mb/s uplinks saturate. "A naive consolidation
// algorithm may improve server resource usage at the expense of frequent
// episodes of network congestion" (Section III).
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/pimaster"
	"repro/internal/placement"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cloud, err := core.New(core.Config{Seed: 11, Placer: placement.WorstFit{}})
	if err != nil {
		return err
	}
	defer cloud.Close()

	// Deploy 8 web replicas, spread for resilience by worst-fit.
	var servers []*workload.WebServer
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("web-%02d", i)
		rec, err := cloud.Master.SpawnVM(pimaster.SpawnVMRequest{Name: name, Image: "webserver"})
		if err != nil {
			return err
		}
		if err := cloud.Settle(); err != nil {
			return err
		}
		ep, err := cloud.Endpoint(name)
		if err != nil {
			return err
		}
		srv, err := workload.NewWebServer(cloud.Fabric(), ep, workload.WebServerConfig{ResponseBytes: hw.MiB})
		if err != nil {
			return err
		}
		servers = append(servers, srv)
		node, err := cloud.NodeByName(rec.Node)
		if err != nil {
			return err
		}
		fmt.Printf("replica %s on %s (rack %d)\n", name, rec.Node, node.Rack)
	}
	farm, err := workload.NewWebFarm(servers...)
	if err != nil {
		return err
	}
	var clients []workload.Endpoint
	for rack := 0; rack < 4; rack++ {
		clients = append(clients,
			workload.Endpoint{Host: cloud.Topo.Racks[rack][12]},
			workload.Endpoint{Host: cloud.Topo.Racks[rack][13]})
	}
	measure := func(tag string) error {
		gen, err := workload.NewLoadGen(cloud.Fabric(), farm, clients, workload.LoadGenConfig{
			RatePerSecond: 60, Duration: 20 * time.Second,
		})
		if err != nil {
			return err
		}
		cloud.Mu.Lock()
		gen.Start()
		cloud.Mu.Unlock()
		if err := cloud.RunFor(20 * time.Second); err != nil {
			return err
		}
		if err := cloud.Settle(); err != nil {
			return err
		}
		fmt.Printf("%s: draw %.1f W, p50 %.0f ms, p99 %.0f ms (%d ok / %d failed)\n",
			tag, cloud.PowerDraw(),
			gen.Latency.Quantile(0.5), gen.Latency.Quantile(0.99),
			gen.Completed, gen.Failed)
		return nil
	}
	if err := measure("before consolidation"); err != nil {
		return err
	}

	// Plan the naive consolidation and execute it with live migrations.
	cloud.Mu.Lock()
	view := &placement.View{Locate: map[string]netsim.NodeID{}}
	var loads []placement.ContainerLoad
	for _, n := range cloud.Nodes() {
		k := n.Suite().Kernel()
		view.Nodes = append(view.Nodes, placement.NodeView{
			ID: n.Host, Rack: n.Rack,
			CPU: k.Spec().CPU, MemTotal: k.MemTotal(), MemUsed: k.MemUsed(),
			Containers: n.Suite().Count(), MaxContainers: 3, PoweredOn: true,
		})
		for _, cn := range n.Suite().List() {
			view.Locate[cn] = n.Host
			mem, _ := n.Suite().MemUsedBytes(cn)
			loads = append(loads, placement.ContainerLoad{Name: cn, Node: n.Host, MemBytes: mem})
		}
	}
	plan := placement.PlanConsolidation(view, loads, placement.Policy{})
	cloud.Mu.Unlock()
	fmt.Printf("\nconsolidation plan: %d migrations\n", len(plan))
	for _, step := range plan {
		dst, err := cloud.NodeByHost(step.To)
		if err != nil {
			return err
		}
		if err := cloud.Master.MigrateVM(step.Container, pimaster.MigrateVMRequest{TargetNode: dst.Name},
			func(rep migration.Report) {
				fmt.Printf("  migrated %s %s→%s (downtime %v)\n",
					rep.Container, rep.From, rep.To, rep.Downtime.Round(time.Millisecond))
			}); err != nil {
			return err
		}
		if err := cloud.Settle(); err != nil {
			return err
		}
	}
	// Switch the drained Pis off.
	off := 0
	for _, n := range cloud.Nodes() {
		cloud.Mu.Lock()
		empty := n.Suite().RunningCount() == 0
		cloud.Mu.Unlock()
		if empty {
			if err := cloud.PowerOffNode(n.Name); err == nil {
				off++
			}
		}
	}
	fmt.Printf("powered off %d of %d Pis\n\n", off, len(cloud.Nodes()))

	// Re-bind the farm to the containers' new homes and re-measure.
	for _, srv := range servers {
		ep, err := cloud.Endpoint(srv.Endpoint.Container)
		if err != nil {
			return err
		}
		srv.Endpoint = ep
	}
	return measure("after consolidation ")
}
