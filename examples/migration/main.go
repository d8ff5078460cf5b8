// Migration: live-migrate a loaded service between racks twice — once
// with classic address-bound routing (established connections die) and
// once with the paper's IP-less label routing (the SDN controller
// re-points flows and they survive). Prints downtime, copied bytes and
// per-flow fate for both.
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
	"repro/internal/sdn"
)

func main() {
	if err := run("ip"); err != nil {
		log.Fatal(err)
	}
	if err := run("label"); err != nil {
		log.Fatal(err)
	}
}

func run(routing string) error {
	cloud, err := core.New(core.Config{Seed: 3})
	if err != nil {
		return err
	}
	defer cloud.Close()

	rec, err := cloud.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "svc", Image: "database"})
	if err != nil {
		return err
	}
	if err := cloud.Settle(); err != nil {
		return err
	}
	srcNode, err := cloud.NodeByName(rec.Node)
	if err != nil {
		return err
	}
	var dstNode *core.Node
	for _, n := range cloud.Nodes() {
		if n.Rack != srcNode.Rack {
			dstNode = n
			break
		}
	}

	// The service works: pages dirty at 2 MiB/s, and three clients hold
	// long-lived connections into it.
	cloud.Mu.Lock()
	cont, err := srcNode.Suite().Get("svc")
	if err != nil {
		cloud.Mu.Unlock()
		return err
	}
	if err := srcNode.Suite().Kernel().SetDirtyRate(cont.CgroupName(), 2*float64(hw.MiB)); err != nil {
		cloud.Mu.Unlock()
		return err
	}
	var flows []*netsim.Flow
	for i := 0; i < 3; i++ {
		client := cloud.Topo.Racks[(srcNode.Rack+2)%4][i]
		path, err := cloud.Ctrl.PathFor(client, srcNode.Host, sdn.PolicyECMP, uint64(i+1))
		if err != nil {
			cloud.Mu.Unlock()
			return err
		}
		f, err := cloud.Net.StartFlow(netsim.FlowSpec{
			Src: client, Dst: srcNode.Host, Path: path, RateCapBps: 4e6,
		})
		if err != nil {
			cloud.Mu.Unlock()
			return err
		}
		flows = append(flows, f)
	}
	cloud.Mu.Unlock()

	fmt.Printf("=== %s-routed migration: %s (%s) -> %s ===\n", routing, rec.Name, srcNode.Name, dstNode.Name)
	mode := migration.RoutingLabel
	if routing == "ip" {
		mode = migration.RoutingIP
	}
	var rep migration.Report
	cloud.Mu.Lock()
	err = cloud.Mig.Migrate(migration.Request{
		Container: "svc",
		SrcHost:   srcNode.Host, DstHost: dstNode.Host,
		SrcSuite: srcNode.Suite(), DstSuite: dstNode.Suite(),
		Routing: mode, Label: rec.Label,
		LiveFlows: flows,
		OnDone:    func(r migration.Report) { rep = r },
	})
	cloud.Mu.Unlock()
	if err != nil {
		return err
	}
	if err := cloud.RunFor(5 * time.Minute); err != nil {
		return err
	}
	if rep.Err != nil {
		return rep.Err
	}
	fmt.Printf("pre-copy rounds: %d, copied %.1f MiB, converged: %v\n",
		rep.Iterations, float64(rep.TotalBytes)/float64(hw.MiB), rep.Converged)
	fmt.Printf("total duration: %v, downtime: %v\n", rep.TotalDuration.Round(time.Millisecond), rep.Downtime.Round(time.Millisecond))
	fmt.Printf("flows rerouted: %d, flows broken: %d\n", rep.FlowsRerouted, rep.FlowsBroken)
	alive := 0
	for _, f := range flows {
		if ended, _ := f.Ended(); !ended {
			alive++
		}
	}
	fmt.Printf("client connections still alive after migration: %d of %d\n\n", alive, len(flows))
	return nil
}
