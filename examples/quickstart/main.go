// Quickstart: boot the published 56-Pi cloud, spawn the three Fig. 3
// application containers through pimaster, inspect the result and read
// the power meter — the five-minute tour of the public API.
package main

import (
	"fmt"
	"log"
	"net/http/httptest"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/pimaster"
	"repro/internal/restapi"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Boot the paper's cloud: 4 racks × 14 Raspberry Pi Model B.
	cloud, err := core.New(core.Config{Seed: 1})
	if err != nil {
		return err
	}
	defer cloud.Close()
	fmt.Print(cloud.Describe())

	// 2. Spawn one container of each application image (Fig. 3) through
	// pimaster: placement, DHCP lease, DNS name and SDN label included.
	for _, img := range []string{"webserver", "database", "hadoop"} {
		rec, err := cloud.Master.SpawnVM(pimaster.SpawnVMRequest{
			Name:  "demo-" + img,
			Image: img,
		})
		if err != nil {
			return err
		}
		fmt.Printf("spawned %-15s on %s  ip=%s  fqdn=%s\n", rec.Name, rec.Node, rec.IP, rec.FQDN)
	}

	// 3. Let the containers boot (SD-card reads take simulated time).
	if err := cloud.Settle(); err != nil {
		return err
	}

	// 4. Inspect one node over its real REST API, served on a local
	// listener the way a remote client reaches a Pi.
	rec, err := cloud.Master.VM("demo-webserver")
	if err != nil {
		return err
	}
	node, err := cloud.NodeByName(rec.Node)
	if err != nil {
		return err
	}
	daemon := httptest.NewServer(node.Daemon().Handler())
	defer daemon.Close()
	st, err := restapi.NewClient(daemon.URL, daemon.Client()).Status()
	if err != nil {
		return err
	}
	fmt.Printf("node %s: %d containers, %d/%d MiB, %.2f W\n",
		st.Node, st.Containers, st.MemUsed/hw.MiB, st.MemTotal/hw.MiB, st.PowerWatts)

	// 5. The whole-cloud wall-socket reading (Section III).
	p := cloud.Master.Power()
	fmt.Printf("cloud draw: %.1f W — single trailing socket ok: %v (limit %.0f W)\n",
		p.TotalWatts, p.SocketOK, p.SocketLimitW)
	return nil
}
