// Command picloud boots the full 56-node Glasgow Raspberry Pi Cloud and
// serves pimaster's REST API and web control panel (Fig. 4) on a real
// HTTP listener while the simulation tracks the wall clock.
//
// Usage:
//
//	picloud -addr :8080 -speed 1.0
//	picloud -scenario rack-blackout -speed 10
//	picloud -scenarios
//
// Then browse http://localhost:8080/panel, or drive the API with pictl.
// With -scenario, the named canned scenario's traffic and fault timeline
// replay against the live cloud while the API serves, so the panel shows
// a fleet under fire.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/core"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/topology"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address for pimaster")
	speed := flag.Float64("speed", 1.0, "virtual seconds per wall second")
	placer := flag.String("placer", "best-fit", "default placement algorithm")
	scen := flag.String("scenario", "", "canned scenario to replay against the live cloud (see -scenarios)")
	listScen := flag.Bool("scenarios", false, "list canned scenarios and exit")
	// The fleet shape, fabric and seed flags are the cliconfig surface
	// shared with piscale and piscaled; picloud's defaults stay the
	// published 56-node PiCloud.
	common := cliconfig.Common{
		Racks:        topology.DefaultRacks,
		HostsPerRack: topology.DefaultHostsPerRack,
		Fabric:       "multi-root-tree",
		Seed:         -1,
	}
	common.Register(flag.CommandLine)
	flag.Parse()

	if *listScen {
		fmt.Print("canned scenarios:\n" + scenario.Describe())
		return
	}
	if err := run(*addr, *speed, common, *placer, *scen); err != nil {
		fmt.Fprintln(os.Stderr, "picloud:", err)
		os.Exit(1)
	}
}

func run(addr string, speed float64, common cliconfig.Common, placerName, scenarioName string) error {
	fabric, err := cliconfig.ParseFabric(common.Fabric)
	if err != nil {
		return err
	}
	pl, err := placement.ByName(placerName)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Racks:        common.Racks,
		HostsPerRack: common.HostsPerRack,
		Fabric:       fabric,
		Placer:       pl,
	}
	if common.Seed >= 0 {
		cfg.Seed = common.Seed
	}
	cloud, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer cloud.Close()

	// Housekeeping: per-node monitoring samples and DHCP lease sweeping
	// run on the simulation clock.
	cloud.Mu.Lock()
	for _, node := range cloud.Nodes() {
		node.Daemon.StartSampling(5 * time.Second)
	}
	cloud.Master.StartLeaseSweeper(15 * time.Minute)
	cloud.Mu.Unlock()

	fmt.Printf("PiCloud up: %d nodes in %d racks on a %s fabric\n",
		len(cloud.Nodes()), common.Racks, fabric)
	fmt.Printf("idle power draw: %.1f W\n", cloud.PowerDraw())
	host := addr
	if strings.HasPrefix(host, ":") {
		host = "localhost" + host
	}
	fmt.Printf("pimaster: http://%s/panel\n", host)

	stop := make(chan struct{})

	if scenarioName != "" {
		spec, err := scenario.Catalog(scenarioName)
		if err != nil {
			return err
		}
		run, err := scenario.Install(cloud, spec)
		if err != nil {
			return err
		}
		run.OnEvent = func(ev scenario.TraceEvent) { fmt.Println("scenario:", ev) }
		fmt.Printf("scenario %s installed: %s\n", spec.Name, spec.Description)
		go run.DriveActions(speed, stop)
	}

	go cloud.DriveRealTime(speed, stop)

	srv := &http.Server{Addr: addr, Handler: cloud.Master.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		close(stop)
		return err
	case <-sig:
		fmt.Println("\nshutting down")
		close(stop)
		return srv.Close()
	}
}
