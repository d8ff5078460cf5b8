// P2pcloud: the paper's Section III "peer-to-peer Cloud management
// system" — no pimaster. Every Pi runs a gossip agent; membership
// converges epidemically, a node failure is detected by timeout, and any
// surviving node answers placement queries from its own gossiped view.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/p2p"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cloud, err := core.New(core.Config{Seed: 5})
	if err != nil {
		return err
	}
	defer cloud.Close()

	// Start a gossip agent on all 56 Pis.
	cloud.Mu.Lock()
	mesh := p2p.NewMesh(cloud.Engine, cloud.Net, cloud.Ctrl, p2p.Config{})
	for i, node := range cloud.Nodes() {
		agent, err := mesh.Join(node.Host)
		if err != nil {
			cloud.Mu.Unlock()
			return err
		}
		agent.SetLoad(p2p.Load{
			MemUsed:  node.Suite().Kernel().MemUsed(),
			MemTotal: node.Suite().Kernel().MemTotal(),
		})
		_ = i
	}
	cloud.Mu.Unlock()

	// Watch convergence.
	total := len(cloud.Nodes())
	for _, after := range []time.Duration{5 * time.Second, 10 * time.Second, 15 * time.Second} {
		if err := cloud.RunFor(5 * time.Second); err != nil {
			return err
		}
		cloud.Mu.Lock()
		conv := mesh.ConvergedViews(total)
		cloud.Mu.Unlock()
		fmt.Printf("t=%-4v %d/%d agents see the full membership\n", after, conv, total)
	}

	// Kill a management daemon; the mesh notices without any master.
	victim := cloud.Nodes()[20]
	fmt.Printf("\nstopping the agent on %s\n", victim.Name)
	cloud.Mu.Lock()
	mesh.Stop(victim.Host)
	cloud.Mu.Unlock()
	if err := cloud.RunFor(20 * time.Second); err != nil {
		return err
	}
	cloud.Mu.Lock()
	observer := mesh.Agent(cloud.Nodes()[0].Host)
	status := observer.Members()[victim.Host]
	alive := observer.AliveCount()
	cloud.Mu.Unlock()
	fmt.Printf("agent on %s now sees %s as %s (%d alive)\n",
		cloud.Nodes()[0].Name, victim.Name, status, alive)

	// Decentralised placement: ask three different nodes where a new
	// 30 MiB container should go; each answers from gossip alone.
	fmt.Println("\ndecentralised placement answers:")
	cloud.Mu.Lock()
	for _, idx := range []int{0, 27, 55} {
		asker := mesh.Agent(cloud.Nodes()[idx].Host)
		host, err := asker.Place(p2p.PlaceRequest{MemBytes: 30 * hw.MiB, MaxContainers: 3})
		if err != nil {
			cloud.Mu.Unlock()
			return err
		}
		fmt.Printf("  asked %-12s → place on %s\n", cloud.Nodes()[idx].Name, host)
	}
	cloud.Mu.Unlock()
	return nil
}
