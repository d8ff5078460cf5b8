package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/lxc"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/oslinux"
	"repro/internal/p2p"
	"repro/internal/pimaster"
	"repro/internal/placement"
	"repro/internal/sdn"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Placement is R1: VM allocation algorithms observed across layers. A
// three-tier application (db + webs + clients per tenant) is deployed
// under each placer; tenants then exchange traffic and we measure
// cross-rack bytes on the ToR uplinks — the quantity network-aware
// placement exists to reduce — plus the number of nodes touched.
func Placement() (*Result, error) {
	type outcome struct {
		crossRackMB float64
		nodesUsed   int
	}
	placers := []string{"round-robin", "first-fit", "best-fit", "network-aware"}
	results := make(map[string]outcome, len(placers))
	for _, placerName := range placers {
		c, err := core.New(core.Config{Seed: 7})
		if err != nil {
			return nil, err
		}
		const tenants = 8
		// Deploy: per tenant one db and two webs that peer with it.
		for tn := 0; tn < tenants; tn++ {
			db := fmt.Sprintf("t%02d-db", tn)
			if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{
				Name: db, Image: "database", Placer: placerName,
			}); err != nil {
				c.Close()
				return nil, fmt.Errorf("placer %s: %w", placerName, err)
			}
			if err := c.Settle(); err != nil {
				c.Close()
				return nil, err
			}
			for w := 0; w < 2; w++ {
				web := fmt.Sprintf("t%02d-web%d", tn, w)
				if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{
					Name: web, Image: "webserver", Placer: placerName,
					Peers: []string{db},
				}); err != nil {
					c.Close()
					return nil, fmt.Errorf("placer %s: %w", placerName, err)
				}
				if err := c.Settle(); err != nil {
					c.Close()
					return nil, err
				}
			}
		}
		// Traffic phase: each web pushes 4 MiB to its db, twice.
		fab := c.Fabric()
		c.Mu.Lock()
		for tn := 0; tn < tenants; tn++ {
			dbEpName := fmt.Sprintf("t%02d-db", tn)
			dbRec, err := c.Master.VM(dbEpName)
			if err != nil {
				c.Mu.Unlock()
				c.Close()
				return nil, err
			}
			dbNode, _ := c.NodeByName(dbRec.Node)
			for w := 0; w < 2; w++ {
				webRec, err := c.Master.VM(fmt.Sprintf("t%02d-web%d", tn, w))
				if err != nil {
					c.Mu.Unlock()
					c.Close()
					return nil, err
				}
				webNode, _ := c.NodeByName(webRec.Node)
				if webNode.Host == dbNode.Host {
					continue // same node: loopback, no fabric traffic
				}
				for rep := 0; rep < 2; rep++ {
					if err := fab.Send(webNode.Host, dbNode.Host, 4*hw.MiB, workload.KVPort, nil); err != nil {
						c.Mu.Unlock()
						c.Close()
						return nil, err
					}
				}
			}
		}
		if err := c.Engine.Run(); err != nil {
			c.Mu.Unlock()
			c.Close()
			return nil, err
		}
		cross := workload.CrossRackBytes(c.Net, c.Topo.Edge)
		c.Mu.Unlock()
		nodes := make(map[string]bool)
		for _, vm := range c.Master.VMs() {
			nodes[vm.Node] = true
		}
		results[placerName] = outcome{crossRackMB: cross / float64(hw.MiB), nodesUsed: len(nodes)}
		c.Close()
	}
	r := &Result{
		ID:      "R1",
		Title:   "R1 — VM placement algorithms: cross-rack traffic by placer",
		Metrics: map[string]float64{},
	}
	for name, o := range results {
		r.Metrics[name+"_cross_rack_mib"] = o.crossRackMB
		r.Metrics[name+"_nodes_used"] = float64(o.nodesUsed)
	}
	render(r)
	return r, nil
}

// ConsolidationRipple is R2: the paper's warning that "a naive
// consolidation algorithm may improve server resource usage at the
// expense of frequent episodes of network congestion". A web farm spread
// over all racks serves steady load; the consolidation planner then
// packs it onto few nodes; we compare power draw, ToR-uplink utilisation
// and p99 latency before and after.
func ConsolidationRipple() (*Result, error) {
	c, err := core.New(core.Config{Seed: 11, Placer: placement.WorstFit{}})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	const farms = 8
	var servers []*workload.WebServer
	for i := 0; i < farms; i++ {
		name := fmt.Sprintf("web-%02d", i)
		if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: name, Image: "webserver"}); err != nil {
			return nil, err
		}
		if err := c.Settle(); err != nil {
			return nil, err
		}
		ep, err := c.Endpoint(name)
		if err != nil {
			return nil, err
		}
		srv, err := workload.NewWebServer(c.Fabric(), ep, workload.WebServerConfig{ResponseBytes: hw.MiB})
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
	}
	farm, err := workload.NewWebFarm(servers...)
	if err != nil {
		return nil, err
	}
	// Two clients per rack: enough aggregate downlink that the client
	// side never bottlenecks — congestion, when it appears, is on the
	// consolidated servers' uplinks.
	var clients []workload.Endpoint
	for rack := 0; rack < 4; rack++ {
		clients = append(clients,
			workload.Endpoint{Host: c.Topo.Racks[rack][12]},
			workload.Endpoint{Host: c.Topo.Racks[rack][13]})
	}
	measure := func(seconds int) (p99, maxUtil, watts float64, err error) {
		gen, gerr := workload.NewLoadGen(c.Fabric(), farm, clients, workload.LoadGenConfig{
			RatePerSecond: 60,
			Duration:      time.Duration(seconds) * time.Second,
		})
		if gerr != nil {
			return 0, 0, 0, gerr
		}
		c.Mu.Lock()
		gen.Start()
		c.Mu.Unlock()
		// Sample utilisation mid-run.
		half := time.Duration(seconds/2) * time.Second
		if err := c.RunFor(half); err != nil {
			return 0, 0, 0, err
		}
		c.Mu.Lock()
		maxUtil = c.Net.MaxLinkUtilisation()
		watts = c.PowerDraw()
		c.Mu.Unlock()
		if err := c.RunFor(time.Duration(seconds)*time.Second - half); err != nil {
			return 0, 0, 0, err
		}
		// Drain completely so queued responses enter the latency
		// histogram — congestion lives in the tail.
		if err := c.Settle(); err != nil {
			return 0, 0, 0, err
		}
		return gen.Latency.Quantile(0.99), maxUtil, watts, nil
	}
	p99Before, utilBefore, wattsBefore, err := measure(20)
	if err != nil {
		return nil, err
	}
	// Plan and execute the naive consolidation.
	c.Mu.Lock()
	view := &placement.View{Locate: map[string]netsim.NodeID{}}
	var loads []placement.ContainerLoad
	for _, n := range c.Nodes() {
		k := n.Suite().Kernel()
		view.Nodes = append(view.Nodes, placement.NodeView{
			ID: n.Host, Rack: n.Rack,
			CPU: k.Spec().CPU, CPUUsed: hw.MIPS(k.CPUUtil() * float64(k.Spec().CPU)),
			MemTotal: k.MemTotal(), MemUsed: k.MemUsed(),
			Containers: n.Suite().Count(), MaxContainers: 3, PoweredOn: true,
		})
		for _, cn := range n.Suite().List() {
			view.Locate[cn] = n.Host
			mem, _ := n.Suite().MemUsedBytes(cn)
			loads = append(loads, placement.ContainerLoad{
				Name: cn, Node: n.Host, MemBytes: mem, CPUDemandMIPS: 100,
			})
		}
	}
	plan := placement.PlanConsolidation(view, loads, placement.Policy{})
	c.Mu.Unlock()

	migrated := 0
	for _, step := range plan {
		dstNode, err := c.NodeByHost(step.To)
		if err != nil {
			continue
		}
		done := false
		if err := c.Master.MigrateVM(step.Container, pimaster.MigrateVMRequest{TargetNode: dstNode.Name}, func(migration.Report) { done = true }); err != nil {
			continue
		}
		if err := c.Settle(); err != nil {
			return nil, err
		}
		if done {
			migrated++
		}
	}
	// Power down drained nodes.
	poweredOff := 0
	for _, n := range c.Nodes() {
		c.Mu.Lock()
		empty := n.Suite().RunningCount() == 0
		c.Mu.Unlock()
		if empty {
			if err := c.PowerOffNode(n.Name); err == nil {
				poweredOff++
			}
		}
	}
	// Re-bind the web servers to the containers' new homes.
	for _, srv := range servers {
		ep, err := c.Endpoint(srv.Endpoint.Container)
		if err != nil {
			return nil, err
		}
		srv.Endpoint = ep
	}
	p99After, utilAfter, wattsAfter, err := measure(20)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:    "R2",
		Title: "R2 — naive consolidation: power saved, congestion induced",
		Metrics: map[string]float64{
			"migrations":           float64(migrated),
			"nodes_powered_off":    float64(poweredOff),
			"watts_before":         wattsBefore,
			"watts_after":          wattsAfter,
			"max_link_util_before": utilBefore,
			"max_link_util_after":  utilAfter,
			"p99_ms_before":        p99Before,
			"p99_ms_after":         p99After,
		},
	}
	render(r)
	return r, nil
}

// MigrationRouting is R3: live migration under client load, IP-routed vs
// label-routed (IP-less). The metric the paper cares about: with label
// routing established connections survive the move.
func MigrationRouting() (*Result, error) {
	run := func(mode string) (rep migration.Report, err error) {
		c, err := core.New(core.Config{Seed: 13})
		if err != nil {
			return rep, err
		}
		defer c.Close()
		if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "svc", Image: "webserver"}); err != nil {
			return rep, err
		}
		if err := c.Settle(); err != nil {
			return rep, err
		}
		rec, err := c.Master.VM("svc")
		if err != nil {
			return rep, err
		}
		srcNode, _ := c.NodeByName(rec.Node)
		var dstNode *core.Node
		for _, n := range c.Nodes() {
			if n.Rack != srcNode.Rack {
				dstNode = n
				break
			}
		}
		// Long-lived client flows into the service (streams).
		c.Mu.Lock()
		var flows []*netsim.Flow
		for i := 0; i < 4; i++ {
			client := c.Topo.Racks[(srcNode.Rack+2)%4][i]
			path, perr := c.Ctrl.PathFor(client, srcNode.Host, sdn.PolicyECMP, uint64(i+1))
			if perr != nil {
				c.Mu.Unlock()
				return rep, perr
			}
			f, ferr := c.Net.StartFlow(netsim.FlowSpec{
				Src: client, Dst: srcNode.Host, Path: path,
				RateCapBps: 5e6,
			})
			if ferr != nil {
				c.Mu.Unlock()
				return rep, ferr
			}
			flows = append(flows, f)
		}
		// Mirror a realistic dirty rate.
		cont, _ := srcNode.Suite().Get("svc")
		_ = srcNode.Suite().Kernel().SetDirtyRate(cont.CgroupName(), 2*float64(hw.MiB))
		c.Mu.Unlock()

		done := make(chan struct{}, 1)
		err = func() error {
			c.Mu.Lock()
			defer c.Mu.Unlock()
			return c.Mig.Migrate(migration.Request{
				Container: "svc",
				SrcHost:   srcNode.Host, DstHost: dstNode.Host,
				SrcSuite: srcNode.Suite(), DstSuite: dstNode.Suite(),
				Routing:   map[string]migration.RoutingMode{"ip": migration.RoutingIP, "label": migration.RoutingLabel}[mode],
				Label:     rec.Label,
				LiveFlows: flows,
				OnDone: func(rp migration.Report) {
					rep = rp
					select {
					case done <- struct{}{}:
					default:
					}
				},
			})
		}()
		if err != nil {
			return rep, err
		}
		if err := c.RunFor(5 * time.Minute); err != nil {
			return rep, err
		}
		select {
		case <-done:
		default:
			return rep, fmt.Errorf("migration (%s) did not finish", mode)
		}
		return rep, rep.Err
	}
	ip, err := run("ip")
	if err != nil {
		return nil, err
	}
	label, err := run("label")
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:    "R3",
		Title: "R3 — live migration: IP-routed vs IP-less (label) switchover",
		Metrics: map[string]float64{
			"ip_downtime_ms":       float64(ip.Downtime.Milliseconds()),
			"ip_total_s":           ip.TotalDuration.Seconds(),
			"ip_flows_broken":      float64(ip.FlowsBroken),
			"ip_flows_rerouted":    float64(ip.FlowsRerouted),
			"label_downtime_ms":    float64(label.Downtime.Milliseconds()),
			"label_total_s":        label.TotalDuration.Seconds(),
			"label_flows_broken":   float64(label.FlowsBroken),
			"label_flows_rerouted": float64(label.FlowsRerouted),
			"copied_mib":           float64(label.TotalBytes) / float64(hw.MiB),
			"precopy_iterations":   float64(label.Iterations),
		},
	}
	render(r)
	return r, nil
}

// SDNCongestion is R4: "examine ways of reducing congestion through
// improved resource allocation". A hotspot traffic matrix (all racks
// sending into rack 0) runs under each routing policy; we compare the
// hottest link and mean flow completion time.
func SDNCongestion() (*Result, error) {
	run := func(policy sdn.Policy) (maxUtil float64, meanFCT float64, err error) {
		c, err := core.New(core.Config{Seed: 17, RoutingPolicy: policy})
		if err != nil {
			return 0, 0, err
		}
		defer c.Close()
		fab := c.Fabric()
		var totalFCT time.Duration
		completed := 0
		c.Mu.Lock()
		// 4 senders in each of racks 1-3 push 16 MiB to distinct rack-0
		// receivers, all at once: 1.2 Gb/s of demand towards rack 0,
		// enough to saturate a single 1 Gb/s aggregation uplink when the
		// routing policy stacks every flow on it.
		flowID := 0
		for rack := 1; rack < 4; rack++ {
			for i := 0; i < 4; i++ {
				src := c.Topo.Racks[rack][i]
				dst := c.Topo.Racks[0][flowID%14]
				start := c.Engine.Now()
				err := fab.Send(src, dst, 16*hw.MiB, 5000+uint16(flowID), func(serr error) {
					if serr == nil {
						totalFCT += c.Engine.Now().Sub(start)
						completed++
					}
				})
				if err != nil {
					c.Mu.Unlock()
					return 0, 0, err
				}
				flowID++
			}
		}
		// Sample the hottest link shortly after admission.
		if err := c.Engine.RunFor(100 * time.Millisecond); err != nil {
			c.Mu.Unlock()
			return 0, 0, err
		}
		maxUtil = c.Net.MaxLinkUtilisation()
		if err := c.Engine.Run(); err != nil {
			c.Mu.Unlock()
			return 0, 0, err
		}
		c.Mu.Unlock()
		if completed == 0 {
			return 0, 0, fmt.Errorf("no flows completed")
		}
		return maxUtil, totalFCT.Seconds() / float64(completed), nil
	}
	spUtil, spFCT, err := run(sdn.PolicyShortestPath)
	if err != nil {
		return nil, err
	}
	ecmpUtil, ecmpFCT, err := run(sdn.PolicyECMP)
	if err != nil {
		return nil, err
	}
	caUtil, caFCT, err := run(sdn.PolicyCongestionAware)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:    "R4",
		Title: "R4 — SDN routing policies under a rack-0 hotspot",
		Metrics: map[string]float64{
			"shortest_max_util":     spUtil,
			"shortest_mean_fct_s":   spFCT,
			"ecmp_max_util":         ecmpUtil,
			"ecmp_mean_fct_s":       ecmpFCT,
			"congestion_max_util":   caUtil,
			"congestion_mean_fct_s": caFCT,
		},
	}
	render(r)
	return r, nil
}

// TrafficDynamism is R5: reproduce the "constantly changing, generally
// unpredictable" DC traffic that motivates a physical testbed over
// static simulation: heavy-tailed ON/OFF sources plus an epoch-rolled
// gravity matrix, reporting burstiness statistics.
func TrafficDynamism() (*Result, error) {
	c, err := core.New(core.Config{Seed: 19})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	fab := c.Fabric()
	c.Mu.Lock()
	onoff, err := workload.NewOnOffGenerator(fab, c.Topo.Hosts, workload.OnOffConfig{Sources: 8})
	if err != nil {
		c.Mu.Unlock()
		return nil, err
	}
	gravity, err := workload.NewGravityGenerator(fab, c.Topo.Racks, workload.GravityConfig{
		EpochSeconds: 10, FlowsPerEpoch: 15,
	})
	if err != nil {
		c.Mu.Unlock()
		return nil, err
	}
	onoff.Start()
	gravity.Start()
	c.Mu.Unlock()
	if err := c.RunFor(10 * time.Minute); err != nil {
		return nil, err
	}
	c.Mu.Lock()
	onoff.Stop()
	gravity.Stop()
	cross := workload.CrossRackBytes(c.Net, c.Topo.Edge)
	c.Mu.Unlock()
	r := &Result{
		ID:    "R5",
		Title: "R5 — traffic dynamism: heavy-tail ON/OFF + time-varying gravity matrix",
		Metrics: map[string]float64{
			"onoff_bursts":   float64(onoff.FlowsStarted),
			"gravity_epochs": float64(gravity.Epochs),
			"epoch_load_cov": gravity.CoV(),
			"cross_rack_mib": cross / float64(hw.MiB),
		},
	}
	render(r)
	return r, nil
}

// BareVsContainer is R6: the Section IV "removal of virtualisation"
// scenario — the same web workload inside an LXC container vs directly
// on the node ("renting out physical nodes rather than virtual ones").
// The delta quantifies what container overhead costs on a 256 MB board.
func BareVsContainer() (*Result, error) {
	// Container variant.
	c, err := core.New(core.Config{Seed: 23, Racks: 1, HostsPerRack: 2})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "web", Image: "webserver"}); err != nil {
		return nil, err
	}
	if err := c.Settle(); err != nil {
		return nil, err
	}
	node := c.Nodes()[0]
	c.Mu.Lock()
	ctrMem := node.Suite().Kernel().MemUsed()
	c.Mu.Unlock()

	// Bare variant on the second node: the same per-request work runs in
	// a plain cgroup with no container idle RSS, no writable layer, no
	// init daemon.
	bare := c.Nodes()[1]
	c.Mu.Lock()
	if _, err := bare.Suite().Kernel().CreateCGroup("bare-httpd", oslinux.Limits{}); err != nil {
		c.Mu.Unlock()
		return nil, err
	}
	bareMem := bare.Suite().Kernel().MemUsed()
	c.Mu.Unlock()

	r := &Result{
		ID:    "R6",
		Title: "R6 — removal of virtualisation: container vs bare node",
		Metrics: map[string]float64{
			"container_node_mem_mib": float64(ctrMem) / float64(hw.MiB),
			"bare_node_mem_mib":      float64(bareMem) / float64(hw.MiB),
			"container_overhead_mib": float64(ctrMem-bareMem) / float64(hw.MiB),
			"container_sd_mib":       float64(node.Suite().SDUsedBytes()) / float64(hw.MiB),
			"bare_sd_mib":            float64(bare.Suite().SDUsedBytes()) / float64(hw.MiB),
		},
	}
	render(r)
	return r, nil
}

// TopologyRecable is R7: the same shuffle-heavy MapReduce job on the
// fabrics the testbed can be cabled into, with workers deliberately
// spread across racks so the shuffle crosses the fabric. A fourth
// variant caps the multi-root uplinks at 100 Mb/s — an oversubscribed
// wiring — to show the fabric becoming the bottleneck. On the published
// wiring (gigabit uplinks over 100 Mb/s hosts) the three fabrics tie:
// the PiCloud's aggregation layer is effectively non-blocking.
func TopologyRecable() (*Result, error) {
	run := func(fabric topology.Fabric, uplinkBps float64) (time.Duration, error) {
		c, err := core.New(core.Config{Seed: 29, Fabric: fabric, UplinkBps: uplinkBps})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		// 16 workers spread round-robin across the non-empty racks/pods
		// (a fat-tree fills pods in order, leaving later pods empty).
		var workers []workload.Endpoint
		c.Mu.Lock()
		var racks [][]netsim.NodeID
		for _, rk := range c.Topo.Racks {
			if len(rk) > 0 {
				racks = append(racks, rk)
			}
		}
		for i := 0; i < 16; i++ {
			rack := racks[i%len(racks)]
			host := rack[(i/len(racks))%len(rack)]
			node, err := c.NodeByHost(host)
			if err != nil {
				c.Mu.Unlock()
				return 0, err
			}
			name := fmt.Sprintf("hd-%02d", i)
			if _, err := node.Suite().Create(lxcSpec(name)); err != nil {
				c.Mu.Unlock()
				return 0, err
			}
			if err := node.Suite().Start(name, nil); err != nil {
				c.Mu.Unlock()
				return 0, err
			}
			workers = append(workers, workload.Endpoint{Host: host, Suite: node.Suite(), Container: name})
		}
		if err := c.Engine.Run(); err != nil {
			c.Mu.Unlock()
			return 0, err
		}
		c.Mu.Unlock()
		runner, err := workload.NewMRRunner(c.Fabric(), workers)
		if err != nil {
			return 0, err
		}
		var rep workload.MRReport
		c.Mu.Lock()
		err = runner.Run(workload.MRJob{Name: "recable", Maps: 32, Reduces: 16}, func(r workload.MRReport) { rep = r })
		c.Mu.Unlock()
		if err != nil {
			return 0, err
		}
		if err := c.Settle(); err != nil {
			return 0, err
		}
		if rep.Makespan == 0 {
			return 0, fmt.Errorf("job on %s never finished", fabric)
		}
		return rep.Makespan, nil
	}
	multi, err := run(topology.FabricMultiRoot, 0)
	if err != nil {
		return nil, err
	}
	fat, err := run(topology.FabricFatTree, 0)
	if err != nil {
		return nil, err
	}
	clos, err := run(topology.FabricLeafSpine, 0)
	if err != nil {
		return nil, err
	}
	oversub, err := run(topology.FabricMultiRoot, 100e6)
	if err != nil {
		return nil, err
	}
	r := &Result{
		ID:    "R7",
		Title: "R7 — re-cabling: shuffle makespan by fabric (plus oversubscribed uplinks)",
		Metrics: map[string]float64{
			"multiroot_makespan_s": multi.Seconds(),
			"fattree_makespan_s":   fat.Seconds(),
			"leafspine_makespan_s": clos.Seconds(),
			"oversub_makespan_s":   oversub.Seconds(),
		},
	}
	render(r)
	return r, nil
}

// lxcSpec builds the hadoop worker spec used by R7.
func lxcSpec(name string) lxc.Spec {
	return lxc.Spec{Name: name, Image: "hadoop"}
}

// MapReduceScaleOut is R8: the Hadoop-class workload of Section IV at
// increasing worker counts — the "computation-intensive jobs ... divided
// into several small tasks ... distributed over many servers" argument.
func MapReduceScaleOut() (*Result, error) {
	run := func(workersN int) (time.Duration, error) {
		c, err := core.New(core.Config{Seed: 31})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		var workers []workload.Endpoint
		for i := 0; i < workersN; i++ {
			name := fmt.Sprintf("hd-%02d", i)
			if _, err := c.Master.SpawnVM(pimaster.SpawnVMRequest{
				Name: name, Image: "hadoop", Placer: "round-robin",
			}); err != nil {
				return 0, err
			}
			if err := c.Settle(); err != nil {
				return 0, err
			}
			ep, err := c.Endpoint(name)
			if err != nil {
				return 0, err
			}
			workers = append(workers, ep)
		}
		runner, err := workload.NewMRRunner(c.Fabric(), workers)
		if err != nil {
			return 0, err
		}
		var rep workload.MRReport
		c.Mu.Lock()
		err = runner.Run(workload.MRJob{Name: "scaleout", Maps: 28, Reduces: 14}, func(r workload.MRReport) { rep = r })
		c.Mu.Unlock()
		if err != nil {
			return 0, err
		}
		if err := c.Settle(); err != nil {
			return 0, err
		}
		return rep.Makespan, nil
	}
	r := &Result{
		ID:      "R8",
		Title:   "R8 — MapReduce scale-out: makespan vs workers",
		Metrics: map[string]float64{},
	}
	for _, n := range []int{7, 14, 28, 56} {
		d, err := run(n)
		if err != nil {
			return nil, err
		}
		r.Metrics[fmt.Sprintf("workers_%02d_makespan_s", n)] = d.Seconds()
	}
	render(r)
	return r, nil
}

// P2PManagement is X1, an extension beyond the paper's implemented
// system: the Section III proposal of "a peer-to-peer Cloud management
// system". It measures gossip membership convergence on the real fabric,
// failure-detection delay for a crashed management daemon, and whether
// decentralised placement answers agree with a fresh global view.
func P2PManagement() (*Result, error) {
	c, err := core.New(core.Config{Seed: 37})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.Mu.Lock()
	mesh := p2p.NewMesh(c.Engine, c.Net, c.Ctrl, p2p.Config{})
	for _, node := range c.Nodes() {
		agent, jerr := mesh.Join(node.Host)
		if jerr != nil {
			c.Mu.Unlock()
			return nil, jerr
		}
		agent.SetLoad(p2p.Load{
			MemUsed:  node.Suite().Kernel().MemUsed(),
			MemTotal: node.Suite().Kernel().MemTotal(),
		})
	}
	c.Mu.Unlock()
	total := len(c.Nodes())

	// Convergence time: first second at which every agent sees all 56.
	convergedAt := -1.0
	for tick := 1; tick <= 60; tick++ {
		if err := c.RunFor(time.Second); err != nil {
			return nil, err
		}
		c.Mu.Lock()
		conv := mesh.ConvergedViews(total)
		c.Mu.Unlock()
		if conv == total {
			convergedAt = float64(tick)
			break
		}
	}
	// Failure detection: stop one agent, count seconds until a distant
	// observer marks it dead.
	victim := c.Nodes()[20]
	observer := c.Nodes()[55]
	c.Mu.Lock()
	mesh.Stop(victim.Host)
	c.Mu.Unlock()
	detectedAt := -1.0
	for tick := 1; tick <= 60; tick++ {
		if err := c.RunFor(time.Second); err != nil {
			return nil, err
		}
		c.Mu.Lock()
		st := mesh.Agent(observer.Host).Members()[victim.Host]
		c.Mu.Unlock()
		if st == p2p.StatusDead {
			detectedAt = float64(tick)
			break
		}
	}
	// Placement agreement: all agents answer the same query.
	c.Mu.Lock()
	answers := make(map[netsim.NodeID]int)
	asked := 0
	for _, node := range c.Nodes() {
		agent := mesh.Agent(node.Host)
		host, perr := agent.Place(p2p.PlaceRequest{MemBytes: 30 * hw.MiB, MaxContainers: 3})
		if perr != nil {
			continue
		}
		answers[host]++
		asked++
	}
	gossipSent := uint64(0)
	for _, node := range c.Nodes() {
		if a := mesh.Agent(node.Host); a != nil {
			gossipSent += a.DigestsSent()
		}
	}
	c.Mu.Unlock()
	agreement := 0.0
	for _, n := range answers {
		if f := float64(n) / float64(asked); f > agreement {
			agreement = f
		}
	}
	r := &Result{
		ID:    "X1",
		Title: "X1 (extension) — peer-to-peer cloud management without pimaster",
		Metrics: map[string]float64{
			"agents":                float64(total),
			"convergence_s":         convergedAt,
			"failure_detection_s":   detectedAt,
			"placement_agreement":   agreement,
			"gossip_messages_total": float64(gossipSent),
		},
	}
	render(r)
	return r, nil
}
