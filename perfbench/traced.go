package main

import (
	"fmt"
	"math/rand"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/workload"
)

// layerMetrics are the per-layer numbers one traced run reports, with
// their units. README.md maps each to the end-to-end metric it should
// move.
var layerMetrics = []struct{ name, unit string }{
	{"fleet.build_s", "s"},
	{"fleet.alloc_bytes_per_node", "B"},
	{"fleet.allocs_per_node", "count"},
	{"scenario.install_s", "s"},
	{"fleet.restore_s", "s"},
	{"scenario.replay_s", "s"},
	{"core.kernel_state_s", "s"},
	{"session.journal_fsync_mean_s", "s"},
	{"session.advance_slice_mean_s", "s"},
	{"sdn.route_cache_misses", "count"},
	{"sdn.route_synth_hits", "count"},
	{"sdn.dijkstra_fallbacks", "count"},
	{"sdn.cold_route_us_p50", "us"},
	{"sdn.packet_ins", "count"},
	{"sdn.rules_installed", "count"},
	{"sdn.cache_hit_ratio", "ratio"},
	{"workload.send_us_p50", "us"},
	{"netsim.flush_s", "s"},
	{"netsim.solve_s", "s"},
	{"netsim.flushes", "count"},
	{"netsim.domains_solved", "count"},
	{"netsim.flows_committed", "count"},
	{"sim.events_fired", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.tombstones", "count"},
	{"energy.first_total_watts_s", "s"},
	{"energy.total_watts_us", "us"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles", "count"},
}

// Probe sample sizes for the post-run layer probes.
const (
	coldRouteSamples = 200
	wattsSamples     = 64
	sessionAdvances  = 8
)

// runTraced is the traced child: the same workload with an obs.Tracer
// attached, the kernel driven in fixed slices with KernelStats deltas
// recorded per slice, and every per-layer metric measured by timing a
// call into the layer's public entry points. It reports the traced
// run_s (run phase for the cold workloads, fork loop for fork-10k).
func runTraced(p plan, seed int64, index int, tmp, traceOut string) childResult {
	tr := obs.NewTracer(0)
	rec := newRecorder()
	layers := map[string]float64{}
	var res childResult

	gc0 := readGC()
	kr := probeKernel(p, seed, tr, rec, layers)
	if p.forks == 0 {
		res = kr.childResult
		setGC(layers, gc0, kr.gcEnd)
		sessionProbe(p, seed, tmp, tr, rec, layers, &res)
	} else {
		m, cleanup, err := newManager(tmp, tr)
		if err != nil {
			res.Attempted, res.Failed = p.forks, p.forks
			res.errorf("session manager: %v", err)
		} else {
			gc0 = readGC()
			res = runForks(m, p, seed, index, false, rec)
			setGC(layers, gc0, readGC())
			sessionLatencies(m, layers)
			cleanup()
		}
		res.Errors = append(res.Errors, kr.Errors...)
	}
	res.Layers = layers
	if err := rec.writeChromeTrace(traceOut, tr); err != nil {
		res.errorf("trace: %v", err)
	}
	return res
}

type kernelRun struct {
	childResult
	gcEnd gcSample
}

// probeKernel runs the workload's scenario once at kernel level: a cold
// core.New, scenario.Install, the timeline in RunTo slices with a
// kernel fingerprint captured at mid-run, then the post-run layer
// probes and a restore+replay of the mid-run instant verified against
// that fingerprint.
func probeKernel(p plan, seed int64, tr *obs.Tracer, rec *recorder, layers map[string]float64) (kr kernelRun) {
	kr.Attempted = 1
	spec, err := p.spec(seed)
	if err != nil {
		kr.errorf("spec: %v", err)
		return kr
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := rec.begin("core.New", "fleet")
	cloud, err := core.New(spec.Cloud)
	layers["fleet.build_s"] = sp.end()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		kr.errorf("build: %v", err)
		return kr
	}
	checkCold(&kr.childResult)
	nodes := float64(len(cloud.Topo.Hosts))
	layers["fleet.alloc_bytes_per_node"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / nodes
	layers["fleet.allocs_per_node"] = float64(ms1.Mallocs-ms0.Mallocs) / nodes
	cloud.SetTracer(tr)
	cloud.Net.EnableProfiling(true)

	sp = rec.begin("CloudMeter.TotalWatts (first)", "energy")
	cloud.PowerDraw()
	layers["energy.first_total_watts_s"] = sp.end()

	sp = rec.begin("scenario.Install", "scenario")
	r, err := scenario.Install(cloud, spec)
	layers["scenario.install_s"] = sp.end()
	if err != nil {
		kr.errorf("install: %v", err)
		return kr
	}

	runtime.GC() // as in runCold: the run starts from a collected heap
	at := spec.Duration / 2
	var mid core.KernelState
	ks0 := cloud.KernelStats()
	prev := ks0
	var runWall float64
	for _, off := range sliceOffsets(spec.Duration, p.slice, at) {
		sp := rec.begin("RunTo", "scenario")
		err := r.RunTo(off)
		runWall += sp.endArgs(map[string]any{"to_s": off.Seconds()})
		if err != nil {
			kr.errorf("run: %v", err)
			return kr
		}
		ks := cloud.KernelStats()
		rec.counter("kernel slice delta", sliceDelta(prev, ks))
		prev = ks
		if off == at {
			mid = cloud.KernelState()
		}
	}
	sp = rec.begin("Run.Execute", "scenario")
	rep, err := r.Execute()
	runWall += sp.end()
	kr.gcEnd = readGC()
	if err != nil {
		kr.errorf("run: %v", err)
		return kr
	}
	kr.RunS = runWall
	kr.Digest = rep.TraceDigest() + "@" + cloud.KernelState().Digest
	ks := cloud.KernelStats()
	setKernelLayers(layers, ks0, ks, runWall)
	if p.zeroFallbacks && ks.Sdn.DijkstraFallbacks != ks0.Sdn.DijkstraFallbacks {
		kr.errorf("%d Dijkstra fallbacks on an all-links-up fat-tree", ks.Sdn.DijkstraFallbacks-ks0.Sdn.DijkstraFallbacks)
	}

	if err := probeRouting(cloud, seed, rec, layers); err != nil {
		kr.errorf("routing probe: %v", err)
	}
	watts := make([]float64, wattsSamples)
	for i := range watts {
		sp := rec.begin("CloudMeter.TotalWatts", "energy")
		cloud.PowerDraw()
		watts[i] = sp.end() * 1e6
	}
	layers["energy.total_watts_us"] = median(watts)

	// Restore the construction snapshot and replay to mid-run, the way
	// a fork does, timing each step; the replayed kernel must reproduce
	// the fingerprint captured at mid-run. The first cloud is dropped
	// first so two fleets never share the heap.
	snap := cloud.Snapshot()
	cloud, r, rep = nil, nil, nil
	runtime.GC()
	sp = rec.begin("core.Restore", "fleet")
	c2, err := core.Restore(snap, -1)
	layers["fleet.restore_s"] = sp.end()
	if err != nil {
		kr.errorf("restore: %v", err)
		return kr
	}
	c2.SetTracer(tr)
	r2, err := scenario.Install(c2, spec)
	if err != nil {
		kr.errorf("install on restored cloud: %v", err)
		return kr
	}
	sp = rec.begin("Run.ReplayHistory", "scenario")
	err = r2.ReplayHistory(nil, at)
	layers["scenario.replay_s"] = sp.end()
	if err != nil {
		kr.errorf("replay: %v", err)
		return kr
	}
	sp = rec.begin("Cloud.KernelState", "core")
	got := c2.KernelState()
	layers["core.kernel_state_s"] = sp.end()
	if got != mid {
		kr.errorf("restored kernel at %v: digest %s, want %s", at, short(got.Digest), short(mid.Digest))
	}
	return kr
}

// probeRouting times Controller.PathFor over a seeded sample of host
// pairs, keeping the calls that missed the route cache, then
// Fabric.Send on the same (now cached) pairs. Hosts come from
// Topo.Hosts and go straight back to the layer.
func probeRouting(c *core.Cloud, seed int64, rec *recorder, layers map[string]float64) error {
	hosts := c.Topo.Hosts
	rng := rand.New(rand.NewSource(seed))
	var cold []float64
	var pairs [][2]int
	for tries := 0; len(cold) < coldRouteSamples && tries < 4*coldRouteSamples; tries++ {
		i, j := rng.Intn(len(hosts)), rng.Intn(len(hosts))
		if i == j {
			continue
		}
		misses := c.KernelStats().Sdn.RouteCacheMisses
		c.Mu.Lock()
		sp := rec.begin("Controller.PathFor", "sdn")
		_, err := c.Ctrl.PathFor(hosts[i], hosts[j], c.Config.RoutingPolicy, 0)
		d := sp.end()
		c.Mu.Unlock()
		if err != nil {
			return err
		}
		if c.KernelStats().Sdn.RouteCacheMisses > misses {
			cold = append(cold, d*1e6)
			pairs = append(pairs, [2]int{i, j})
		}
	}
	if len(cold) == 0 {
		return fmt.Errorf("no uncached host pair found")
	}
	layers["sdn.cold_route_us_p50"] = median(cold)
	fab := c.Fabric()
	sends := make([]float64, 0, len(pairs))
	c.Mu.Lock()
	defer c.Mu.Unlock()
	for _, pr := range pairs {
		sp := rec.begin("Fabric.Send", "workload")
		err := fab.Send(hosts[pr[0]], hosts[pr[1]], hw.MiB, workload.BackgroundPort, nil)
		sends = append(sends, sp.end()*1e6)
		if err != nil {
			return err
		}
	}
	layers["workload.send_us_p50"] = median(sends)
	return nil
}

// sessionProbe drives the cold workload once more through the session
// service — a fresh session from the wire spec, advanced to the end in
// equal steps with a journal attached — for the session layer's
// latencies. The session must finish with the cold run's digest.
func sessionProbe(p plan, seed int64, tmp string, tr *obs.Tracer, rec *recorder, layers map[string]float64, res *childResult) {
	m, cleanup, err := newManager(tmp, tr)
	if err != nil {
		res.errorf("session manager: %v", err)
		return
	}
	defer cleanup()
	req := p.request(seed)
	spec, err := req.Resolve()
	if err != nil {
		res.errorf("spec: %v", err)
		return
	}
	sp := rec.begin("Manager.CreateSession (from spec)", "session")
	s, err := m.CreateSession("", &req)
	sp.end()
	if err != nil {
		res.errorf("session: %v", err)
		return
	}
	for i := 1; i <= sessionAdvances; i++ {
		sp := rec.begin("Session.Advance", "session")
		err := s.Advance(spec.Duration * time.Duration(i) / sessionAdvances)
		sp.end()
		if err != nil {
			res.errorf("session advance: %v", err)
			return
		}
	}
	digest, err := sessionDigest(s)
	switch {
	case err != nil:
		res.errorf("session: %v", err)
	case digest != res.Digest:
		res.errorf("session digest %s differs from the run's %s", short(digest), short(res.Digest))
	}
	s.Close()
	sessionLatencies(m, layers)
}

// sessionLatencies reads the per-session advance-slice and journal
// append (fsync included) histograms from the manager's registry,
// merged over sessions. They report means: the registry's buckets are
// a factor of four apart, so a bucket-interpolated median would read
// the same bucket midpoint on every run.
func sessionLatencies(m *session.Manager, layers map[string]float64) {
	layers["session.advance_slice_mean_s"] = histMean(m.Obs(), "pisim_session_advance_slice_seconds")
	layers["session.journal_fsync_mean_s"] = histMean(m.Obs(), "pisim_journal_append_seconds")
}

func histMean(reg *obs.Registry, name string) float64 {
	var sum float64
	var n uint64
	for _, s := range reg.Gather() {
		if s.Kind == obs.KindHistogram && s.Name == name {
			sum += s.Sum
			n += s.Count
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func sliceDelta(a, b core.KernelStats) map[string]any {
	return map[string]any{
		"events":          b.Sched.Fired - a.Sched.Fired,
		"flushes":         b.Net.Flushes - a.Net.Flushes,
		"domains_solved":  b.Net.DomainsSolved - a.Net.DomainsSolved,
		"flows_committed": b.Net.FlowsCommitted - a.Net.FlowsCommitted,
		"route_misses":    b.Sdn.RouteCacheMisses - a.Sdn.RouteCacheMisses,
		"packet_ins":      b.Sdn.PacketIns - a.Sdn.PacketIns,
		"active_flows":    b.Net.ActiveFlows,
	}
}

func setKernelLayers(layers map[string]float64, a, b core.KernelStats, runWall float64) {
	events := float64(b.Sched.Fired - a.Sched.Fired)
	layers["sim.events_fired"] = events
	layers["sim.tombstones"] = float64(b.Sched.Tombstones - a.Sched.Tombstones)
	if events > 0 {
		layers["sim.ns_per_event"] = runWall * 1e9 / events
	}
	layers["netsim.flush_s"] = (b.Net.FlushWall - a.Net.FlushWall).Seconds()
	layers["netsim.solve_s"] = (b.Net.SolveWall - a.Net.SolveWall).Seconds()
	layers["netsim.flushes"] = float64(b.Net.Flushes - a.Net.Flushes)
	layers["netsim.domains_solved"] = float64(b.Net.DomainsSolved - a.Net.DomainsSolved)
	layers["netsim.flows_committed"] = float64(b.Net.FlowsCommitted - a.Net.FlowsCommitted)
	hits := float64(b.Sdn.RouteCacheHits - a.Sdn.RouteCacheHits)
	misses := float64(b.Sdn.RouteCacheMisses - a.Sdn.RouteCacheMisses)
	layers["sdn.route_cache_misses"] = misses
	layers["sdn.route_synth_hits"] = float64(b.Sdn.RouteSynthHits - a.Sdn.RouteSynthHits)
	layers["sdn.dijkstra_fallbacks"] = float64(b.Sdn.DijkstraFallbacks - a.Sdn.DijkstraFallbacks)
	layers["sdn.packet_ins"] = float64(b.Sdn.PacketIns - a.Sdn.PacketIns)
	layers["sdn.rules_installed"] = float64(b.Sdn.RulesInstalled - a.Sdn.RulesInstalled)
	if hits+misses > 0 {
		layers["sdn.cache_hit_ratio"] = hits / (hits + misses)
	}
}

// gcSample is the Go runtime's cumulative GC CPU, total CPU and cycle
// count.
type gcSample struct {
	gcCPU, cpu float64
	cycles     uint64
}

func readGC() gcSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return gcSample{gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64(), cycles: s[2].Value.Uint64()}
}

func setGC(layers map[string]float64, a, b gcSample) {
	if cpu := b.cpu - a.cpu; cpu > 0 {
		layers["runtime.gc_cpu_fraction"] = (b.gcCPU - a.gcCPU) / cpu
	}
	layers["runtime.gc_cycles"] = float64(b.cycles - a.cycles)
}
