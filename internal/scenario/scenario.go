// Package scenario is the declarative scenario engine: it composes
// workloads, fault injection and fleet dynamics into named, reproducible
// runs over a core.Cloud. A Spec says *what* happens — diurnal load
// curves, migration storms, rack power failures, node churn, tc-style
// network degradation, multi-rack scale-out past the published 4×14
// testbed — and the engine turns it into a deterministic timeline: the
// same Spec and seed always produce the identical event trace.
//
// Two execution modes share the same Spec. Execute builds a cloud and
// runs the whole timeline in virtual time as fast as the hardware allows
// (cmd/piscale, benchmarks, tests). Install attaches a scenario to an
// already-running cloud so cmd/picloud can replay faults and traffic in
// wall-clock time while serving its management API.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/migration"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pimaster"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Spec is a complete, declarative description of one scenario run.
type Spec struct {
	Name        string
	Description string
	// Cloud sizes and seeds the fleet (Execute mode only; Install uses
	// the live cloud it is given).
	Cloud core.Config
	// Duration is the simulated length of the run.
	Duration time.Duration
	// SampleEvery is the metrics sampling cadence (default 10s).
	SampleEvery time.Duration
	// Fleet spawns containers through pimaster before the timeline runs.
	Fleet FleetSpec
	// Traffic drives the network for the whole run.
	Traffic TrafficSpec
	// Faults fire on the timeline.
	Faults []Fault
}

// Validate rejects specs the engine cannot run.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: duration must be positive", s.Name)
	}
	for _, f := range s.Faults {
		if err := f.validate(s); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return nil
}

// FleetSpec describes the container population spawned before t0, spread
// by pimaster's placement algorithm.
type FleetSpec struct {
	// VMs is the number of containers (0 = none).
	VMs int
	// Image defaults to "webserver".
	Image string
	// Placer optionally overrides pimaster's default algorithm.
	Placer string
	// CPUDemandMIPS is the per-container reservation declared at spawn.
	CPUDemandMIPS int64
}

// TrafficSpec composes the traffic sources that run for the whole
// scenario. Any subset may be set.
type TrafficSpec struct {
	// OnOff drives Pareto ON/OFF background sources.
	OnOff *workload.OnOffConfig
	// Gravity drives the epoch-based gravity traffic matrix.
	Gravity *workload.GravityConfig
	// Diurnal modulates flow arrivals along a day-shaped curve.
	Diurnal *DiurnalConfig
}

// DiurnalConfig parameterises the diurnal load curve: flow arrivals per
// tick follow base + amplitude·(1+sin(2πt/period))/2, the classic
// day/night swing of user-facing traffic.
type DiurnalConfig struct {
	// Period of the full cycle (default 24h of virtual time; canned
	// scenarios compress it so a "day" fits a short run).
	Period time.Duration
	// Tick is the arrival-batch cadence (default 5s).
	Tick time.Duration
	// BaseFlowsPerTick is the off-peak arrival count (default 1).
	BaseFlowsPerTick int
	// PeakExtraFlowsPerTick is the additional arrivals at peak (default 8).
	PeakExtraFlowsPerTick int
	// FlowBytes is the per-flow volume (default 1 MiB).
	FlowBytes int64
}

func (c *DiurnalConfig) fillDefaults() {
	if c.Period <= 0 {
		c.Period = 24 * time.Hour
	}
	if c.Tick <= 0 {
		c.Tick = 5 * time.Second
	}
	if c.BaseFlowsPerTick <= 0 {
		c.BaseFlowsPerTick = 1
	}
	if c.PeakExtraFlowsPerTick <= 0 {
		c.PeakExtraFlowsPerTick = 8
	}
	if c.FlowBytes <= 0 {
		c.FlowBytes = hw.MiB
	}
}

// TraceEvent is one entry of the reproducible event trace.
type TraceEvent struct {
	At     sim.Time
	Kind   string
	Detail string
}

// String renders "t=<offset> <kind>: <detail>".
func (e TraceEvent) String() string {
	return fmt.Sprintf("t=%-10s %-16s %s", e.At, e.Kind, e.Detail)
}

// Sample is one metrics observation on the sampling cadence.
type Sample struct {
	At          sim.Time
	PowerW      float64
	ActiveFlows int
	MaxLinkUtil float64
}

// Report is the outcome of an executed scenario.
type Report struct {
	Name     string
	Nodes    int
	Racks    int
	SimTime  time.Duration
	WallTime time.Duration
	// BuildWallTime is the construction phase: cloud assembly plus the
	// fleet spawn, measured by New. Zero when the scenario was
	// Installed on a caller-built cloud.
	BuildWallTime time.Duration
	// EventsFired counts engine events executed during the run.
	EventsFired uint64
	Metrics     map[string]float64
	Trace       []TraceEvent
	Samples     []Sample
}

// TraceDigest returns the SHA-256 of the rendered event trace — the
// fingerprint the determinism regression gate pins: same spec, same
// seed, same build ⇒ same digest, and any change to event ordering or
// solver arithmetic shows up as a digest change.
func (r *Report) TraceDigest() string { return DigestTrace(r.Trace) }

// DigestTrace returns the SHA-256 fingerprint of a rendered event
// trace — shared by reports, checkpoint prefixes and the study diffs.
func DigestTrace(evs []TraceEvent) string {
	h := sha256.New()
	for _, ev := range evs {
		fmt.Fprintln(h, ev.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Table renders the report for terminals.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s: %d nodes in %d racks\n", r.Name, r.Nodes, r.Racks)
	if r.BuildWallTime > 0 {
		fmt.Fprintf(&b, "  cloud built in %v wall (fleet construction + spawn)\n", r.BuildWallTime.Round(time.Millisecond))
	}
	fmt.Fprintf(&b, "  simulated %v in %v wall (%.1fx real time, %d events, %.0f events/s)\n",
		r.SimTime, r.WallTime.Round(time.Millisecond),
		r.SimTime.Seconds()/math.Max(r.WallTime.Seconds(), 1e-9),
		r.EventsFired, float64(r.EventsFired)/math.Max(r.WallTime.Seconds(), 1e-9))
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-32s %12.3f\n", n, r.Metrics[n])
	}
	return b.String()
}

// timedAction is one resolved step of the timeline.
type timedAction struct {
	at   time.Duration
	name string
	run  func(*Run) error
}

// Run is an installed scenario bound to a cloud.
type Run struct {
	Spec  Spec
	Cloud *core.Cloud
	// OnEvent, when set, observes every trace event as it is recorded
	// (cmd/picloud streams them to the console).
	OnEvent func(TraceEvent)

	base      sim.Time // engine time when the run was installed
	buildWall time.Duration
	actions   []timedAction
	// cursor/offset track timeline progress: actions[:cursor] have run
	// and virtual time stands at base+offset. RunTo advances both, so a
	// run can pause at any instant (checkpoints, branching) and carry on.
	cursor  int
	offset  time.Duration
	runWall time.Duration
	trace   []TraceEvent
	samples []Sample

	// injections logs every post-install Inject with the offset it
	// happened at. Checkpoints carry the log so Fork can re-enact the
	// exact history — an injected fault must NOT be replayed as an
	// install-time fault (the install trace event records the timeline
	// action count, so front-loading an injection diverges the prefix).
	injections []Injection

	onoff   *workload.OnOffGenerator
	gravity *workload.GravityGenerator

	diurnalFlows   uint64
	diurnalStopped bool

	migStarted, migDone, migFailed int
	crashedVMs                     int
	faultsInjected                 int
}

// New builds the spec's cloud and installs the scenario on it.
func New(spec Spec) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	buildStart := time.Now()
	cloud, err := core.New(spec.Cloud)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: building cloud: %w", spec.Name, err)
	}
	r, err := Install(cloud, spec)
	if err != nil {
		cloud.Close()
		return nil, err
	}
	r.buildWall = time.Since(buildStart)
	return r, nil
}

// Install attaches the scenario to an existing cloud: spawns the fleet,
// starts traffic, and resolves the fault timeline. The caller must not be
// holding cloud.Mu.
func Install(cloud *core.Cloud, spec Spec) (*Run, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.SampleEvery <= 0 {
		spec.SampleEvery = 10 * time.Second
	}
	r := &Run{Spec: spec, Cloud: cloud}

	// Fleet: spawn through pimaster exactly as an operator would, in one
	// SpawnVMs call, which polls the fleet once and then only the node
	// each VM lands on — O(VMs) node polls instead of O(VMs × nodes) —
	// with the placements SpawnVM makes one at a time.
	fleet := spec.Fleet
	if fleet.VMs > 0 {
		image := fleet.Image
		if image == "" {
			image = "webserver"
		}
		reqs := make([]pimaster.SpawnVMRequest, fleet.VMs)
		for i := range reqs {
			reqs[i] = pimaster.SpawnVMRequest{
				Name: fmt.Sprintf("%s-vm-%04d", spec.Name, i), Image: image,
				Placer:        fleet.Placer,
				CPUDemandMIPS: fleet.CPUDemandMIPS,
			}
		}
		if _, err := cloud.Master.SpawnVMs(reqs); err != nil {
			return nil, fmt.Errorf("scenario %s: spawning fleet: %w", spec.Name, err)
		}
	}

	cloud.Mu.Lock()
	r.base = cloud.Engine.Now()
	fab := cloud.Fabric()
	var err error
	if t := spec.Traffic.OnOff; t != nil {
		r.onoff, err = workload.NewOnOffGenerator(fab, cloud.Topo.Hosts, *t)
		if err == nil {
			r.onoff.Start()
		}
	}
	if err == nil && spec.Traffic.Gravity != nil {
		r.gravity, err = workload.NewGravityGenerator(fab, cloud.Topo.Racks, *spec.Traffic.Gravity)
		if err == nil {
			r.gravity.Start()
		}
	}
	if err == nil && spec.Traffic.Diurnal != nil {
		cfg := *spec.Traffic.Diurnal
		cfg.fillDefaults()
		r.startDiurnal(fab, cfg)
	}
	if err == nil {
		r.startSampler()
	}
	cloud.Mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: starting traffic: %w", spec.Name, err)
	}

	// Resolve faults into a timeline ordered by offset; ties keep the
	// declaration order (stable sort) so runs are reproducible.
	for _, f := range spec.Faults {
		r.actions = append(r.actions, f.actions(r)...)
	}
	sort.SliceStable(r.actions, func(i, j int) bool { return r.actions[i].at < r.actions[j].at })
	r.record("install", fmt.Sprintf("%d nodes, %d vms, %d timeline actions",
		len(cloud.Nodes()), fleet.VMs, len(r.actions)))
	return r, nil
}

// record appends a trace event at the current virtual offset. The trace
// is guarded by cloud.Mu because engine callbacks (which run under the
// lock) also append via recordLocked.
func (r *Run) record(kind, detail string) {
	r.Cloud.Mu.Lock()
	ev := TraceEvent{At: r.Cloud.Engine.Now() - r.base, Kind: kind, Detail: detail}
	r.trace = append(r.trace, ev)
	cb := r.OnEvent
	r.Cloud.Mu.Unlock()
	if cb != nil {
		cb(ev)
	}
}

// recordLocked is record for callers already holding cloud.Mu (engine
// event callbacks).
func (r *Run) recordLocked(kind, detail string) {
	ev := TraceEvent{At: r.Cloud.Engine.Now() - r.base, Kind: kind, Detail: detail}
	r.trace = append(r.trace, ev)
	if r.OnEvent != nil {
		r.OnEvent(ev)
	}
}

// startDiurnal arms the day-curve arrival process. Caller holds cloud.Mu.
func (r *Run) startDiurnal(fab *workload.Fabric, cfg DiurnalConfig) {
	hosts := r.Cloud.Topo.Hosts
	engine := r.Cloud.Engine
	var tick func()
	tick = func() {
		if r.diurnalStopped {
			return
		}
		t := (engine.Now() - r.base).Seconds()
		phase := (1 + math.Sin(2*math.Pi*t/cfg.Period.Seconds()-math.Pi/2)) / 2
		n := cfg.BaseFlowsPerTick + int(phase*float64(cfg.PeakExtraFlowsPerTick)+0.5)
		rng := engine.Rand()
		for i := 0; i < n; i++ {
			a := hosts[rng.Intn(len(hosts))]
			b := hosts[rng.Intn(len(hosts))]
			if a == b {
				continue
			}
			if err := fab.Send(a, b, cfg.FlowBytes, workload.BackgroundPort, nil); err == nil {
				r.diurnalFlows++
			}
		}
		engine.Schedule(cfg.Tick, tick)
	}
	engine.Schedule(cfg.Tick, tick)
}

// startSampler arms the metrics cadence. Caller holds cloud.Mu.
func (r *Run) startSampler() {
	c := r.Cloud
	stopAt := r.base + sim.Time(r.Spec.Duration)
	var tick func()
	tick = func() {
		now := c.Engine.Now()
		if now > stopAt {
			return
		}
		r.samples = append(r.samples, Sample{
			At:          now - r.base,
			PowerW:      c.PowerDraw(),
			ActiveFlows: c.Net.ActiveFlows(),
			MaxLinkUtil: c.Net.MaxLinkUtilisation(),
		})
		c.Engine.Schedule(r.Spec.SampleEvery, tick)
	}
	c.Engine.Schedule(r.Spec.SampleEvery, tick)
}

// RunTo advances the run to the given offset into its timeline (clamped
// to the spec duration): every action due by then executes in order,
// interleaved with engine slices, and virtual time lands on exactly the
// target instant. Calling it repeatedly resumes where the previous call
// stopped — the pause points are where checkpoints are captured and
// branches fork. Master-level actions (migrations, crashes) run between
// engine slices so pimaster's REST plumbing can take the cloud lock
// itself.
func (r *Run) RunTo(target time.Duration) error {
	wallStart := time.Now()
	span := r.Cloud.Tracer().Begin("run-to", "scenario", r.base+sim.Time(r.offset))
	defer func() {
		r.runWall += time.Since(wallStart)
		span.End(r.base + sim.Time(r.offset))
	}()
	if target > r.Spec.Duration {
		target = r.Spec.Duration
	}
	for r.cursor < len(r.actions) {
		a := r.actions[r.cursor]
		if a.at > target {
			break
		}
		if a.at > r.offset {
			if err := r.Cloud.RunFor(a.at - r.offset); err != nil {
				return fmt.Errorf("scenario %s: %w", r.Spec.Name, err)
			}
			r.offset = a.at
		}
		r.cursor++
		if err := a.run(r); err != nil {
			return fmt.Errorf("scenario %s: action %s at %v: %w", r.Spec.Name, a.name, a.at, err)
		}
	}
	if r.offset < target {
		if err := r.Cloud.RunFor(target - r.offset); err != nil {
			return fmt.Errorf("scenario %s: %w", r.Spec.Name, err)
		}
		r.offset = target
	}
	return nil
}

// Offset returns the run's current position on its timeline.
func (r *Run) Offset() time.Duration { return r.offset }

// SimNow returns the cloud's absolute virtual instant at the current
// offset — what span emitters stamp (the engine clock, not the
// timeline offset: forked runs resume mid-clock).
func (r *Run) SimNow() sim.Time { return r.base + sim.Time(r.offset) }

// SetTracer attaches (or detaches, with nil) a span tracer to the
// run's cloud: RunTo emits one dual-stamped span per call, the network
// kernel one per domain flush, and every kernel-state capture (a stamp
// for a checkpoint, a journal record or a verification) one. Tracing is observation-only — the zero-perturbation gate proves
// traced runs digest bit-identically to untraced ones.
func (r *Run) SetTracer(t *obs.Tracer) { r.Cloud.SetTracer(t) }

// Inject adds a fault to an installed run's remaining timeline — the
// branch-divergence primitive: runs forked from one checkpoint inject
// different futures on top of a byte-identical shared prefix. Every
// action the fault resolves to must lie at or after the run's current
// offset; ties with already-scheduled actions keep the existing actions
// first (stable order), so injection is as deterministic as
// installation. An action at exactly the current offset stays pending
// until the next RunTo (checkpoints taken in between capture it as
// pending, and forks replay it as pending).
func (r *Run) Inject(f Fault) error {
	if err := f.validate(&r.Spec); err != nil {
		return fmt.Errorf("scenario %s: inject: %w", r.Spec.Name, err)
	}
	acts := f.actions(r)
	for _, a := range acts {
		if a.at < r.offset {
			return fmt.Errorf("scenario %s: inject: action %s at %v is before the run's offset %v",
				r.Spec.Name, a.name, a.at, r.offset)
		}
	}
	r.Spec.Faults = append(r.Spec.Faults, f)
	r.injections = append(r.injections, Injection{At: r.offset, Fault: f})
	r.actions = append(r.actions, acts...)
	rest := r.actions[r.cursor:]
	sort.SliceStable(rest, func(i, j int) bool { return rest[i].at < rest[j].at })
	return nil
}

// Injection is one logged Run.Inject: the fault and the timeline offset
// the run was paused at when it was injected. Checkpoints replay the
// log verbatim so forks reproduce injected histories bit-identically.
type Injection struct {
	At    time.Duration
	Fault Fault
}

// Execute runs the rest of the timeline in virtual time and returns the
// report. On a fresh run that is the whole scenario; after RunTo (or on
// a forked run) it finishes from the current offset.
func (r *Run) Execute() (*Report, error) {
	if err := r.RunTo(r.Spec.Duration); err != nil {
		return nil, err
	}
	r.stopTraffic()
	return r.report(r.runWall), nil
}

// DriveActions replays the fault timeline against a live cloud in wall
// time (offset/speed after start), for cmd/picloud's scenario mode. It
// blocks until the timeline is exhausted or stop closes. Traffic installed
// by Install keeps running on the simulation clock underneath.
func (r *Run) DriveActions(speed float64, stop <-chan struct{}) {
	if speed <= 0 {
		speed = 1
	}
	start := time.Now()
	for _, a := range r.actions {
		if a.at > r.Spec.Duration {
			break
		}
		deadline := start.Add(time.Duration(float64(a.at) / speed))
		select {
		case <-stop:
			return
		case <-time.After(time.Until(deadline)):
		}
		if err := a.run(r); err != nil {
			r.record("action-error", fmt.Sprintf("%s: %v", a.name, err))
		}
	}
}

// stopTraffic halts the generators under the lock.
func (r *Run) stopTraffic() {
	r.Cloud.Mu.Lock()
	if r.onoff != nil {
		r.onoff.Stop()
	}
	if r.gravity != nil {
		r.gravity.Stop()
	}
	r.diurnalStopped = true
	r.Cloud.Mu.Unlock()
}

// Trace returns the recorded events.
func (r *Run) Trace() []TraceEvent { return append([]TraceEvent(nil), r.trace...) }

// Finished reports whether the run has reached the end of its timeline.
func (r *Run) Finished() bool { return r.offset >= r.Spec.Duration }

// Report summarises the run at its current offset without finishing it:
// the session service's progress endpoint between RunTo slices. Unlike
// Execute it leaves traffic generators running, so the run can keep
// advancing afterwards.
func (r *Run) Report() *Report { return r.report(r.runWall) }

func (r *Run) report(wall time.Duration) *Report {
	c := r.Cloud
	c.Mu.Lock()
	defer c.Mu.Unlock()
	rep := &Report{
		Name:          r.Spec.Name,
		Nodes:         len(c.Nodes()),
		Racks:         len(c.Topo.Racks),
		SimTime:       time.Duration(c.Engine.Now() - r.base),
		WallTime:      wall,
		BuildWallTime: r.buildWall,
		EventsFired:   c.Engine.Fired(),
		Metrics:       map[string]float64{},
		Trace:         append([]TraceEvent(nil), r.trace...),
		Samples:       append([]Sample(nil), r.samples...),
	}
	rep.Metrics["power_w"] = c.PowerDraw()
	rep.Metrics["active_flows"] = float64(c.Net.ActiveFlows())
	rep.Metrics["max_link_util"] = c.Net.MaxLinkUtilisation()
	rep.Metrics["faults_injected"] = float64(r.faultsInjected)
	// The topology/link-state epoch after the run: it starts at the
	// fabric wiring's and every link fault and shaping change bumps it
	// (invalidating the SDN route cache), so it doubles as a
	// fault-plumbing check.
	rep.Metrics["topo_epoch"] = float64(c.Net.TopoEpoch())
	// Cold-routing telemetry: how many route-cache misses the
	// structured synthesis fast path answered without a Dijkstra, and
	// how many it could not (the fat-tree scale gates require zero
	// fallbacks on an all-links-up run).
	rep.Metrics["route_synth_hits"] = float64(c.Ctrl.RouteSynthHits())
	rep.Metrics["dijkstra_fallbacks"] = float64(c.Ctrl.RouteCacheMisses() - c.Ctrl.RouteSynthHits())
	// Cross-rack volume: every edge switch's uplink traffic, read once
	// per report.
	rep.Metrics["cross_rack_bytes"] = workload.CrossRackBytes(c.Net, c.Topo.Edge)
	if r.onoff != nil {
		rep.Metrics["onoff_flows_done"] = float64(r.onoff.FlowsDone)
		rep.Metrics["onoff_flows_failed"] = float64(r.onoff.FlowsFailed)
	}
	if r.gravity != nil {
		rep.Metrics["gravity_epochs"] = float64(r.gravity.Epochs)
		rep.Metrics["traffic_cov"] = r.gravity.CoV()
	}
	if r.Spec.Traffic.Diurnal != nil {
		rep.Metrics["diurnal_flows"] = float64(r.diurnalFlows)
	}
	if r.migStarted > 0 {
		rep.Metrics["migrations_started"] = float64(r.migStarted)
		rep.Metrics["migrations_done"] = float64(r.migDone)
		rep.Metrics["migrations_failed"] = float64(r.migFailed)
	}
	if r.crashedVMs > 0 {
		rep.Metrics["vms_crashed"] = float64(r.crashedVMs)
	}
	// Per-phase wall attribution, present only when the caller enabled
	// the network kernel's profiling (Cloud.Net.EnableProfiling): how
	// much of the run wall went to domain flushes, and within those, to
	// the solve arithmetic itself.
	if ns := c.Net.Stats(); ns.FlushWall > 0 {
		rep.Metrics["phase_flush_wall_s"] = ns.FlushWall.Seconds()
		rep.Metrics["phase_solve_wall_s"] = ns.SolveWall.Seconds()
	}
	if len(r.samples) > 0 {
		mean := 0.0
		peak := 0.0
		for _, s := range r.samples {
			mean += s.PowerW
			if s.PowerW > peak {
				peak = s.PowerW
			}
		}
		rep.Metrics["mean_power_w"] = mean / float64(len(r.samples))
		rep.Metrics["peak_power_w"] = peak
	}
	return rep
}

// Execute is the one-call batch entry point: build, run, report, close.
func Execute(spec Spec) (*Report, error) {
	r, err := New(spec)
	if err != nil {
		return nil, err
	}
	defer r.Cloud.Close()
	return r.Execute()
}

// ---------------------------------------------------------------------------
// Faults

// Fault is one declarative fault-injection entry. Implementations expand
// into timeline actions at install time.
type Fault interface {
	validate(s *Spec) error
	actions(r *Run) []timedAction
}

// LinkFail takes the duplex cable between two netsim nodes down At into
// the run and restores it after Outage. Zero A/B means rack 0's first
// uplink (see topology.Uplinks) — the paper's shared-uplink bottleneck.
// Both edges bump netsim's topology epoch (via SetLinkUp), so cached SDN
// routes across the cable are invalidated the instant it changes state.
type LinkFail struct {
	A, B   netsim.NodeID
	At     time.Duration
	Outage time.Duration
}

func (f LinkFail) validate(s *Spec) error {
	if f.Outage <= 0 {
		return fmt.Errorf("link fail needs a positive outage")
	}
	return nil
}

func (f LinkFail) endpoints(r *Run) (netsim.NodeID, netsim.NodeID) {
	if f.A != "" && f.B != "" {
		return f.A, f.B
	}
	if ups := rackUplinks(r, 0); len(ups) > 0 {
		return ups[0].From(), ups[0].To()
	}
	return f.A, f.B
}

func (f LinkFail) actions(r *Run) []timedAction {
	set := func(up bool) func(*Run) error {
		return func(r *Run) error {
			a, b := f.endpoints(r)
			r.Cloud.Mu.Lock()
			err := r.Cloud.Net.SetLinkUp(a, b, up)
			if err == nil {
				if up {
					r.recordLocked("link-up", fmt.Sprintf("%s-%s restored", a, b))
				} else {
					r.faultsInjected++
					r.recordLocked("link-down", fmt.Sprintf("%s-%s failed", a, b))
				}
			}
			r.Cloud.Mu.Unlock()
			return err
		}
	}
	return []timedAction{
		{at: f.At, name: "link-down", run: set(false)},
		{at: f.At + f.Outage, name: "link-up", run: set(true)},
	}
}

// Degrade applies tc-style shaping — capacity scaling, extra latency,
// loss — to every ToR uplink for the outage window, modelling a browned-
// out or oversubscribed fabric. Each shaped uplink bumps the topology
// epoch, flushing any cached routes over the degraded fabric.
type Degrade struct {
	At      time.Duration
	Outage  time.Duration
	Shaping netsim.Shaping
}

func (f Degrade) validate(s *Spec) error {
	if f.Outage <= 0 {
		return fmt.Errorf("degrade needs a positive outage")
	}
	if f.Shaping.Loss < 0 || f.Shaping.Loss >= 1 {
		return fmt.Errorf("degrade loss %v outside [0,1)", f.Shaping.Loss)
	}
	return nil
}

// rackUplinks lists rack's uplinks: those of its edge switches, in
// RackEdges order, each in hop order (topology.Uplinks).
func rackUplinks(r *Run, rack int) []*netsim.Link {
	var out []*netsim.Link
	for _, e := range r.Cloud.Topo.RackEdges[rack] {
		out = slices.AppendSeq(out, topology.Uplinks(r.Cloud.Net, e))
	}
	return out
}

// allUplinks lists every rack's uplinks, rack by rack.
func allUplinks(r *Run) []*netsim.Link {
	var out []*netsim.Link
	for rack := range r.Cloud.Topo.RackEdges {
		out = append(out, rackUplinks(r, rack)...)
	}
	return out
}

func (f Degrade) actions(r *Run) []timedAction {
	apply := func(r *Run) error {
		r.Cloud.Mu.Lock()
		defer r.Cloud.Mu.Unlock()
		ups := allUplinks(r)
		for _, l := range ups {
			if err := r.Cloud.Net.ShapeLink(l.From(), l.To(), f.Shaping); err != nil {
				return err
			}
		}
		r.faultsInjected++
		r.recordLocked("degrade", fmt.Sprintf("%d uplinks shaped: cap×%.2f +%v loss %.1f%%",
			len(ups), math.Max(f.Shaping.CapacityScale, 0), f.Shaping.ExtraLatency, f.Shaping.Loss*100))
		return nil
	}
	clear := func(r *Run) error {
		r.Cloud.Mu.Lock()
		defer r.Cloud.Mu.Unlock()
		ups := allUplinks(r)
		for _, l := range ups {
			if err := r.Cloud.Net.ClearShaping(l.From(), l.To()); err != nil {
				return err
			}
		}
		r.recordLocked("degrade-clear", fmt.Sprintf("%d uplinks restored", len(ups)))
		return nil
	}
	return []timedAction{
		{at: f.At, name: "degrade", run: apply},
		{at: f.At + f.Outage, name: "degrade-clear", run: clear},
	}
}

// RackFail blacks out a whole rack At into the run: every container on it
// is killed, every board powered off, and the rack's uplinks (those of
// its ToR, leaf or pod edge switches) go down. The rack powers back up
// after Outage (containers stay dead — the control plane records the
// losses, as a real blackout would leave them).
type RackFail struct {
	Rack   int
	At     time.Duration
	Outage time.Duration
}

func (f RackFail) validate(s *Spec) error {
	if f.Outage <= 0 {
		return fmt.Errorf("rack fail needs a positive outage")
	}
	if f.Rack < 0 {
		return fmt.Errorf("rack fail needs a rack index")
	}
	return nil
}

func (f RackFail) actions(r *Run) []timedAction {
	fail := func(r *Run) error {
		topo := r.Cloud.Topo
		if f.Rack >= len(topo.Racks) {
			return fmt.Errorf("rack %d out of range (%d racks)", f.Rack, len(topo.Racks))
		}
		killed := 0
		for _, host := range topo.Racks[f.Rack] {
			n, err := crashNode(r, string(host))
			if err != nil {
				return err
			}
			killed += n
		}
		r.Cloud.Mu.Lock()
		if err := setRackUplinks(r, f.Rack, false); err != nil {
			r.Cloud.Mu.Unlock()
			return err
		}
		r.faultsInjected++
		r.recordLocked("rack-fail", fmt.Sprintf("rack %d dark: %d hosts off, %d containers killed",
			f.Rack, len(topo.Racks[f.Rack]), killed))
		r.Cloud.Mu.Unlock()
		return nil
	}
	recover := func(r *Run) error {
		topo := r.Cloud.Topo
		for _, host := range topo.Racks[f.Rack] {
			if err := r.Cloud.PowerOnNode(string(host)); err != nil {
				return err
			}
		}
		r.Cloud.Mu.Lock()
		if err := setRackUplinks(r, f.Rack, true); err != nil {
			r.Cloud.Mu.Unlock()
			return err
		}
		r.recordLocked("rack-recover", fmt.Sprintf("rack %d back up", f.Rack))
		r.Cloud.Mu.Unlock()
		return nil
	}
	return []timedAction{
		{at: f.At, name: "rack-fail", run: fail},
		{at: f.At + f.Outage, name: "rack-recover", run: recover},
	}
}

// setRackUplinks raises or fails every uplink of rack. Caller holds
// Cloud.Mu.
func setRackUplinks(r *Run, rack int, up bool) error {
	for _, l := range rackUplinks(r, rack) {
		if err := r.Cloud.Net.SetLinkUp(l.From(), l.To(), up); err != nil {
			return err
		}
	}
	return nil
}

// crashNode kills every container on the node through pimaster (so DNS,
// DHCP and VM records are cleaned up) and cuts the board's power. It
// returns the number of containers killed.
func crashNode(r *Run, node string) (int, error) {
	killed := 0
	for _, vm := range r.Cloud.Master.VMsOn(node) {
		if err := r.Cloud.Master.DestroyVM(vm.Name); err != nil {
			return killed, fmt.Errorf("crashing %s on %s: %w", vm.Name, node, err)
		}
		killed++
		r.crashedVMs++
	}
	// Containers the master doesn't know about (e.g. an in-flight
	// migration target) die with the board too.
	nref, err := r.Cloud.NodeByName(node)
	if err != nil {
		return killed, err
	}
	suite := nref.Suite()
	r.Cloud.Mu.Lock()
	for _, cn := range suite.List() {
		if info, err := suite.InfoOf(cn); err == nil && info.State != "STOPPED" {
			if err := suite.Stop(cn); err != nil {
				r.Cloud.Mu.Unlock()
				return killed, fmt.Errorf("killing stray %s on %s: %w", cn, node, err)
			}
			killed++
		}
	}
	r.Cloud.Mu.Unlock()
	if err := r.Cloud.PowerOffNode(node); err != nil {
		return killed, err
	}
	return killed, nil
}

// NodeChurn power-cycles a random node every Every from Start until the
// end of the run: containers on the victim are killed, the board goes
// dark for Outage, then returns to the pool — the fleet dynamics of
// commodity hardware that dies and gets re-imaged.
type NodeChurn struct {
	Start  time.Duration
	Every  time.Duration
	Outage time.Duration
}

func (f NodeChurn) validate(s *Spec) error {
	if f.Every <= 0 {
		return fmt.Errorf("node churn needs a positive interval")
	}
	if f.Outage <= 0 {
		return fmt.Errorf("node churn needs a positive outage")
	}
	return nil
}

func (f NodeChurn) actions(r *Run) []timedAction {
	var out []timedAction
	for at := f.Start; at <= r.Spec.Duration; at += f.Every {
		out = append(out, timedAction{at: at, name: "node-churn", run: func(r *Run) error {
			// Draw the victim from the engine RNG so churn is seeded; the
			// powered-on check stays under the lock because scheduled
			// recovery events mutate meters concurrently in live mode.
			r.Cloud.Mu.Lock()
			nodes := r.Cloud.Nodes()
			victim := nodes[r.Cloud.Engine.Rand().Intn(len(nodes))]
			dark := !victim.Meter().On()
			r.Cloud.Mu.Unlock()
			if dark {
				return nil // already dark from an overlapping fault
			}
			killed, err := crashNode(r, victim.Name)
			if err != nil {
				return err
			}
			r.faultsInjected++
			r.record("node-crash", fmt.Sprintf("%s dark (%d containers killed)", victim.Name, killed))
			name := victim.Name
			later := f.Outage
			// Recovery is its own engine event so overlapping churn works.
			r.Cloud.Mu.Lock()
			r.Cloud.Engine.Schedule(later, func() {
				if err := powerOnLocked(r, name); err == nil {
					r.recordLocked("node-recover", name+" back up")
				}
			})
			r.Cloud.Mu.Unlock()
			return nil
		}})
	}
	return out
}

// powerOnLocked restores a node's power from inside an engine event
// (cloud.Mu already held by the running engine's caller).
func powerOnLocked(r *Run, name string) error {
	node, err := r.Cloud.NodeByName(name)
	if err != nil {
		return err
	}
	node.Meter().PowerOn(r.Cloud.Engine.Now())
	return nil
}

// HookFault is an escape hatch for programmatic timelines: a single
// caller-supplied action fired At into the run. It has no wire form —
// cliconfig.EncodeFault refuses it — so it cannot be journaled or
// carried by a persisted image recipe; use it for in-process
// experiments and tests (the session layer's panic-isolation coverage
// injects a hook that blows up mid-kernel).
type HookFault struct {
	At   time.Duration
	Name string
	Run  func(*Run) error
}

func (f HookFault) validate(s *Spec) error {
	if f.Run == nil {
		return fmt.Errorf("hook fault needs a Run func")
	}
	return nil
}

func (f HookFault) actions(r *Run) []timedAction {
	name := f.Name
	if name == "" {
		name = "hook"
	}
	return []timedAction{{at: f.At, name: name, run: f.Run}}
}

// MigrationStorm live-migrates Moves containers at once At into the run —
// the consolidation-gone-wild stress that hammers shared uplinks with
// pre-copy traffic.
type MigrationStorm struct {
	At    time.Duration
	Moves int
	// Routing is "label" (default) or "ip".
	Routing string
}

func (f MigrationStorm) validate(s *Spec) error {
	if f.Moves <= 0 {
		return fmt.Errorf("migration storm needs moves > 0")
	}
	if s.Fleet.VMs == 0 {
		return fmt.Errorf("migration storm needs a fleet to migrate")
	}
	return nil
}

func (f MigrationStorm) actions(r *Run) []timedAction {
	return []timedAction{{at: f.At, name: "migration-storm", run: func(r *Run) error {
		vms := r.Cloud.Master.VMs() // sorted by name
		if len(vms) == 0 {
			return fmt.Errorf("no VMs to migrate")
		}
		r.Cloud.Mu.Lock()
		rng := r.Cloud.Engine.Rand()
		nodes := r.Cloud.Nodes()
		type move struct{ vm, target string }
		var moves []move
		for i := 0; i < f.Moves && len(vms) > 0; i++ {
			k := rng.Intn(len(vms))
			vm := vms[k]
			vms = append(vms[:k], vms[k+1:]...)
			// Prefer a target in another rack.
			src, err := r.Cloud.NodeByName(vm.Node)
			if err != nil {
				continue
			}
			var target *core.Node
			for try := 0; try < 8; try++ {
				cand := nodes[rng.Intn(len(nodes))]
				if cand.Name == vm.Node {
					continue
				}
				target = cand
				if cand.Rack != src.Rack {
					break
				}
			}
			if target == nil {
				continue
			}
			moves = append(moves, move{vm: vm.Name, target: target.Name})
		}
		r.Cloud.Mu.Unlock()

		routing := f.Routing
		if routing == "" {
			routing = "label"
		}
		launched := 0
		for _, mv := range moves {
			mv := mv
			err := r.Cloud.Master.MigrateVM(mv.vm, pimaster.MigrateVMRequest{
				TargetNode: mv.target, Routing: routing,
			}, func(rep migration.Report) {
				if rep.Err != nil {
					r.migFailed++
					r.recordLocked("migration-failed", fmt.Sprintf("%s: %v", rep.Container, rep.Err))
				} else {
					r.migDone++
					r.recordLocked("migration-done", fmt.Sprintf("%s %s->%s in %v (downtime %v)",
						rep.Container, rep.From, rep.To,
						rep.TotalDuration.Round(time.Millisecond), rep.Downtime.Round(time.Millisecond)))
				}
			})
			// Counter updates take cloud.Mu: in live mode this action runs
			// in its own goroutine while completion callbacks update the
			// same counters from engine events under the lock.
			r.Cloud.Mu.Lock()
			if err != nil {
				r.migFailed++
			} else {
				launched++
				r.migStarted++
			}
			r.Cloud.Mu.Unlock()
		}
		r.faultsInjected++
		r.record("migration-storm", fmt.Sprintf("%d migrations launched (%s routing)", launched, routing))
		return nil
	}}}
}
