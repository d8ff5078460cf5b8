// Observability over the assembled kernel: one read-only aggregation
// of every layer's operational counters (the numbers behind the
// /v1/metrics exposition and piscale -metrics-dump), and the tracer
// attachment point that threads a span sink through the layers.
//
// Everything here observes state the layers already maintain; nothing
// is scheduled, committed or reordered. The scenario package's
// zero-perturbation gate runs the full catalog with a tracer attached
// and stats sampled every slice and requires bit-identical trace
// digests against an unobserved run.
package core

import (
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sdn"
	"repro/internal/sim"
)

// SetTracer attaches (or detaches, with nil) a span tracer to the
// cloud: kernel-state capture spans are emitted here, and the
// network kernel emits one span per domain flush. Safe to call between
// run slices; the caller must not hold Mu.
func (c *Cloud) SetTracer(t *obs.Tracer) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	c.tracer = t
	c.Net.SetTracer(t)
}

// Tracer returns the attached tracer (nil when tracing is off).
func (c *Cloud) Tracer() *obs.Tracer { return c.tracer }

// SdnStats is the SDN controller's route-machinery counters: the cache
// hit/miss/evict/synth rates plus the derived count of full Dijkstra
// fallbacks (misses the structured synthesis could not serve).
type SdnStats struct {
	PacketIns        uint64
	RulesInstalled   uint64
	RouteCacheHits   uint64
	RouteCacheMisses uint64
	RouteCacheEvicts uint64
	RouteCacheSize   int
	RouteSynthHits   uint64
	// RouteSynthHitsByTier splits RouteSynthHits by which structured
	// case answered, indexed like sdn.SynthTierNames
	// (same-edge/adjacent/one-mid/cross-pod); the entries sum to the
	// unlabelled total.
	RouteSynthHitsByTier [len(sdn.SynthTierNames)]uint64
	DijkstraFallbacks    uint64
}

// KernelStats aggregates every kernel layer's operational counters at
// one settled instant.
type KernelStats struct {
	Now    sim.Time
	Sched  sim.SchedStats
	Net    netsim.Stats
	Sdn    SdnStats
	PowerW float64
}

// CollectKernelStats emits the canonical pisim_* series set for one
// kernel stats sample — the single naming authority shared by the
// session manager's per-session collector (labelled session=<id>) and
// piscale -metrics-dump (unlabelled).
func CollectKernelStats(e *obs.Emitter, ks KernelStats, labels ...obs.Label) {
	e.Gauge("pisim_kernel_virtual_time_seconds", ks.Now.Seconds(), labels...)
	e.Counter("pisim_sched_events_scheduled_total", float64(ks.Sched.Scheduled), labels...)
	e.Counter("pisim_sched_events_fired_total", float64(ks.Sched.Fired), labels...)
	e.Gauge("pisim_sched_events_pending", float64(ks.Sched.Pending), labels...)
	e.Counter("pisim_sched_tombstones_total", float64(ks.Sched.Tombstones), labels...)
	e.Counter("pisim_net_flushes_total", float64(ks.Net.Flushes), labels...)
	e.Counter("pisim_net_domains_solved_total", float64(ks.Net.DomainsSolved), labels...)
	e.Counter("pisim_net_flows_committed_total", float64(ks.Net.FlowsCommitted), labels...)
	e.Counter("pisim_net_flows_rescheduled_total", float64(ks.Net.FlowsRescheduled), labels...)
	e.Gauge("pisim_net_active_flows", float64(ks.Net.ActiveFlows), labels...)
	e.Counter("pisim_sdn_packet_ins_total", float64(ks.Sdn.PacketIns), labels...)
	e.Counter("pisim_sdn_rules_installed_total", float64(ks.Sdn.RulesInstalled), labels...)
	e.Counter("pisim_sdn_route_cache_hits_total", float64(ks.Sdn.RouteCacheHits), labels...)
	e.Counter("pisim_sdn_route_cache_misses_total", float64(ks.Sdn.RouteCacheMisses), labels...)
	e.Counter("pisim_sdn_route_cache_evictions_total", float64(ks.Sdn.RouteCacheEvicts), labels...)
	e.Gauge("pisim_sdn_route_cache_size", float64(ks.Sdn.RouteCacheSize), labels...)
	e.Counter("pisim_sdn_route_synth_hits_total", float64(ks.Sdn.RouteSynthHits), labels...)
	// The same count split by structured case. The unlabelled total
	// stays as its own monotone series for existing scrapes; the
	// tier=<case> series are additive bookkeeping alongside it.
	for tier, name := range sdn.SynthTierNames {
		tierLabels := append(append([]obs.Label(nil), labels...), obs.L("tier", name))
		e.Counter("pisim_sdn_route_synth_hits_total", float64(ks.Sdn.RouteSynthHitsByTier[tier]), tierLabels...)
	}
	e.Counter("pisim_sdn_dijkstra_fallbacks_total", float64(ks.Sdn.DijkstraFallbacks), labels...)
	e.Gauge("pisim_power_watts", ks.PowerW, labels...)
}

// KernelStats samples all layers under the cloud lock. The capture is
// pure reads through each layer's accessors — no flush, no event, no
// RNG draw — so interleaving samples into a run cannot change it.
// The caller must not hold Mu.
func (c *Cloud) KernelStats() KernelStats {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	return c.kernelStatsLocked()
}

// kernelStatsLocked is KernelStats for callers already holding Mu.
func (c *Cloud) kernelStatsLocked() KernelStats {
	synth := c.Ctrl.RouteSynthHits()
	misses := c.Ctrl.RouteCacheMisses()
	return KernelStats{
		Now:   c.Engine.Now(),
		Sched: c.Engine.SchedStats(),
		Net:   c.Net.Stats(),
		Sdn: SdnStats{
			PacketIns:            c.Ctrl.PacketIns(),
			RulesInstalled:       c.Ctrl.RulesInstalled(),
			RouteCacheHits:       c.Ctrl.RouteCacheHits(),
			RouteCacheMisses:     misses,
			RouteCacheEvicts:     c.Ctrl.RouteCacheEvictions(),
			RouteCacheSize:       c.Ctrl.RouteCacheSize(),
			RouteSynthHits:       synth,
			RouteSynthHitsByTier: c.Ctrl.RouteSynthHitsByTier(),
			DijkstraFallbacks:    misses - synth,
		},
		PowerW: c.Meter.TotalWatts(),
	}
}
