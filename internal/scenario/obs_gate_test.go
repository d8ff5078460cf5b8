package scenario

// The zero-perturbation gate of the observability layer: running the
// full catalog with every observation channel wide open — a span
// tracer attached through all layers, phase profiling accumulating
// wall time inside the flow solver, and a metrics registry gathered
// and serialized to Prometheus text at every sample boundary — must
// reproduce the unobserved run's trace digest, event count and metrics
// bit for bit. Instruments and spans may only read state the kernel
// already maintains (or keep counts outside AppendState); this test is
// what keeps that contract honest as layers grow new series.
//
// The name carries "TraceDigest" so `make determinism-single-core`
// picks it up alongside the other digest gates.

import (
	"io"
	"testing"

	"repro/internal/obs"
)

// executeObserved runs spec with tracing, profiling and per-slice
// registry scrapes all enabled, returning the report and the tracer.
func executeObserved(t *testing.T, spec Spec) (*Report, *obs.Tracer) {
	t.Helper()
	r, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cloud.Close()
	tr := obs.NewTracer(obs.DefaultTraceCap)
	r.SetTracer(tr)
	r.Cloud.Net.EnableProfiling(true)

	reg := obs.NewRegistry()
	reg.RegisterCollector(func(e *obs.Emitter) {
		ks := r.Cloud.KernelStats()
		e.Gauge("sim_time_seconds", ks.Now.Seconds())
		e.Counter("sched_events_fired_total", float64(ks.Sched.Fired))
		e.Counter("sched_tombstones_total", float64(ks.Sched.Tombstones))
		e.Counter("net_flushes_total", float64(ks.Net.Flushes))
		e.Counter("net_flows_committed_total", float64(ks.Net.FlowsCommitted))
		e.Counter("sdn_route_cache_hits_total", float64(ks.Sdn.RouteCacheHits))
		e.Counter("sdn_dijkstra_fallbacks_total", float64(ks.Sdn.DijkstraFallbacks))
		e.Gauge("power_watts", ks.PowerW)
	})

	slice := spec.SampleEvery
	if slice <= 0 {
		slice = spec.Duration / 8
	}
	for r.Offset() < spec.Duration {
		next := r.Offset() + slice
		if next > spec.Duration {
			next = spec.Duration
		}
		if err := r.RunTo(next); err != nil {
			t.Fatal(err)
		}
		// A full scrape at the paused boundary — exactly what a
		// /v1/metrics GET does mid-advance.
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return rep, tr
}

// TestZeroPerturbationTraceDigest drives every catalog scenario fully
// observed and requires the result identical to the unobserved
// baseline. The six pinned fast-catalog digests are re-checked against
// scenarioDigests directly, so an observed run can not even drift in
// lockstep with an unobserved one.
func TestZeroPerturbationTraceDigest(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = shrinkForGate(spec)
			base := kernelBaseline(t, name)

			rep, tr := executeObserved(t, spec)
			requireIdentical(t, "unobserved vs traced+scraped", base, rep)
			if want, pinned := scenarioDigests[name]; pinned {
				if got := rep.TraceDigest(); got != want {
					t.Fatalf("%s observed-run digest drifted from the pinned value:\n  got  %s\n  want %s",
						name, got, want)
				}
			}
			if tr.Len() == 0 {
				t.Fatalf("tracer recorded no spans — observation was not actually on")
			}
			// The run must have produced real spans of each wired
			// category: scenario run-to slices and netsim flushes.
			cats := map[string]int{}
			for _, sp := range tr.Spans() {
				cats[sp.Cat]++
			}
			for _, cat := range []string{"scenario", "netsim"} {
				if cats[cat] == 0 {
					t.Errorf("no %q spans recorded (got %v)", cat, cats)
				}
			}
			// Phase profiling must have attributed wall time to the
			// solver (the report surfaces it via metrics only when
			// profiling is on — the baseline has none).
			if rep.Metrics["phase_flush_wall_s"] <= 0 {
				t.Errorf("phase profiling recorded no flush wall time")
			}
		})
	}
}
