// Command piscale runs canned or customised scenarios headless, as fast
// as the hardware allows: it builds the scenario's cloud, replays the
// whole fault-and-traffic timeline in virtual time, and prints the
// report. It is the scale-out workhorse behind the CI bench-smoke job and
// the quickest way to watch a 1000-node fleet survive a migration storm.
//
// Usage:
//
//	piscale -list
//	piscale -scenario migration-storm
//	piscale -scenario megafleet-1000 -trace 20
//	piscale -scenario megafleet-1000 -trace-out run.trace.json -metrics-dump
//	piscale -scenario diurnal-day -racks 10 -hosts-per-rack 30 -duration 20m
//	piscale -scenario megafleet-fattree-100000 -q
//	piscale -scenario rack-blackout -checkpoint-at 45s
//	piscale -resume-from rack-blackout.ckpt.json
//	piscale -study bisect-blackout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func main() {
	list := flag.Bool("list", false, "list canned scenarios and studies, then exit")
	name := flag.String("scenario", "", "canned scenario to run (see -list)")
	study := flag.String("study", "", "canned checkpoint study to run (see -list)")
	traceTail := flag.Int("trace", 0, "print the last N trace events")
	quiet := flag.Bool("q", false, "suppress live event streaming")
	traceOut := flag.String("trace-out", "", "write the run's kernel spans as Chrome trace-event JSON to FILE (Perfetto-loadable)")
	metricsDump := flag.Bool("metrics-dump", false, "print the final kernel metrics in Prometheus text format after the run")
	// The shared surface — fleet shape, fabric, seed, run length and
	// sampling — registers through cliconfig, so piscale, picloud and
	// piscaled parse identically.
	common := cliconfig.Common{Seed: -1}
	common.Register(flag.CommandLine)
	// Checkpointing: pause the run at an instant, record the cross-layer
	// kernel fingerprint to a file, continue; a later -resume-from run
	// replays to that instant and proves byte-identity before carrying on.
	checkpointAt := flag.Duration("checkpoint-at", 0, "pause the scenario at this offset and write a checkpoint file before continuing")
	checkpointFile := flag.String("checkpoint-file", "", "checkpoint file path (default <scenario>.ckpt.json)")
	resumeFrom := flag.String("resume-from", "", "resume a scenario from a checkpoint file, verifying the kernel fingerprint at the capture instant")
	flag.Parse()

	if *list {
		fmt.Print("canned scenarios:\n" + scenario.Describe())
		fmt.Print("checkpoint studies:\n" + scenario.DescribeStudies())
		return
	}
	if *study != "" {
		rep, err := scenario.RunStudy(*study)
		if err != nil {
			fmt.Fprintln(os.Stderr, "piscale:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Table())
		return
	}
	opts := runOpts{
		common:    common,
		traceTail: *traceTail, quiet: *quiet,
		checkpointAt: *checkpointAt, checkpointFile: *checkpointFile,
		traceOut: *traceOut, metricsDump: *metricsDump,
	}
	if *resumeFrom != "" {
		if err := resume(*resumeFrom, opts); err != nil {
			fmt.Fprintln(os.Stderr, "piscale:", err)
			os.Exit(1)
		}
		return
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "piscale: -scenario is required (or -list / -study / -resume-from)")
		os.Exit(2)
	}
	if err := run(*name, opts); err != nil {
		fmt.Fprintln(os.Stderr, "piscale:", err)
		os.Exit(1)
	}
}

// runOpts carries the command-line overrides into a scenario run: the
// shared cliconfig surface plus piscale's own knobs.
type runOpts struct {
	common         cliconfig.Common
	traceTail      int
	quiet          bool
	checkpointAt   time.Duration
	checkpointFile string
	traceOut       string
	metricsDump    bool
}

// beginObs attaches the optional observation channels to a run before
// it starts: the span tracer behind -trace-out, and the solver's phase
// profiler when -metrics-dump will want wall attribution. The
// zero-perturbation gate proves neither can change the run.
func beginObs(r *scenario.Run, o runOpts) *obs.Tracer {
	if o.metricsDump {
		r.Cloud.Net.EnableProfiling(true)
	}
	if o.traceOut == "" {
		return nil
	}
	tr := obs.NewTracer(obs.DefaultTraceCap)
	r.SetTracer(tr)
	return tr
}

// finishObs drains the observation channels after the run: the Chrome
// trace-event file and the Prometheus text dump of the final kernel
// stats.
func finishObs(r *scenario.Run, o runOpts, tr *obs.Tracer) error {
	if tr != nil {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans (%d dropped) to %s — open in Perfetto (ui.perfetto.dev) or chrome://tracing\n",
			tr.Len(), tr.Dropped(), o.traceOut)
	}
	if o.metricsDump {
		reg := obs.NewRegistry()
		ks := r.Cloud.KernelStats()
		reg.RegisterCollector(func(e *obs.Emitter) {
			core.CollectKernelStats(e, ks)
			if ks.Net.FlushWall > 0 {
				e.Gauge("pisim_phase_flush_wall_seconds", ks.Net.FlushWall.Seconds())
				e.Gauge("pisim_phase_solve_wall_seconds", ks.Net.SolveWall.Seconds())
			}
		})
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// specFor resolves a catalog scenario with the command-line overrides
// applied — shared by run, checkpointing and resume (a checkpoint file
// records exactly these overrides, so the resuming process rebuilds the
// identical spec).
func specFor(name string, o runOpts) (scenario.Spec, error) {
	return o.common.SpecRequest(name).Resolve()
}

// checkpointPayload is the on-disk checkpoint: the replay recipe (the
// scenario plus the overrides that shaped it — cliconfig's wire spec,
// the same decoding the session API speaks) and the captured
// scenario.Stamp a resume must reproduce bit-for-bit, every kernel
// counter included. Construction snapshots are process-local; what
// crosses processes is the proof obligation.
type checkpointPayload struct {
	cliconfig.SpecRequest

	At           time.Duration `json:"at_ns"`
	KernelNow    int64         `json:"kernel_now_ns"`
	KernelSeq    uint64        `json:"kernel_seq"`
	KernelFired  uint64        `json:"kernel_fired"`
	KernelPend   int           `json:"kernel_pending"`
	KernelDigest string        `json:"kernel_digest"`
	TraceLen     int           `json:"trace_len"`
	TraceDigest  string        `json:"trace_digest"`
}

// stamp reads the recorded stamp back.
func (p checkpointPayload) stamp() scenario.Stamp {
	return scenario.Stamp{
		At: p.At,
		Kernel: core.KernelState{Now: sim.Time(p.KernelNow), Seq: p.KernelSeq, Fired: p.KernelFired,
			Pending: p.KernelPend, Digest: p.KernelDigest},
		TraceLen: p.TraceLen, TraceDigest: p.TraceDigest,
	}
}

func run(name string, o runOpts) error {
	spec, err := specFor(name, o)
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: %d nodes, %v simulated\n",
		spec.Name, scenario.NodeCount(spec), spec.Duration)

	r, err := scenario.New(spec)
	if err != nil {
		return err
	}
	defer r.Cloud.Close()
	tr := beginObs(r, o)
	if !o.quiet {
		r.OnEvent = func(ev scenario.TraceEvent) { fmt.Println(ev) }
	}
	if o.checkpointAt > 0 {
		if err := r.RunTo(o.checkpointAt); err != nil {
			return err
		}
		st := r.Stamp()
		payload := checkpointPayload{
			SpecRequest: o.common.SpecRequest(name),
			At:          st.At,
			KernelNow:   int64(st.Kernel.Now), KernelSeq: st.Kernel.Seq, KernelFired: st.Kernel.Fired,
			KernelPend: st.Kernel.Pending, KernelDigest: st.Kernel.Digest,
			TraceLen: st.TraceLen, TraceDigest: st.TraceDigest,
		}
		path := o.checkpointFile
		if path == "" {
			path = name + ".ckpt.json"
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("checkpoint at %v written to %s (kernel digest %s)\n", st.At, path, st.Kernel.Digest)
	}
	return finish(r, o, tr)
}

// finish runs the rest of the timeline and prints the report, the
// trace tail and the observation channels.
func finish(r *scenario.Run, o runOpts, tr *obs.Tracer) error {
	rep, err := r.Execute()
	if err != nil {
		return err
	}
	fmt.Print(rep.Table())
	if o.traceTail > 0 {
		tail := rep.Trace
		if len(tail) > o.traceTail {
			tail = tail[len(tail)-o.traceTail:]
		}
		fmt.Printf("last %d trace events:\n", len(tail))
		for _, ev := range tail {
			fmt.Println(" ", ev)
		}
	}
	return finishObs(r, o, tr)
}

// resume rebuilds a checkpointed scenario, replays it to the capture
// instant, proves the replayed run reproduces the recorded stamp
// byte-for-byte, and finishes the run.
func resume(path string, o runOpts) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var p checkpointPayload
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("reading checkpoint %s: %w", path, err)
	}
	spec, err := p.SpecRequest.Resolve()
	if err != nil {
		return err
	}
	fmt.Printf("resuming %s from %s: replaying to %v\n", spec.Name, path, p.At)
	r, err := scenario.New(spec)
	if err != nil {
		return err
	}
	defer r.Cloud.Close()
	tr := beginObs(r, o)
	if err := r.RunTo(p.At); err != nil {
		return err
	}
	if err := p.stamp().Verify(r.Stamp()); err != nil {
		return fmt.Errorf("run at %v does not match the checkpoint: %w", p.At, err)
	}
	fmt.Printf("resume verified: kernel state at %v byte-identical to the checkpoint (digest %s)\n", p.At, p.KernelDigest)
	if !o.quiet {
		r.OnEvent = func(ev scenario.TraceEvent) { fmt.Println(ev) }
	}
	return finish(r, o, tr)
}
