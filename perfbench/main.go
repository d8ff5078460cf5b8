// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation, each repetition in a fresh child process
// (so every cold build is really cold and peak RSS belongs to that
// child alone), checks the simulated results against pinned digests,
// and prints every metric by name and unit. The last stdout line is a
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload steady-1k --seed 97 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, run_s,
// peak_rss_mb, op_p50_s, op_p75_s); with --trace 1 one extra child runs
// with a span tracer attached and reports the per-layer metrics, and a
// Chrome trace file is written. README.md in this directory explains
// the workloads, the metrics and how to read the trace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a re-executed child: the binary runs one repetition of
// a workload and prints its childResult as JSON.
const childEnv = "PERFBENCH_CHILD"

// childTimeout bounds one child so a wedged run cannot hold the whole
// invocation past its deadline.
const childTimeout = 150 * time.Second

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	size     string
	pins     string
	work     string
	traceOut string
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", -1, "scenario seed (negative = the catalog seed)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	fs.StringVar(&o.size, "size", "full", "full, or small for the self-test")
	fs.StringVar(&o.pins, "pins", "perfbench/pins.json", "digest pins file")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory for journals and traces")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome trace path (default <work>/traces/<workload>-<seed>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	return o, nil
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	p, err := lookupPlan(o.workload, o.size)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.seed < 0 {
		o.seed = p.catalogSeed()
	}
	pins, err := loadPins(o.pins)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work, err := filepath.Abs(o.work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp := filepath.Join(work, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(work, "traces", fmt.Sprintf("%s-%d.trace.json", o.workload, o.seed))
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	v := verifier{plan: p, seed: o.seed}
	if pin, ok := pins[p.key()]; ok && pin.Seed == o.seed {
		v.pin = &pin
	}

	// The untraced repetitions: fresh processes until the budget is
	// spent (a traced invocation spends half of it on this baseline).
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		budget /= 2
	}
	start := time.Now()
	var runs []childRun
	for i := 0; len(runs) < p.minChildren || time.Since(start) < budget; i++ {
		cr := runChild(exe, o, i, false, tmp, stderr)
		v.check(&cr)
		runs = append(runs, cr)
	}
	var traced *childRun
	if o.trace == 1 {
		if err := os.MkdirAll(filepath.Dir(o.traceOut), 0o755); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		cr := runChild(exe, o, len(runs), true, tmp, stderr)
		v.check(&cr)
		traced = &cr
	}
	elapsed := time.Since(start)

	res := result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]metric{}}
	setup, run, rss, ops := collect(runs)
	if o.trace == 0 {
		res.Metrics["setup_s"] = metric{median(setup), "s"}
		res.Metrics["run_s"] = metric{median(run), "s"}
		res.Metrics["peak_rss_mb"] = metric{median(rss), "MB"}
		res.Metrics["op_p50_s"] = metric{quantile(ops, 0.50), "s"}
		res.Metrics["op_p75_s"] = metric{quantile(ops, 0.75), "s"}
	} else if traced.Result != nil {
		for _, d := range layerMetrics {
			res.Metrics[d.name] = metric{traced.Result.Layers[d.name], d.unit}
		}
		res.Metrics["trace.run_s"] = metric{traced.Result.RunS, "s"}
		res.Metrics["trace.overhead_s"] = metric{traced.Result.RunS - median(run), "s"}
	}

	fmt.Fprintf(stdout, "workload %s (%s, seed %d): %d fresh-process runs in %.1f s\n",
		o.workload, p.scenario, o.seed, len(runs), elapsed.Seconds())
	fmt.Fprintf(stdout, "  %-14s %12.4f s    median of %d, %s\n", "setup_s", median(setup), len(setup), p.setupWhat())
	fmt.Fprintf(stdout, "  %-14s %12.4f s    median of %d, %s\n", "run_s", median(run), len(run), p.runWhat())
	fmt.Fprintf(stdout, "  %-14s %12.1f MB   median of %d child peaks\n", "peak_rss_mb", median(rss), len(rss))
	opName := "op"
	if p.forks > 0 {
		opName = "fork"
	}
	fmt.Fprintf(stdout, "  %-14s %12.4f s    n=%d %s\n", opName+"_p50_s", quantile(ops, 0.50), len(ops), p.opWhat())
	fmt.Fprintf(stdout, "  %-14s %12.4f s    n=%d, %d beyond p75\n", opName+"_p75_s", quantile(ops, 0.75), len(ops), len(ops)-int(math.Ceil(0.75*float64(len(ops)))))
	fmt.Fprintf(stdout, "  %-14s %12.4f      %d failed of %d attempted\n", "fail_ratio", ratio(v.failed, v.attempted), v.failed, v.attempted)
	if v.pin != nil {
		fmt.Fprintf(stdout, "  digests checked against the pin for seed %d\n", o.seed)
	} else {
		fmt.Fprintf(stdout, "  seed %d is not pinned: every run must agree\n", o.seed)
	}
	for _, line := range v.notes {
		fmt.Fprintln(stdout, "  "+line)
	}
	if observed, err := json.Marshal(v.observed()); err == nil {
		fmt.Fprintf(stdout, "  observed %q pin: %s\n", p.key(), observed)
	}
	if traced != nil && traced.Result != nil {
		fmt.Fprintf(stdout, "traced run: run_s %.4f s (untraced median %.4f s), peak RSS %.0f MB, %.1f s wall, trace written to %s\n",
			traced.Result.RunS, median(run), traced.RSSMB, traced.Elapsed.Seconds(), o.traceOut)
		for _, d := range layerMetrics {
			fmt.Fprintf(stdout, "  %-30s %16.6g %s\n", d.name, traced.Result.Layers[d.name], d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// childRun is one finished child process: its report (nil when the
// process died) and the peak RSS the kernel recorded for it.
type childRun struct {
	Result  *childResult
	RSSMB   float64
	Err     error
	Label   string
	Elapsed time.Duration
}

func runChild(exe string, o options, index int, traced bool, tmp string, stderr io.Writer) childRun {
	args := []string{
		"--workload", o.workload, "--size", o.size,
		"--seed", strconv.FormatInt(o.seed, 10),
		"--index", strconv.Itoa(index),
		"--tmp", tmp,
	}
	label := fmt.Sprintf("run %d", index)
	if traced {
		args = append(args, "--traced", "--trace-out", o.traceOut)
		label = "traced run"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	start := time.Now()
	err := cmd.Run()
	cr := childRun{Label: label, Elapsed: time.Since(start)}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			cr.RSSMB = float64(ru.Maxrss) * 1024 / (1 << 20) // Linux reports KiB
		}
	}
	if err != nil {
		cr.Err = fmt.Errorf("%s: %w", label, err)
		return cr
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		cr.Err = fmt.Errorf("%s: decoding child report: %w", label, err)
		return cr
	}
	cr.Result = &res
	return cr
}

// collect gathers the per-child samples the end-to-end metrics are
// medians and quantiles of.
func collect(runs []childRun) (setup, run, rss, ops []float64) {
	for _, cr := range runs {
		if cr.Result == nil {
			continue
		}
		setup = append(setup, cr.Result.SetupS)
		run = append(run, cr.Result.RunS)
		rss = append(rss, cr.RSSMB)
		ops = append(ops, cr.Result.OpS...)
	}
	return setup, run, rss, ops
}

// pin is the recorded outcome of a workload at one seed: the digest of
// a cold run, or for fork-10k the base image's kernel state digest and
// the final digest of a fork per faulted rack (see childResult.Digest).
type pin struct {
	Seed   int64             `json:"seed"`
	Digest string            `json:"digest"`
	Forks  map[string]string `json:"forks,omitempty"`
}

func loadPins(path string) (map[string]pin, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	var pins map[string]pin
	if err := json.Unmarshal(b, &pins); err != nil {
		return nil, fmt.Errorf("decoding pins %s: %w", path, err)
	}
	return pins, nil
}

// verifier accumulates the correctness verdict: every child must
// report the same digests (same seed, fresh process, same result), the
// digests must equal the pin when the seed is the pinned one, and each
// failed or mismatched run or fork counts against fail_ratio.
type verifier struct {
	plan      plan
	seed      int64
	pin       *pin
	attempted int
	failed    int
	digest    string
	forks     map[int]string
	notes     []string
}

func (v *verifier) fail(format string, args ...any) {
	v.notes = append(v.notes, "FAIL "+fmt.Sprintf(format, args...))
}

func (v *verifier) check(cr *childRun) {
	units := 1
	if v.plan.forks > 0 {
		units = v.plan.forks
	}
	if cr.Err != nil || cr.Result == nil {
		v.attempted += units
		v.failed += units
		v.fail("%v", cr.Err)
		return
	}
	res := cr.Result
	v.attempted += res.Attempted
	v.failed += res.Failed
	for _, e := range res.Errors {
		v.fail("%s: %s", cr.Label, e)
	}
	if len(res.Errors) > 0 && res.Failed == 0 {
		v.failed++
	}
	if v.digest == "" {
		v.digest = res.Digest
	}
	want := v.digest
	if v.pin != nil {
		want = v.pin.Digest
	}
	if res.Digest != want {
		v.fail("%s: digest %s, want %s", cr.Label, short(res.Digest), short(want))
		v.failed += units
	}
	if v.forks == nil {
		v.forks = map[int]string{}
	}
	for _, f := range res.Forks {
		if _, ok := v.forks[f.Rack]; !ok {
			v.forks[f.Rack] = f.Digest
		}
		want := v.forks[f.Rack]
		if v.pin != nil {
			want = v.pin.Forks[strconv.Itoa(f.Rack)]
		}
		if f.Digest != want {
			v.fail("%s: fork faulting rack %d: digest %s, want %s", cr.Label, f.Rack, short(f.Digest), short(want))
			v.failed++
		}
	}
}

// observed renders what this invocation saw in the pins file format,
// for re-pinning after a change that is meant to alter the simulation.
func (v *verifier) observed() pin {
	o := pin{Seed: v.seed, Digest: v.digest}
	if len(v.forks) > 0 {
		o.Forks = map[string]string{}
		for rack, d := range v.forks {
			o.Forks[strconv.Itoa(rack)] = d
		}
	}
	return o
}

func short(d string) string {
	if i := strings.LastIndexByte(d, '@'); i >= 0 {
		d = d[i+1:]
	}
	if len(d) > 16 {
		return d[:16]
	}
	return d
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics (the same
// rule as Python's statistics.quantiles with method="inclusive"). It
// reads 0 when every child failed, so the failing verdict still prints.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
