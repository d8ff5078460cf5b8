package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/session"
	"repro/internal/store"
)

// Fork workload shape: forks fault one of rackCycle evenly spaced
// racks (cycling with the fork index), faultDelay after the image
// offset, dark for faultOutage.
const (
	rackCycle   = 8
	faultDelay  = 5 * time.Second
	faultOutage = 10 * time.Second
)

// childResult is what one child process reports to the parent.
type childResult struct {
	SetupS    float64   `json:"setup_s"`
	RunS      float64   `json:"run_s"`
	OpS       []float64 `json:"op_s,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	// Digest is "<trace digest>@<kernel state digest>" at the end of the
	// run (for the fork workload, the base image fingerprint): the trace
	// alone can be a single install event, the kernel state covers every
	// layer's simulated state.
	Digest string             `json:"digest"`
	Forks  []forkOutcome      `json:"forks,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Errors []string           `json:"errors,omitempty"`
}

// forkOutcome is a finished fork: the rack it failed and its digest at
// the end of its timeline.
type forkOutcome struct {
	Rack   int    `json:"rack"`
	Digest string `json:"digest"`
}

func (r *childResult) errorf(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	workload := fs.String("workload", "", "")
	size := fs.String("size", "full", "")
	seed := fs.Int64("seed", 0, "")
	index := fs.Int("index", 0, "")
	tmp := fs.String("tmp", "", "")
	traced := fs.Bool("traced", false, "")
	traceOut := fs.String("trace-out", "", "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := lookupPlan(*workload, *size)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	var res childResult
	switch {
	case *traced:
		res = runTraced(p, *seed, *index, *tmp, *traceOut)
	case p.forks > 0:
		res = runForkChild(p, *seed, *index, *tmp)
	default:
		res = runCold(p, *seed)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// checkCold asserts the process-wide construction-plan cache has not
// served a build: setup_s must time a cold build.
func checkCold(res *childResult) {
	if h := fleet.WarmHits(); h != 0 {
		res.errorf("fleet plan cache served %d warm builds; setup is not cold", h)
	}
}

// runCold is one repetition of a cold workload: a cold scenario.New,
// then the whole timeline in RunTo slices. Setup ends with a full
// collection (timed as part of setup_s): the build leaves hundreds of
// MB of garbage on the large fleets, and whether the run phase paid
// for it in one GC cycle or none would otherwise decide run_s.
func runCold(p plan, seed int64) (res childResult) {
	res.Attempted = 1
	spec, err := p.spec(seed)
	if err != nil {
		res.errorf("spec: %v", err)
		return res
	}
	start := time.Now()
	r, err := scenario.New(spec)
	if err != nil {
		res.errorf("setup: %v", err)
		return res
	}
	runtime.GC()
	res.SetupS = time.Since(start).Seconds()
	checkCold(&res)
	start = time.Now()
	for _, off := range sliceOffsets(spec.Duration, p.slice, 0) {
		sliceStart := time.Now()
		err := r.RunTo(off)
		res.OpS = append(res.OpS, time.Since(sliceStart).Seconds())
		if err != nil {
			res.errorf("run: %v", err)
			return res
		}
	}
	rep, err := r.Execute()
	res.RunS = time.Since(start).Seconds()
	if err != nil {
		res.errorf("run: %v", err)
		return res
	}
	res.Digest = rep.TraceDigest() + "@" + r.Cloud.KernelState().Digest
	if f := rep.Metrics["dijkstra_fallbacks"]; p.zeroFallbacks && f != 0 {
		res.errorf("%v Dijkstra fallbacks on an all-links-up fat-tree", f)
	}
	return res
}

// sliceOffsets lists the RunTo targets that walk a timeline of length
// d in steps of slice, always stopping at the extra instant mark too
// (when it lies inside the run).
func sliceOffsets(d, slice, mark time.Duration) []time.Duration {
	var out []time.Duration
	for off := time.Duration(0); off < d; {
		next := off + slice
		if mark > off && mark < next {
			next = mark
		}
		if next > d {
			next = d
		}
		out = append(out, next)
		off = next
	}
	return out
}

func runForkChild(p plan, seed int64, index int, tmp string) childResult {
	m, cleanup, err := newManager(tmp, nil)
	if err != nil {
		res := childResult{Attempted: p.forks, Failed: p.forks}
		res.errorf("session manager: %v", err)
		return res
	}
	defer cleanup()
	return runForks(m, p, seed, index, true, nil)
}

// newManager returns a session manager journaling into a fresh
// directory under tmp; cleanup closes it and removes the directory.
func newManager(tmp string, tr *obs.Tracer) (*session.Manager, func(), error) {
	dir, err := os.MkdirTemp(tmp, "journal-")
	if err != nil {
		return nil, nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	m := session.NewManager()
	if _, err := m.Recover(st); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	m.SetTracer(tr)
	return m, func() { m.Close(); os.RemoveAll(dir) }, nil
}

// runForks is one repetition of the fork workload on m: build the base
// image at mid-run, then a closed loop of one client that forks a
// session from it, injects a rack failure, advances to the end and
// closes the session. wantCold asserts the image build was a cold one
// (the traced child builds the same shape earlier, so its is warm).
func runForks(m *session.Manager, p plan, seed int64, index int, wantCold bool, rec *recorder) (res childResult) {
	req := p.request(seed)
	spec, err := req.Resolve()
	if err != nil {
		res.errorf("spec: %v", err)
		return res
	}
	at := spec.Duration / 2
	sp := rec.begin("Manager.CreateImage", "session")
	img, err := m.CreateImage("base", req, at)
	res.SetupS = sp.end()
	if err != nil {
		res.Attempted, res.Failed = p.forks, p.forks
		res.errorf("image: %v", err)
		return res
	}
	if wantCold {
		checkCold(&res)
	}
	// The fingerprint is "<fleet shape key>@<kernel state digest>"; only
	// the simulated state is pinned, not how the shape key is spelled.
	res.Digest = img.Fingerprint[strings.LastIndexByte(img.Fingerprint, '@')+1:]
	start := time.Now()
	for i := 0; i < p.forks; i++ {
		idx := index*p.forks + i
		rack := (idx % rackCycle) * (spec.Cloud.Racks / rackCycle)
		res.Attempted++
		digest, op, err := oneFork(m, rack, at, spec.Duration, rec.begin(fmt.Sprintf("fork %d (rack %d)", idx, rack), "session"), rec)
		if err != nil {
			res.Failed++
			res.errorf("fork %d (rack %d): %v", idx, rack, err)
			continue
		}
		res.OpS = append(res.OpS, op)
		res.Forks = append(res.Forks, forkOutcome{Rack: rack, Digest: digest})
	}
	res.RunS = time.Since(start).Seconds()
	return res
}

func oneFork(m *session.Manager, rack int, at, end time.Duration, whole *span, rec *recorder) (digest string, op float64, err error) {
	defer whole.end()
	sp := rec.begin("Manager.CreateSession", "session")
	s, err := m.CreateSession("base", nil)
	op = sp.end()
	if err != nil {
		return "", op, err
	}
	defer func() {
		sp := rec.begin("Session.Close", "session")
		s.Close()
		sp.end()
	}()
	sp = rec.begin("Session.Inject", "session")
	err = s.Inject(scenario.RackFail{Rack: rack, At: at + faultDelay, Outage: faultOutage})
	sp.end()
	if err != nil {
		return "", op, err
	}
	sp = rec.begin("Session.Advance", "session")
	err = s.Advance(end)
	sp.end()
	if err != nil {
		return "", op, err
	}
	digest, err = sessionDigest(s)
	return digest, op, err
}

// sessionDigest checks a session reached the end of its timeline and
// returns its "<trace>@<kernel state>" digest.
func sessionDigest(s *session.Session) (string, error) {
	info, err := s.Checkpoint("")
	if err != nil {
		return "", err
	}
	st, err := s.Status()
	if err != nil {
		return "", err
	}
	if !st.Finished {
		return "", fmt.Errorf("session stopped at %v of %v", st.Offset, st.Duration)
	}
	return st.TraceDigest + "@" + info.KernelDigest, nil
}
