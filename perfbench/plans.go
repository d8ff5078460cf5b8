package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cliconfig"
	"repro/internal/scenario"
)

// plan is one workload at one size. The full size is what the
// benchmark measures; the small size keeps the same shape on a fleet
// small enough for the self-test.
type plan struct {
	workload string
	size     string
	scenario string
	// duration overrides the catalog run length (0 keeps it).
	duration time.Duration
	// slice is the simulated time one RunTo call advances: the unit of
	// op latency on the cold workloads and of the traced run's
	// per-slice kernel counters.
	slice time.Duration
	// forks > 0 makes this a fork workload: each child builds a base
	// image, then forks, faults, advances and closes this many sessions.
	forks int
	// minChildren is the fewest fresh-process repetitions per
	// invocation, whatever the time budget.
	minChildren int
	// zeroFallbacks requires every cold route to be synthesised: on an
	// all-links-up fat-tree a Dijkstra fallback is a correctness bug.
	zeroFallbacks bool
}

var plans = []plan{
	{workload: "fattree-100k", size: "full", scenario: "megafleet-fattree-100000",
		duration: 90 * time.Second, slice: time.Second, minChildren: 3, zeroFallbacks: true},
	{workload: "fattree-100k", size: "small", scenario: "megafleet-fattree-1000",
		slice: time.Second, minChildren: 2, zeroFallbacks: true},
	{workload: "steady-1k", size: "full", scenario: "megafleet-1000",
		duration: 6 * time.Hour, slice: time.Minute, minChildren: 3},
	{workload: "steady-1k", size: "small", scenario: "megafleet-1000",
		duration: 10 * time.Minute, slice: time.Minute, minChildren: 2},
	{workload: "fork-10k", size: "full", scenario: "megafleet-10000",
		slice: time.Second, forks: 20, minChildren: 3},
	{workload: "fork-10k", size: "small", scenario: "megafleet-1000",
		slice: time.Second, forks: 4, minChildren: 2},
}

func lookupPlan(workload, size string) (plan, error) {
	for _, p := range plans {
		if p.workload == workload && p.size == size {
			return p, nil
		}
	}
	return plan{}, fmt.Errorf("unknown workload %q at size %q (workloads: %v; sizes: full, small)", workload, size, workloadNames())
}

func workloadNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range plans {
		if !seen[p.workload] {
			seen[p.workload] = true
			out = append(out, p.workload)
		}
	}
	sort.Strings(out)
	return out
}

// key names the plan in the pins file.
func (p plan) key() string { return p.workload + "/" + p.size }

func (p plan) catalogSeed() int64 {
	spec, err := scenario.Catalog(p.scenario)
	if err != nil {
		return 0
	}
	return spec.Cloud.Seed
}

// request is the plan as the session service's wire spec: only the
// scenario name, the seed and the run length — no kernel option is set.
func (p plan) request(seed int64) cliconfig.SpecRequest {
	return cliconfig.SpecRequest{Scenario: p.scenario, Seed: &seed, Duration: cliconfig.Duration(p.duration)}
}

// spec resolves the plan through the same path the session service
// uses, so cold runs and sessions run the identical spec.
func (p plan) spec(seed int64) (scenario.Spec, error) { return p.request(seed).Resolve() }

func (p plan) setupWhat() string {
	if p.forks > 0 {
		return "Manager.CreateImage at mid-run, one per child"
	}
	return "cold scenario.New, one per child"
}

func (p plan) runWhat() string {
	if p.forks > 0 {
		return fmt.Sprintf("loop of %d fork+fault+advance+close per child", p.forks)
	}
	return "run phase (RunTo slices + Execute), one per child"
}

func (p plan) opWhat() string {
	if p.forks > 0 {
		return "forks (CreateSession from the image), pooled over children"
	}
	return fmt.Sprintf("RunTo slices of %v simulated, pooled over children", p.slice)
}
