// The study catalog: checkpoint-powered experiments that run a scenario
// *several ways* instead of once — the payoff of full-kernel
// Snapshot/Restore. A study branches a base run at an instant, forks the
// checkpoint into divergent futures (every fork's shared prefix is
// byte-identity-verified against the captured kernel fingerprint), and
// reports a deterministic comparison. Two ship alongside the scenario
// catalog:
//
//   - bisect-blackout binary-searches the latest instant a rack can go
//     permanently dark while the run still meets its throughput SLO —
//     each probe is one forked future with the blackout injected at a
//     different instant.
//   - abtest-faults runs an A/B comparison from one checkpoint: the
//     same cloud, the same history up to the branch point, then a
//     migration storm versus a rack blackout, with the traces diffed
//     event-for-event and the end-state metrics set side by side.
//
// Study reports render to a stable line-per-finding summary whose
// SHA-256 is pinned by TestStudyDigests, the same regression contract
// as the scenario trace digests.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Study is one entry of the study catalog.
type Study struct {
	Name        string
	Description string
	run         func() (*StudyReport, error)
}

// StudyReport is the outcome of a study: a deterministic, ordered list
// of findings (one per line; no wall-clock values) plus the total wall
// time for the humans.
type StudyReport struct {
	Name     string
	Lines    []string
	WallTime time.Duration
}

// Digest returns the SHA-256 fingerprint of the findings — same
// contract as Report.TraceDigest: identical studies yield identical
// digests, and any behaviour drift in any branch shows up loudly.
func (r *StudyReport) Digest() string {
	h := sha256.New()
	for _, l := range r.Lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Table renders the report for terminals.
func (r *StudyReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "study %s (%v wall):\n", r.Name, r.WallTime.Round(time.Millisecond))
	for _, l := range r.Lines {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	fmt.Fprintf(&b, "  study digest %s\n", r.Digest())
	return b.String()
}

// StudyCatalog returns the canned studies.
func StudyCatalog() []Study {
	return []Study{
		{
			Name:        "bisect-blackout",
			Description: "binary-search the latest survivable rack-blackout instant against a flow-completion SLO",
			run:         runBisectBlackout,
		},
		{
			Name:        "abtest-faults",
			Description: "A/B a migration storm against a rack blackout from one checkpoint, diffing traces and metrics",
			run:         runABTestFaults,
		},
	}
}

// StudyNames lists the canned studies, sorted.
func StudyNames() []string {
	studies := StudyCatalog()
	out := make([]string, 0, len(studies))
	for _, s := range studies {
		out = append(out, s.Name)
	}
	sort.Strings(out)
	return out
}

// RunStudy executes a study by name.
func RunStudy(name string) (*StudyReport, error) {
	for _, s := range StudyCatalog() {
		if s.Name == name {
			return s.run()
		}
	}
	return nil, fmt.Errorf("scenario: unknown study %q (try one of %v)", name, StudyNames())
}

// DescribeStudies renders a one-line-per-study listing.
func DescribeStudies() string {
	out := ""
	for _, name := range StudyNames() {
		for _, s := range StudyCatalog() {
			if s.Name == name {
				out += fmt.Sprintf("  %-18s %s\n", s.Name, s.Description)
			}
		}
	}
	return out
}

// bisectBase is the scenario under the blackout bisection: the
// published 4×14 testbed under steady ON/OFF background transfers.
func bisectBase() Spec {
	return Spec{
		Name:        "bisect-blackout",
		Description: "blackout-bisection base: published testbed under ON/OFF transfers",
		Cloud:       core.Config{Seed: 191},
		Duration:    4 * time.Minute,
		Fleet:       FleetSpec{VMs: 24, Image: "webserver", Placer: "round-robin"},
		Traffic: TrafficSpec{
			OnOff: &workload.OnOffConfig{Sources: 10},
		},
	}
}

func runBisectBlackout() (*StudyReport, error) {
	wallStart := time.Now()
	spec := bisectBase()
	rep := &StudyReport{Name: "bisect-blackout"}

	// One checkpoint at the earliest candidate instant; every probe
	// forks it — shared prefix replayed and fingerprint-verified once
	// per probe, futures diverging only in the injection instant. The
	// base run itself finishes fault-free to set the SLO bar
	// (checkpointing is non-perturbing, so this equals an untouched
	// run — TestCheckpointResumeByteIdentical pins that).
	const (
		gridStart = 30 * time.Second
		gridStep  = 15 * time.Second
	)
	grid := []time.Duration{}
	for at := gridStart; at <= spec.Duration-30*time.Second; at += gridStep {
		grid = append(grid, at)
	}
	base, chk, err := Branch(spec, gridStart)
	if err != nil {
		return nil, err
	}
	defer base.Cloud.Close()
	clean, err := base.Execute()
	if err != nil {
		return nil, err
	}
	cleanDone := clean.Metrics["onoff_flows_done"]
	slo := 0.9 * cleanDone
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("baseline: %.0f transfers complete with no fault; SLO: ≥ %.1f (90%%)", cleanDone, slo))
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("checkpoint: t=%v, kernel %s", chk.At, shortDigest(chk.Kernel.Digest)))

	probes := 0
	probe := func(at time.Duration) (bool, error) {
		fork, err := chk.Fork()
		if err != nil {
			return false, err
		}
		defer fork.Cloud.Close()
		// The rack goes dark at the probe instant and stays dark: the
		// recovery lands past the end of the run, so the SLO sees the
		// cumulative cost of every lost second.
		if err := fork.Inject(RackFail{Rack: 1, At: at, Outage: spec.Duration}); err != nil {
			return false, err
		}
		r, err := fork.Execute()
		if err != nil {
			return false, err
		}
		probes++
		done := r.Metrics["onoff_flows_done"]
		meets := done >= slo
		verdict := "VIOLATES"
		if meets {
			verdict = "meets"
		}
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("probe: blackout at %-5v → %.0f transfers complete, %s SLO (trace %s)",
				at, done, verdict, shortDigest(r.TraceDigest())))
		return meets, nil
	}

	// Later blackout ⇒ fewer dark seconds ⇒ more completed transfers:
	// binary-search the earliest grid instant that still meets the SLO.
	lo, hi := 0, len(grid)-1
	loMeets, err := probe(grid[lo])
	if err != nil {
		return nil, err
	}
	switch {
	case loMeets:
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("boundary: a blackout at %v already meets the SLO — every candidate instant is survivable", grid[lo]))
	default:
		hiMeets, err := probe(grid[hi])
		if err != nil {
			return nil, err
		}
		if !hiMeets {
			rep.Lines = append(rep.Lines,
				fmt.Sprintf("boundary: even a blackout at %v violates the SLO — no candidate instant is survivable", grid[hi]))
			break
		}
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			meets, err := probe(grid[mid])
			if err != nil {
				return nil, err
			}
			if meets {
				hi = mid
			} else {
				lo = mid
			}
		}
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("boundary: blackout at %v violates the SLO, at %v it holds — the fleet tolerates losing rack 1 from t=%v on",
				grid[lo], grid[hi], grid[hi]))
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf("cost: %d probes, each a verified fork of one checkpoint", probes))
	rep.WallTime = time.Since(wallStart)
	return rep, nil
}

// abBase is the scenario under the A/B fault comparison: a populated
// testbed under gravity traffic.
func abBase() Spec {
	return Spec{
		Name:        "abtest-faults",
		Description: "A/B base: populated testbed under gravity traffic",
		Cloud:       core.Config{Seed: 181},
		Duration:    3 * time.Minute,
		// Round-robin spreads the 32 containers over racks 0–2, so the
		// B arm's rack blackout has a real blast radius.
		Fleet: FleetSpec{VMs: 32, Image: "webserver", Placer: "round-robin", CPUDemandMIPS: 100},
		Traffic: TrafficSpec{
			Gravity: &workload.GravityConfig{EpochSeconds: 20, FlowsPerEpoch: 12},
		},
	}
}

func runABTestFaults() (*StudyReport, error) {
	wallStart := time.Now()
	spec := abBase()
	rep := &StudyReport{Name: "abtest-faults"}

	base, chk, err := Branch(spec, time.Minute)
	if err != nil {
		return nil, err
	}
	defer base.Cloud.Close()
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("checkpoint: t=%v after a shared prefix of %d trace events, kernel %s",
			chk.At, chk.TraceLen, shortDigest(chk.Kernel.Digest)))

	type arm struct {
		name  string
		fault Fault
	}
	arms := []arm{
		{"A/migration-storm", MigrationStorm{At: 90 * time.Second, Moves: 12}},
		{"B/rack-blackout", RackFail{Rack: 1, At: 90 * time.Second, Outage: 45 * time.Second}},
	}
	reports := make([]*Report, len(arms))
	for i, a := range arms {
		fork, err := chk.Fork()
		if err != nil {
			return nil, err
		}
		if err := fork.Inject(a.fault); err != nil {
			fork.Cloud.Close()
			return nil, err
		}
		r, err := fork.Execute()
		fork.Cloud.Close()
		if err != nil {
			return nil, err
		}
		reports[i] = r
	}

	// Diff the traces: identical up to the checkpoint by construction
	// (verified on fork), divergent after the injected futures.
	div := chk.TraceLen
	for div < len(reports[0].Trace) && div < len(reports[1].Trace) &&
		reports[0].Trace[div].String() == reports[1].Trace[div].String() {
		div++
	}
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("diff: traces agree for %d events, diverge at event %d", div, div))
	for i, a := range arms {
		r := reports[i]
		rep.Lines = append(rep.Lines,
			fmt.Sprintf("%s: %d trace events, trace %s", a.name, len(r.Trace), shortDigest(r.TraceDigest())))
	}
	metric := func(name string) string {
		return fmt.Sprintf("metric %-18s A=%.3f B=%.3f Δ=%+.3f",
			name, reports[0].Metrics[name], reports[1].Metrics[name],
			reports[1].Metrics[name]-reports[0].Metrics[name])
	}
	for _, m := range []string{"migrations_done", "vms_crashed", "gravity_epochs", "mean_power_w", "cross_rack_bytes", "faults_injected"} {
		rep.Lines = append(rep.Lines, metric(m))
	}
	rep.WallTime = time.Since(wallStart)
	return rep, nil
}

// shortDigest abbreviates a hex digest for report lines.
func shortDigest(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}
