package scenario

// Gates for the run-phase kernel (lazy flow accounting) at scenario
// level:
//
//   - TestLazyAdvanceMatchesEager proves the lazy accounting contract:
//     the default mode (flows committed only at their own rate changes)
//     and the eager mode (the seed kernel's whole-fleet sweep at every
//     time-advancing instant, which also cross-checks materialised
//     totals) produce byte-identical runs.
//
//   - TestScenarioTraceDigests pins the trace fingerprint of every
//     fast catalog scenario, extending the megafleet-1000 pin to the
//     whole small catalog.
//
// The reference modes (eager sweep, full recompute) are
// netsim.KernelMode values set on a built cloud through
// Net.SetKernelMode: verification oracles reachable from tests only,
// never from a production config.
//
// Why these digests survived the kernel refactor, and why PR 2's
// migration-storm digest moved 1 ns: a completion event's time is
// now + remaining/rate, truncated to a nanosecond. The seed kernel
// committed every flow's accounting at every fleet-wide mutation and
// re-armed completions from whatever instant the solver last ran, so
// the float rounding of `remaining` — and occasionally the nanosecond a
// transfer finished — depended on unrelated traffic. PR 2 changed when
// re-arms happen (only on rate changes), which moved one pre-copy
// completion in migration-storm to the neighbouring nanosecond. The
// span-anchored kernel makes the invariant explicit: accounting state
// moves only at a flow's own rate changes, and completions are armed
// exactly at those instants (rescheduleChanged asserts it), so event
// times are a pure function of each flow's rate history. Under that
// invariant the digests are stable against sweep cadence and domain
// solve order — which is what lets this table pin them.

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// shrinkForGate cuts the megafleets down for double-build gates; the
// full sizes run in the benchmarks.
func shrinkForGate(spec Spec) Spec {
	switch spec.Name {
	case "megafleet-10000":
		spec.Cloud.Racks = 4
	case "megafleet-100000":
		spec.Cloud.Racks = 3
	case "megafleet-1000000":
		spec.Cloud.Racks = 2
		spec.Cloud.HostsPerRack = 500
	case "megafleet-fattree-100000":
		// A k=8 fat-tree filled to capacity: same cross-pod wiring
		// shape, gate-sized fleet.
		spec.Cloud.FatTreeK = 8
		spec.Cloud.Racks = 8
		spec.Cloud.HostsPerRack = 16
	}
	return spec
}

// executeKernelVariant builds the spec's cloud, applies configure to
// the built cloud (nil for the production kernel) and runs the whole
// timeline.
func executeKernelVariant(t *testing.T, spec Spec, configure func(*core.Cloud)) *Report {
	t.Helper()
	cloud, err := core.New(spec.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	if configure != nil {
		configure(cloud)
	}
	return executeOn(t, cloud, spec)
}

// netMode returns a configure func that sets the network kernel's
// reference mode m on the built cloud.
func netMode(m netsim.KernelMode) func(*core.Cloud) {
	return func(c *core.Cloud) { c.Net.SetKernelMode(m) }
}

// kernelBaselines caches the default-mode report per scenario so the
// kernel gates re-run only their variants.
var (
	kernelBaselineMu sync.Mutex
	kernelBaselines  = map[string]*Report{}
)

func kernelBaseline(t *testing.T, name string) *Report {
	t.Helper()
	kernelBaselineMu.Lock()
	defer kernelBaselineMu.Unlock()
	if rep, ok := kernelBaselines[name]; ok {
		return rep
	}
	spec, err := Catalog(name)
	if err != nil {
		t.Fatal(err)
	}
	rep := executeKernelVariant(t, shrinkForGate(spec), nil)
	kernelBaselines[name] = rep
	return rep
}

func TestLazyAdvanceMatchesEager(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = shrinkForGate(spec)
			base := kernelBaseline(t, name)

			eager := executeKernelVariant(t, spec, netMode(netsim.KernelMode{EagerAdvance: true}))
			requireIdentical(t, "lazy vs eager advance", base, eager)
		})
	}
}

// scenarioDigests pins the trace fingerprint of every fast catalog
// scenario (the megafleets keep their own gates). Values are the seed
// kernel's digests, reproduced bit-for-bit by the lazy kernel.
// Update an entry only for an intentional behaviour change, and explain
// the mechanism in the commit (see the package comment above for the
// nanosecond-rounding root cause behind the PR 2 migration-storm
// drift — the class of change this table exists to catch).
var scenarioDigests = map[string]string{
	"brownout-fabric": "2bb47d00392d9ac98785b573c689ebda534859335557ee99b5eaa0bd4523797d",
	"diurnal-day":     "29ef6e02f8ae6706bd9f17c7c15ce6448a910228011aff577e8aef99af84c369",
	"flash-crowd":     "83fde2cd57fb8eddd7d968cb05f8c002c863107243c526e4dece66746a147393",
	"migration-storm": "b4a6bc67d5b1283ce98c1cd7d7d69a171f87d34ead8fd743d37259103849292f",
	"node-churn":      "01aeed43b6c10f965d5a5df7c4db6d94f4679d177aedde9a49efdda0a84d9189",
	"rack-blackout":   "5bebda2a8862cbc5250e5e8a8e4bba445512d473f7faa44457d1286d9b7fa399",
}

func TestScenarioTraceDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go may fuse float multiply-adds on other architectures
		// (arm64 FMSUB), legally shifting completion times by an ulp;
		// the pinned constants are the amd64 rounding CI runs on.
		t.Skipf("digests pinned for amd64 rounding; GOARCH=%s", runtime.GOARCH)
	}
	for name, want := range scenarioDigests {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			spec, err := Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.TraceDigest(); got != want {
				t.Fatalf("%s trace digest drifted:\n  got  %s\n  want %s\n"+
					"If this change is intentional, update scenarioDigests and explain why.",
					name, got, want)
			}
		})
	}
}
