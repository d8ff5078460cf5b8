package scenario

// Gate for the fleet-builder subsystem at scenario level:
// TestWarmBootMatchesColdBoot pins the snapshot contract — a cloud
// restored from a fleet snapshot must replay a scenario to the
// byte-identical trace a cold-built cloud produces. It extends
// solver_gate_test.go's pinned-digest pattern: any divergence surfaces
// as a loud trace diff, not a silent drift. The serial-vs-parallel
// build gate over the whole catalog is fleet's
// TestShardedBuildMatchesSerial, next to the serial reference build it
// needs.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
)

// executeOn installs and executes spec on a prepared cloud.
func executeOn(t *testing.T, cloud *core.Cloud, spec Spec) *Report {
	t.Helper()
	defer cloud.Close()
	r, err := Install(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// requireIdentical asserts two reports carry the same trace, event
// count and metrics, diffing the first divergent trace line.
func requireIdentical(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if da, db := a.TraceDigest(), b.TraceDigest(); da != db {
		la, lb := a.Trace, b.Trace
		for i := 0; i < len(la) && i < len(lb); i++ {
			if la[i].String() != lb[i].String() {
				t.Fatalf("%s: traces diverge at event %d:\n  a: %s\n  b: %s", label, i, la[i], lb[i])
			}
		}
		t.Fatalf("%s: trace digests differ: %s vs %s (lengths %d vs %d)",
			label, da, db, len(la), len(lb))
	}
	if a.EventsFired != b.EventsFired {
		t.Fatalf("%s: event counts differ: %d vs %d", label, a.EventsFired, b.EventsFired)
	}
	for k, v := range a.Metrics {
		if b.Metrics[k] != v {
			t.Fatalf("%s: metric %s differs: %v vs %v", label, k, v, b.Metrics[k])
		}
	}
}

func TestWarmBootMatchesColdBoot(t *testing.T) {
	spec, err := Catalog("megafleet-1000")
	if err != nil {
		t.Fatal(err)
	}
	spec = shrink(spec)
	// A fresh shape for this test so the first build is genuinely cold.
	spec.Cloud.HostsPerRack = 51
	fleet.ResetWarmCache()

	coldCloud, err := core.New(spec.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	snap := coldCloud.Snapshot()
	cold := executeOn(t, coldCloud, spec)

	if fleet.WarmHits() != 0 {
		t.Fatalf("first build warm-booted (%d hits), want cold", fleet.WarmHits())
	}
	warmCloud, err := core.Restore(snap, -1)
	if err != nil {
		t.Fatal(err)
	}
	warm := executeOn(t, warmCloud, spec)
	requireIdentical(t, "cold vs warm", cold, warm)

	// And the implicit path: a second core.New of the same shape must
	// hit the process-wide plan cache.
	before := fleet.WarmHits()
	implicit, err := core.New(spec.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	rep := executeOn(t, implicit, spec)
	if fleet.WarmHits() <= before {
		t.Fatal("second build of the same shape did not warm-boot")
	}
	requireIdentical(t, "cold vs implicit warm", cold, rep)
}
