package scenario

// Gate for the fleet-builder subsystem at scenario level:
// TestWarmBootMatchesColdBoot pins the snapshot contract — a cloud
// restored from a fleet snapshot must replay a scenario to the
// byte-identical trace a cold-built cloud produces. It extends
// solver_gate_test.go's pinned-digest pattern: any divergence surfaces
// as a loud trace diff, not a silent drift.

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

	restores := fleet.WarmHits()
	coldCloud, err := core.New(spec.Cloud)
	if err != nil {
		t.Fatal(err)
	}
	snap := coldCloud.Snapshot()
	cold := executeOn(t, coldCloud, spec)

	if got := fleet.WarmHits(); got != restores {
		t.Fatalf("a cold build moved WarmHits from %d to %d", restores, got)
	}
	warmCloud, err := core.Restore(snap, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := fleet.WarmHits(); got != restores+1 {
		t.Fatalf("a restore moved WarmHits from %d to %d, want %d", restores, got, restores+1)
	}
	warm := executeOn(t, warmCloud, spec)
	requireIdentical(t, "cold vs warm", cold, warm)
}
