package scenario

// Gates for the checkpoint work:
//
//   - TestCheckpointResumeByteIdentical pins both halves of the restore
//     contract on every small-catalog scenario, at multiple capture
//     instants: (1) a run that is paused, checkpointed and continued is
//     byte-identical to one that never was (capture is non-perturbing);
//     (2) a run forked from the checkpoint — warm-booted construction,
//     replayed prefix, verified cross-layer kernel fingerprint — ends
//     with the byte-identical trace of run-from-start. Fork itself
//     fails loudly if the replayed kernel state diverges from the
//     capture, so this test also executes Stamp.Verify across clock,
//     scheduler, netsim, SDN and energy state on every fork.
//
//   - TestBranchInjectSharesPrefix proves the branching primitive:
//     divergent faults injected on two forks of one checkpoint produce
//     traces that agree event-for-event up to the capture and then
//     genuinely diverge.
//
//   - TestStampVerifyNamesEachField and TestForkRefusesDoctoredStamp
//     prove the refusals: every field a stamp carries is compared, and
//     a fork that cannot reproduce its checkpoint's stamp fails.

import (
	"strings"
	"testing"
	"time"
)

// smallCatalog lists the scenarios fast enough to run several times per
// gate — the same set whose digests scenarioDigests pins.
func smallCatalog(t *testing.T) []Spec {
	t.Helper()
	out := make([]Spec, 0, len(scenarioDigests))
	for name := range scenarioDigests {
		spec, err := Catalog(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, spec)
	}
	return out
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, spec := range smallCatalog(t) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			straight, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0.25, 0.625} {
				at := time.Duration(frac * float64(spec.Duration)).Round(time.Second)
				// Pause, checkpoint, continue: must equal the unobserved run.
				run, chk, err := Branch(spec, at)
				if err != nil {
					t.Fatalf("branch at %v: %v", at, err)
				}
				continued, err := run.Execute()
				run.Cloud.Close()
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "straight vs checkpointed-and-continued", straight, continued)

				// Fork from the checkpoint: warm-boot, replay, verify, finish.
				fork, err := chk.Fork()
				if err != nil {
					t.Fatalf("fork at %v: %v", at, err)
				}
				resumed, err := fork.Execute()
				fork.Cloud.Close()
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, "straight vs resumed-from-checkpoint", straight, resumed)
			}
		})
	}
}

func TestBranchInjectSharesPrefix(t *testing.T) {
	spec, err := Catalog("rack-blackout")
	if err != nil {
		t.Fatal(err)
	}
	// Strip the canned fault: the arms inject their own futures.
	spec.Faults = nil
	base, chk, err := Branch(spec, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Cloud.Close()

	armA, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := armA.Inject(RackFail{Rack: 1, At: 2 * time.Minute, Outage: time.Minute}); err != nil {
		t.Fatal(err)
	}
	repA, err := armA.Execute()
	armA.Cloud.Close()
	if err != nil {
		t.Fatal(err)
	}

	armB, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if err := armB.Inject(LinkFail{At: 2 * time.Minute, Outage: time.Minute}); err != nil {
		t.Fatal(err)
	}
	repB, err := armB.Execute()
	armB.Cloud.Close()
	if err != nil {
		t.Fatal(err)
	}

	if len(repA.Trace) < chk.TraceLen || len(repB.Trace) < chk.TraceLen {
		t.Fatalf("arms lost the shared prefix: %d and %d events, prefix %d", len(repA.Trace), len(repB.Trace), chk.TraceLen)
	}
	for i := 0; i < chk.TraceLen; i++ {
		if repA.Trace[i].String() != repB.Trace[i].String() {
			t.Fatalf("shared prefix diverged at event %d:\n  A: %s\n  B: %s", i, repA.Trace[i], repB.Trace[i])
		}
	}
	if DigestTrace(repA.Trace) == DigestTrace(repB.Trace) {
		t.Fatal("divergent fault injections produced identical traces")
	}
	// Fork isolation: the arms' injections must not have leaked into the
	// checkpoint's recorded fault list (shared backing storage would let
	// one fork's Inject overwrite another's).
	if len(chk.Spec.Faults) != 0 {
		t.Fatalf("checkpoint fault list grew to %d after fork injections", len(chk.Spec.Faults))
	}
	// Injecting into the past must be rejected.
	late, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer late.Cloud.Close()
	if err := late.Inject(RackFail{Rack: 1, At: 10 * time.Second, Outage: time.Minute}); err == nil {
		t.Fatal("Inject accepted an action before the fork offset")
	}
}

// stampFields changes one field of a stamp at a time; reason is the
// phrase Verify's refusal must name it by, and counter marks the kernel
// counters a digest-only stamp does not keep.
var stampFields = []struct {
	name, reason string
	counter      bool
	change       func(*Stamp)
}{
	{"offset", "offset mismatch", false, func(s *Stamp) { s.At += time.Second }},
	{"trace length", "trace length mismatch", false, func(s *Stamp) { s.TraceLen++ }},
	{"trace digest", "trace digest mismatch", false, func(s *Stamp) { s.TraceDigest = "doctored" }},
	{"kernel clock", "kernel clock mismatch", true, func(s *Stamp) { s.Kernel.Now++ }},
	{"kernel sequence", "kernel sequence mismatch", true, func(s *Stamp) { s.Kernel.Seq++ }},
	{"kernel fired", "kernel fired mismatch", true, func(s *Stamp) { s.Kernel.Fired++ }},
	{"kernel pending", "kernel pending mismatch", true, func(s *Stamp) { s.Kernel.Pending++ }},
	{"kernel digest", "kernel digest mismatch", false, func(s *Stamp) { s.Kernel.Digest = "doctored" }},
}

func TestStampVerifyNamesEachField(t *testing.T) {
	r, err := New(replaySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Cloud.Close()
	if err := r.RunTo(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := r.Stamp()
	wants := map[string]Stamp{
		"in-process":  got,
		"digest-only": DigestStamp(got.At, got.Kernel.Digest, got.TraceLen, got.TraceDigest),
	}
	for kind, want := range wants {
		if err := want.Verify(got); err != nil {
			t.Fatalf("%s stamp refused its own run: %v", kind, err)
		}
		for _, f := range stampFields {
			doctored := got
			f.change(&doctored)
			err := want.Verify(doctored)
			if kind == "digest-only" && f.counter {
				// A record keeps no clear counters; the digest decides.
				if err != nil {
					t.Errorf("%s stamp compared the %s it does not keep: %v", kind, f.name, err)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), f.reason) {
				t.Errorf("%s stamp, %s changed: got %v, want a %q refusal", kind, f.name, err, f.reason)
			}
		}
	}
}

func TestForkRefusesDoctoredStamp(t *testing.T) {
	run, chk, err := Branch(replaySpec(t), 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	run.Cloud.Close()
	for _, f := range stampFields {
		doctored := *chk
		f.change(&doctored.Stamp)
		fork, err := doctored.Fork()
		if err == nil {
			fork.Cloud.Close()
			t.Errorf("fork of a checkpoint with a doctored %s succeeded", f.name)
			continue
		}
		// A doctored offset moves the replay's target with it, so the
		// fork lands there and a later field names the refusal.
		if f.name != "offset" && !strings.Contains(err.Error(), f.reason) {
			t.Errorf("fork with a doctored %s refused for the wrong reason: %v", f.name, err)
		}
	}
	// The honest checkpoint still forks.
	fork, err := chk.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fork.Cloud.Close()
}
