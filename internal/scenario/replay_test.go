package scenario

// ReplayRecipe is the durable store's recovery primitive: a cold build
// plus a re-enacted injection history must land bit-identical to the
// run it describes. These tests pin that contract — including the
// same-offset rule that keeps a pending same-instant action pending —
// without the store in the loop.

import (
	"strings"
	"testing"
	"time"
)

// replaySpec shrinks megafleet-1000 to a few racks so a full replay
// runs in milliseconds. Built fresh per call: Inject appends to
// Spec.Faults, so runs must never share a spec value's backing array.
func replaySpec(t *testing.T) Spec {
	t.Helper()
	spec, err := Catalog("megafleet-1000")
	if err != nil {
		t.Fatal(err)
	}
	spec.Cloud.Racks = 4
	spec.Cloud.HostsPerRack = 14
	spec.Duration = 40 * time.Second
	spec.SampleEvery = 5 * time.Second
	return spec
}

func TestReplayRecipeReproducesInjectedHistory(t *testing.T) {
	// Original history: pause at 15s, inject a rack failure, run to 25s.
	orig, err := New(replaySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Cloud.Close()
	if err := orig.RunTo(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	fault := RackFail{Rack: 2, At: 20 * time.Second, Outage: 5 * time.Second}
	if err := orig.Inject(fault); err != nil {
		t.Fatal(err)
	}
	if err := orig.RunTo(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	chk := orig.Checkpoint()

	rebuilt, err := ReplayRecipe(replaySpec(t), chk.Injections, chk.At)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Cloud.Close()
	if rebuilt.Offset() != chk.At {
		t.Fatalf("replay paused at %v, want %v", rebuilt.Offset(), chk.At)
	}
	// The caller-side verification the store's recovery performs: trace
	// prefix and full cross-layer kernel fingerprint, byte for byte.
	if got := DigestTrace(rebuilt.Trace()); len(rebuilt.Trace()) != chk.TraceLen || got != chk.TraceDigest {
		t.Fatalf("replayed trace = %d events digest %s, checkpoint stamped %d, %s",
			len(rebuilt.Trace()), got, chk.TraceLen, chk.TraceDigest)
	}
	if got, want := rebuilt.Cloud.KernelState().Digest, chk.Kernel.Digest; got != want {
		t.Fatalf("replayed kernel digest %s, checkpoint stamped %s", got, want)
	}

	// Both futures, run independently to the end, stay bit-identical.
	if err := orig.RunTo(orig.Spec.Duration); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.RunTo(rebuilt.Spec.Duration); err != nil {
		t.Fatal(err)
	}
	if got, want := DigestTrace(rebuilt.Trace()), DigestTrace(orig.Trace()); got != want {
		t.Fatalf("futures diverged: replayed %s, original %s", got, want)
	}
}

func TestReplayRecipePendingSameOffsetAction(t *testing.T) {
	// Inject at the pause instant itself: the fault is pending, not yet
	// executed, at the capture. The replay must reproduce exactly that —
	// a same-offset RunTo would fire the action early and diverge.
	orig, err := New(replaySpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Cloud.Close()
	if err := orig.RunTo(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := orig.Inject(RackFail{Rack: 1, At: 20 * time.Second, Outage: 5 * time.Second}); err != nil {
		t.Fatal(err)
	}
	chk := orig.Checkpoint()

	rebuilt, err := ReplayRecipe(replaySpec(t), chk.Injections, chk.At)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Cloud.Close()
	if got := rebuilt.Cloud.KernelState().Digest; got != chk.Kernel.Digest {
		t.Fatalf("pending action executed during replay: digest %s, want %s", got, chk.Kernel.Digest)
	}
	if err := orig.RunTo(orig.Spec.Duration); err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.RunTo(rebuilt.Spec.Duration); err != nil {
		t.Fatal(err)
	}
	if got, want := DigestTrace(rebuilt.Trace()), DigestTrace(orig.Trace()); got != want {
		t.Fatalf("futures diverged after same-offset injection: replayed %s, original %s", got, want)
	}
}

func TestReplayRecipeRefusesOffsetPastDuration(t *testing.T) {
	spec := replaySpec(t)
	if _, err := ReplayRecipe(spec, nil, spec.Duration+time.Second); err == nil {
		t.Fatal("recipe offset past the run duration accepted")
	} else if !strings.Contains(err.Error(), "outside the run duration") {
		t.Fatalf("unexpected refusal: %v", err)
	}
}
