// Mid-scenario restore points and branching. A scenario checkpoint
// pairs the fleet's construction snapshot with the replay recipe — the
// spec, the injection history and the timeline offset — and with the
// Stamp every restore must reproduce, so a fresh, independent Run can
// be forked at the captured instant as many times as wanted: the shared
// prefix is byte-identical (Stamp.Verify proves it on every fork), and
// each fork's future can then diverge via Run.Inject. That is the
// primitive behind the study catalog's fault bisection
// (bisect-blackout) and A/B fault injection (abtest-faults).
//
// Stamp.Verify is the one proof of a restore. Forks verify against the
// checkpoint's own stamp; the session store's recovered images and
// journals, and piscale's -resume-from, rebuild a run cold and verify
// it against the stamp read back from their record or file.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

// Stamp is what a restored run must reproduce: the timeline offset it
// was captured at, the cross-layer kernel fingerprint there, and the
// length and digest of the trace recorded up to it.
type Stamp struct {
	At          time.Duration
	Kernel      core.KernelState
	TraceLen    int
	TraceDigest string
	// digestOnly marks a stamp read back from a journal or image
	// record, which keep the kernel digest but not its clear counters;
	// Verify then compares the digest alone.
	digestOnly bool
}

// DigestStamp is the stamp a journal or image record keeps: the offset,
// the kernel digest and the trace fingerprint, without the kernel's
// clear counters.
func DigestStamp(at time.Duration, kernelDigest string, traceLen int, traceDigest string) Stamp {
	return Stamp{At: at, Kernel: core.KernelState{Digest: kernelDigest},
		TraceLen: traceLen, TraceDigest: traceDigest, digestOnly: true}
}

// Stamp captures the run's stamp at its current offset. The run must be
// paused (between RunTo slices); capture is read-only.
func (r *Run) Stamp() Stamp {
	return Stamp{
		At:          r.offset,
		Kernel:      r.Cloud.KernelState(),
		TraceLen:    len(r.trace),
		TraceDigest: DigestTrace(r.trace),
	}
}

// Verify proves got — the stamp of a replayed run — reproduces s, and
// otherwise names the first field that differs: offset, trace length,
// trace digest, then the kernel's clock, scheduled, fired and pending
// counts (unless s is digest-only) and its state digest. It is the
// correctness bar of every restore: a replay that drifted by so much as
// one committed float or one pending event fails here instead of
// silently diverging later.
func (s Stamp) Verify(got Stamp) error {
	for _, f := range []struct {
		name       string
		counter    bool
		have, want any
	}{
		{"offset", false, got.At, s.At},
		{"trace length", false, got.TraceLen, s.TraceLen},
		{"trace digest", false, got.TraceDigest, s.TraceDigest},
		{"kernel clock", true, got.Kernel.Now, s.Kernel.Now},
		{"kernel sequence", true, got.Kernel.Seq, s.Kernel.Seq},
		{"kernel fired", true, got.Kernel.Fired, s.Kernel.Fired},
		{"kernel pending", true, got.Kernel.Pending, s.Kernel.Pending},
		{"kernel digest", false, got.Kernel.Digest, s.Kernel.Digest},
	} {
		if f.have != f.want && !(f.counter && s.digestOnly) {
			return fmt.Errorf("%s mismatch: replayed %v, stamped %v", f.name, f.have, f.want)
		}
	}
	return nil
}

// Checkpoint is a forkable mid-scenario restore point.
type Checkpoint struct {
	// Spec is the scenario driving the run with its install-time fault
	// list only. Faults injected after install are in Injections — the
	// install trace event records the timeline action count, so a
	// replay must install exactly the actions the original install saw
	// and re-enact injections at their logged offsets.
	Spec Spec
	// Injections replays the run's post-install Inject history, in
	// order, each at the offset it originally happened.
	Injections []Injection
	// Stamp is the capture every fork must reproduce; its At is the
	// timeline offset the checkpoint was taken at.
	Stamp
	// snap is the construction snapshot forks warm-boot from.
	snap *fleet.Snapshot
}

// Checkpoint captures the run at its current offset as a forkable
// restore point. The run is paused (between RunTo slices); capture is
// read-only, so the checkpointed run continues byte-identically to an
// unobserved one — TestCheckpointResumeByteIdentical pins both halves
// of that claim.
func (r *Run) Checkpoint() *Checkpoint {
	spec := r.Spec
	// Split the live fault list back into install-time faults (kept on
	// the spec) and the injection log (replayed separately by Fork).
	// Neither slice may share backing storage with the live run or with
	// other forks: each fork Injects its own divergent future, and a
	// shared array would let one fork's append overwrite another's
	// recorded fault.
	base := len(r.Spec.Faults) - len(r.injections)
	spec.Faults = append([]Fault(nil), r.Spec.Faults[:base]...)
	return &Checkpoint{
		Spec:       spec,
		Injections: append([]Injection(nil), r.injections...),
		snap:       r.Cloud.Snapshot(),
		Stamp:      r.Stamp(),
	}
}

// Fingerprint identifies the captured machine: the fleet shape key
// composed with the kernel state digest. Two checkpoints with equal
// fingerprints warm-boot the same fabric and restore the same simulated
// machine at their offset; the fingerprint says nothing of the timeline
// after it.
func (c *Checkpoint) Fingerprint() string {
	return c.snap.Config().ShapeKey() + "@" + c.Kernel.Digest
}

// Fork warm-boots a fresh cloud from the checkpoint's construction
// snapshot, installs the spec, replays the injection history to the
// capture offset and verifies the replayed run against the checkpoint's
// stamp. The returned run is independent of the original and of every
// other fork — inject divergent faults with Inject, then Execute to
// finish its timeline.
func (c *Checkpoint) Fork() (*Run, error) {
	buildStart := time.Now()
	cloud, err := core.Restore(c.snap, -1)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: fork: %w", c.Spec.Name, err)
	}
	spec := c.Spec
	// Fresh fault-list storage per fork (see Checkpoint): a fork's
	// Inject must never write into the checkpoint's — or a sibling
	// fork's — array.
	spec.Faults = append([]Fault(nil), c.Spec.Faults...)
	r, err := Install(cloud, spec)
	if err == nil {
		r.buildWall = time.Since(buildStart)
		err = r.ReplayHistory(c.Injections, c.At)
	}
	if err == nil {
		err = c.Verify(r.Stamp())
	}
	if err != nil {
		cloud.Close()
		return nil, fmt.Errorf("scenario %s: fork: %w", c.Spec.Name, err)
	}
	return r, nil
}

// ReplayHistory re-enacts a logged injection history on a freshly
// installed run and lands it paused at the target offset: advance to
// each injection's logged offset, inject there — exactly as the
// original run did, so the replayed action ordering (and the action
// count the install event recorded) match byte-for-byte — then run on
// to at. Never call RunTo when the replay already stands at the target
// offset: an action injected at exactly its injection instant was
// pending at the capture, and a same-offset RunTo would execute it.
// Fork replays onto a warm-booted cloud; the durable store's recovery
// path replays onto a cold build (ReplayRecipe) and then re-enacts a
// session's journaled injections the same way.
func (r *Run) ReplayHistory(injections []Injection, at time.Duration) error {
	for _, inj := range injections {
		if r.offset < inj.At {
			if err := r.RunTo(inj.At); err != nil {
				return err
			}
		}
		if err := r.Inject(inj.Fault); err != nil {
			return err
		}
	}
	if r.offset < at {
		return r.RunTo(at)
	}
	return nil
}

// ReplayRecipe is the cold-build decode of a persisted replay recipe —
// spec, injection history, offset — the durable image/session store's
// recovery primitive: build the spec's cloud from scratch, re-enact the
// history, and return the run paused at the recipe's offset. Where
// Checkpoint.Fork warm-boots from an in-memory construction snapshot
// and verifies against its own stamp, ReplayRecipe crosses processes:
// the caller holds the persisted stamp and must Verify the rebuilt
// run's Stamp against it before trusting the run.
func ReplayRecipe(spec Spec, injections []Injection, at time.Duration) (*Run, error) {
	if at < 0 || at > spec.Duration {
		return nil, fmt.Errorf("scenario %s: recipe offset %v outside the run duration %v", spec.Name, at, spec.Duration)
	}
	r, err := New(spec)
	if err != nil {
		return nil, err
	}
	if err := r.ReplayHistory(injections, at); err != nil {
		r.Cloud.Close()
		return nil, err
	}
	return r, nil
}

// Branch builds the spec's cloud, drives the scenario to the given
// offset, and returns both the paused run and a checkpoint forked
// futures can restart from — the one-call entry point for bisection
// and A/B experiments. The returned run owns the cloud; close it when
// done.
func Branch(spec Spec, at time.Duration) (*Run, *Checkpoint, error) {
	if at < 0 || at > spec.Duration {
		return nil, nil, fmt.Errorf("scenario %s: branch offset %v outside the run duration %v", spec.Name, at, spec.Duration)
	}
	r, err := New(spec)
	if err != nil {
		return nil, nil, err
	}
	if err := r.RunTo(at); err != nil {
		r.Cloud.Close()
		return nil, nil, err
	}
	return r, r.Checkpoint(), nil
}
