// Full-kernel checkpointing: capture the complete simulated state of a
// settled cloud as an explicit, comparable value, and restore it —
// byte-identically — onto a fresh cloud.
//
// A Checkpoint composes the two halves the earlier subsystems already
// provide:
//
//   - the fleet builder's construction Snapshot (PR 3), which warm-boots
//     an identical cloud without re-deriving plans or re-validating the
//     fabric, and
//   - the deterministic replay property of the whole kernel: the same
//     construction plus the same driving history reproduces every layer
//     of simulated state bit for bit.
//
// The new piece is the cross-layer KernelState fingerprint: the engine's
// explicit scheduler state (clock, sequence counter, every pending
// event's (time, seq) identity), netsim's span-anchored flow accounting
// and link state, the SDN label table and route-cache epoch statistics,
// and the energy layer's span-anchored meter integrals — each written by
// its own layer in a deterministic byte-exact form and hashed together.
// Resume replays the driving history onto a warm-booted cloud and then
// *proves* the restore: the replayed kernel must reproduce the captured
// fingerprint exactly, or Resume fails loudly. The scenario layer builds
// mid-run restore points, fault bisection and A/B fault injection on top
// (scenario.Checkpoint / Fork).
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// KernelState is the cross-layer fingerprint of a cloud's simulated
// state at one instant: the engine's headline counters in the clear
// (for error messages and checkpoint files) and the SHA-256 of the
// full layer-by-layer state rendering. Two clouds with equal
// KernelState values are — to the resolution of every committed float,
// every pending event identity and every label binding — the same
// simulated machine.
type KernelState struct {
	Now     sim.Time
	Seq     uint64
	Fired   uint64
	Pending int
	Digest  string
}

// KernelState captures the fingerprint of the current simulated state.
// The cloud must be settled (between Run slices); capture is read-only
// apart from an idempotent flush of already-scheduled rate work, so a
// checkpointed run continues exactly as an unobserved one would. Each
// layer appends its rendering to one buffer the cloud reuses under Mu,
// and the buffer is hashed once. The caller must not hold Mu.
func (c *Cloud) KernelState() KernelState {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	span := c.tracer.Begin("kernel-state", "checkpoint", c.Engine.Now())
	defer func() { span.End(c.Engine.Now()) }()
	buf := c.Engine.AppendState(c.stateBuf[:0])
	buf = c.Net.AppendState(buf)
	buf = c.Ctrl.AppendState(buf)
	buf = c.Meter.AppendState(buf, c.Engine.Now())
	c.stateBuf = buf
	sum := sha256.Sum256(buf)
	return KernelState{
		Now:     c.Engine.Now(),
		Seq:     c.Engine.Seq(),
		Fired:   c.Engine.Fired(),
		Pending: c.Engine.Pending(),
		Digest:  hex.EncodeToString(sum[:]),
	}
}

// Checkpoint is a full-kernel restore point: the construction snapshot
// to warm-boot from, the virtual instant, and the state fingerprint the
// restored kernel must reproduce.
type Checkpoint struct {
	snap  *fleet.Snapshot
	state KernelState
}

// Checkpoint captures the cloud's construction snapshot and kernel
// fingerprint at the current (settled) instant. The caller must not
// hold Mu.
func (c *Cloud) Checkpoint() *Checkpoint {
	return &Checkpoint{snap: c.Snapshot(), state: c.KernelState()}
}

// At returns the virtual instant the checkpoint was captured.
func (k *Checkpoint) At() sim.Time { return k.state.Now }

// State returns the captured kernel fingerprint.
func (k *Checkpoint) State() KernelState { return k.state }

// Fingerprint identifies the checkpoint for caching and sharing: the
// fleet shape key composed with the kernel state digest. Two
// checkpoints with equal fingerprints warm-boot the same fabric and
// restore the same simulated machine, so a base-image registry can key
// on it directly.
func (k *Checkpoint) Fingerprint() string {
	return k.snap.Config().ShapeKey() + "@" + k.state.Digest
}

// Verify proves a cloud's simulated state matches the checkpoint
// bit-for-bit, layer by layer. It is the correctness bar of every
// restore: a replay that drifted by so much as one committed float or
// one pending event fails here instead of silently diverging later.
func (k *Checkpoint) Verify(c *Cloud) error {
	span := c.tracer.Begin("verify", "checkpoint", k.state.Now)
	defer func() { span.End(k.state.Now) }()
	got := c.KernelState()
	if got == k.state {
		return nil
	}
	switch {
	case got.Now != k.state.Now:
		return fmt.Errorf("core: checkpoint verify: clock %v, want %v", got.Now, k.state.Now)
	case got.Seq != k.state.Seq:
		return fmt.Errorf("core: checkpoint verify: %d events scheduled, want %d", got.Seq, k.state.Seq)
	case got.Fired != k.state.Fired:
		return fmt.Errorf("core: checkpoint verify: %d events fired, want %d", got.Fired, k.state.Fired)
	case got.Pending != k.state.Pending:
		return fmt.Errorf("core: checkpoint verify: %d events pending, want %d", got.Pending, k.state.Pending)
	default:
		return fmt.Errorf("core: checkpoint verify: kernel state digest %s, want %s (clock and event counts match — a layer's committed state diverged)",
			got.Digest, k.state.Digest)
	}
}

// Resume warm-boots a fresh cloud from the checkpoint's construction
// snapshot, hands it to replay to re-drive the simulated history up to
// the capture instant, and verifies the restored kernel reproduces the
// captured fingerprint byte-for-byte. replay receives the fresh cloud
// at virtual time zero and must leave it settled at chk.At(); the
// scenario layer's Fork supplies the canonical replay (install the
// spec, run its timeline to the offset).
func Resume(chk *Checkpoint, replay func(*Cloud) error) (*Cloud, error) {
	c, err := Restore(chk.snap, -1)
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if replay != nil {
		if err := replay(c); err != nil {
			c.Close()
			return nil, fmt.Errorf("core: resume replay: %w", err)
		}
	}
	if err := chk.Verify(c); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
