// The cross-layer kernel fingerprint: the complete simulated state of a
// settled cloud captured as an explicit, comparable value.
//
// Restores are not serialised state but deterministic replay: the same
// construction plus the same driving history reproduces every layer of
// simulated state bit for bit. KernelState is what proves it. It joins
// the engine's explicit scheduler state (clock, sequence counter, every
// pending event's (time, seq) identity), netsim's span-anchored flow
// accounting and link state, the SDN label table and route-cache epoch
// statistics, and the energy layer's span-anchored meter integrals —
// each written by its own layer in a deterministic byte-exact form and
// hashed together. The scenario layer pairs it with the timeline offset
// and the trace prefix in a scenario.Stamp, whose one Verify every
// restore passes through: forks, recovered images and journals, and
// piscale resumes.
package core

import (
	"encoding/hex"

	"repro/internal/sim"
)

// KernelState is the cross-layer fingerprint of a cloud's simulated
// state at one instant: the engine's headline counters in the clear
// (for error messages and checkpoint files) and the SHA-256 of the
// full layer-by-layer state rendering. Two clouds with equal
// KernelState values are — to the resolution of every committed float,
// every pending event identity and every label binding — the same
// simulated machine. Pending counts queued events including cancelled
// ones not yet discarded, which the digest does not cover.
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
// layer appends its rendering into one fixed chunk, hashed whenever it
// fills (sim.StateHash), so a capture costs the chunk whatever the
// fleet's size. The caller must not hold Mu.
func (c *Cloud) KernelState() KernelState {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	span := c.tracer.Begin("kernel-state", "checkpoint", c.Engine.Now())
	defer func() { span.End(c.Engine.Now()) }()
	sh := sim.NewStateHash()
	buf := c.Engine.AppendState(sh.Buf(), sh)
	buf = c.Net.AppendState(buf, sh)
	buf = c.Ctrl.AppendState(buf, sh)
	buf = c.Meter.AppendState(buf, c.Engine.Now(), sh)
	sum := sh.Sum(buf)
	return KernelState{
		Now:     c.Engine.Now(),
		Seq:     c.Engine.Seq(),
		Fired:   c.Engine.Fired(),
		Pending: c.Engine.Pending(),
		Digest:  hex.EncodeToString(sum[:]),
	}
}
