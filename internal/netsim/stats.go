// Observability taps for the network kernel: operational counters the
// flush/solve machinery increments on its serial paths (plus one
// atomic for the worker-concurrent commit path), an optional span
// tracer around domain flushes, and opt-in wall-clock phase profiling
// for the bench harness. None of this state is written into
// WriteState, so sampling it — or leaving it enabled for a whole run —
// cannot shift a kernel fingerprint; the zero-perturbation digest gate
// in internal/scenario holds the proof.
package netsim

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stats is a read-only snapshot of the network kernel's operational
// counters. Read it under the same lock that serialises engine access
// (core.Cloud.Mu).
type Stats struct {
	Flushes          uint64 // solveDirty passes
	DomainsSolved    uint64 // dirty domains claimed and re-solved
	ParallelFlushes  uint64 // flushes that fanned out to >1 worker
	MaxFanout        int    // widest worker fan-out seen
	FlowsCommitted   uint64 // accounting spans materialised (commitFlow)
	FlowsRescheduled uint64 // completion events re-armed after a rate change
	ActiveFlows      int    // live flows right now

	// Wall-clock phase attribution, populated only after
	// EnableProfiling(true): total time inside solveDirty (flush) and
	// the domain-solve section of it (solve).
	FlushWall time.Duration
	SolveWall time.Duration
}

// netStats is the mutable counterpart embedded in Network. All fields
// except commits are touched only on the serial flush path; commits is
// atomic because commitFlow runs inside parallel solve workers. The
// total is still deterministic — every member flow of a solved domain
// commits exactly once per solve, whichever worker gets it.
type netStats struct {
	flushes     uint64
	domains     uint64
	parallel    uint64
	maxFanout   int
	commits     atomic.Uint64
	rescheduled uint64

	profEnabled bool
	flushWall   time.Duration
	solveWall   time.Duration
}

// Stats samples the kernel counters.
func (n *Network) Stats() Stats {
	return Stats{
		Flushes:          n.stats.flushes,
		DomainsSolved:    n.stats.domains,
		ParallelFlushes:  n.stats.parallel,
		MaxFanout:        n.stats.maxFanout,
		FlowsCommitted:   n.stats.commits.Load(),
		FlowsRescheduled: n.stats.rescheduled,
		ActiveFlows:      n.active,
		FlushWall:        n.stats.flushWall,
		SolveWall:        n.stats.solveWall,
	}
}

// SetTracer attaches (or, with nil, detaches) a span tracer. Each
// flush emits one dual-stamped span; the disabled cost is a nil check.
func (n *Network) SetTracer(t *obs.Tracer) { n.tracer = t }

// EnableProfiling switches wall-clock phase attribution on or off.
// Off (the default) the flush path never reads the wall clock.
func (n *Network) EnableProfiling(v bool) { n.stats.profEnabled = v }

// beginFlushObs opens the per-flush span and profiling stamp; it
// returns the values endFlushObs needs so the fast path (no tracer, no
// profiling) costs two nil/bool tests and nothing else.
func (n *Network) beginFlushObs() (obs.SpanHandle, time.Time) {
	var started time.Time
	if n.stats.profEnabled {
		started = time.Now()
	}
	return n.tracer.Begin("flush", "netsim", n.engine.Now()), started
}

func (n *Network) endFlushObs(h obs.SpanHandle, started time.Time, solve time.Duration) {
	h.End(n.engine.Now())
	if n.stats.profEnabled {
		n.stats.flushWall += time.Since(started)
		n.stats.solveWall += solve
	}
}
