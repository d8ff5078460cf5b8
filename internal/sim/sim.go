// Package sim provides the deterministic discrete-event simulation engine
// that drives every simulated subsystem of the PiCloud: virtual time, a
// pending-event scheduler, cancellable timers and a seeded random source.
//
// All simulated activity (CPU scheduling, network flows, migrations,
// workload arrivals) is expressed as events on a single Engine so that a
// whole-cloud run is a totally ordered, reproducible sequence. Wall-clock
// time never enters simulation results.
//
// The pending set is one binary min-heap ordered by (time, sequence),
// driven by a single event loop.
package sim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Duration re-exports time.Duration for readability in APIs that take
// virtual durations.
type Duration = time.Duration

// String formats the virtual time as a duration offset from the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// ErrStopped is returned by Run variants when the engine was explicitly
// stopped before the run condition was met.
var ErrStopped = errors.New("sim: engine stopped")

// Event is a cancellable handle to a scheduled callback, returned by the
// scheduling methods. It is a small value — copy it freely. The zero
// Event is inert: Cancel on it reports false.
//
// Handles are generation-checked: the engine recycles the underlying
// event storage once an event fires or is discarded, so a stale handle
// held across the fire can never cancel an unrelated later event.
type Event struct {
	n   *eventNode
	gen uint64
	at  Time
}

// At returns the virtual time the event fires (or would have fired).
func (e Event) At() Time { return e.at }

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op. Cancel reports whether the
// event was still pending.
func (e Event) Cancel() bool {
	n := e.n
	if n == nil || n.gen != e.gen || n.canceled {
		return false
	}
	n.canceled = true
	return true
}

// eventNode is the engine-owned storage behind an Event handle. Nodes are
// pooled: after firing (or being discarded while cancelled) a node's
// generation is bumped and it returns to the engine free list, so steady
// event churn allocates nothing. Every path that takes a node off the
// queue releases it at once, so a matching generation means the event is
// still queued.
type eventNode struct {
	at       Time
	seq      uint64
	gen      uint64
	canceled bool
	fn       func()
}

// eventLess is the engine's total order: (time, sequence) ascending.
// Sequence numbers are unique, so the order is strict and the pop
// sequence is independent of the heap's internal layout.
func eventLess(a, b *eventNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is the engine's pending-event store: a binary min-heap
// under eventLess. Cancelled events stay in place as tombstones until
// they surface at the top, where the engine discards them.
type eventQueue []*eventNode

// push adds n, sifting it up from the new leaf.
func (q *eventQueue) push(n *eventNode) {
	h := append(*q, nil)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(n, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	*q = h
}

// pop removes and returns the earliest node; the queue must be non-empty.
func (q *eventQueue) pop() *eventNode {
	h := *q
	top := h[0]
	last := len(h) - 1
	n := h[last]
	h[last] = nil
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if r := c + 1; r < last && eventLess(h[r], h[c]) {
				c = r
			}
			if !eventLess(h[c], n) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = n
	}
	*q = h
	return top
}

// Engine is a deterministic discrete-event simulator. The zero value is
// not usable; construct with NewEngine. Engine is not safe for concurrent
// use: external goroutines (e.g. HTTP handlers) must serialise access via
// their own lock, which is how the management plane integrates.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	rng     *rand.Rand
	stopped bool
	fired   uint64
	free    []*eventNode

	// tombstones counts cancelled events discarded on the pop/peek
	// paths — the observable face of Event.Cancel, which only flags the
	// node. Telemetry only: not part of WriteState, so observing it can
	// never shift a kernel fingerprint.
	tombstones uint64
}

// NewEngine returns an engine at the epoch using the given RNG seed.
// The same seed always yields the same event interleaving.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seq returns the number of events scheduled so far (the sequence
// counter behind the total order) — part of the engine's explicit state.
func (e *Engine) Seq() uint64 { return e.seq }

// Rand returns the engine's deterministic random source. All stochastic
// model decisions must draw from this source to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue, including
// cancelled events not yet discarded.
func (e *Engine) Pending() int { return len(e.queue) }

// SchedStats is a read-only snapshot of the scheduler's operational
// counters for the observability layer: everything here is either
// already part of the engine's explicit state (scheduled, fired,
// pending) or a pure telemetry counter outside WriteState (tombstones),
// so sampling it cannot perturb a run.
type SchedStats struct {
	Now        Time
	Scheduled  uint64 // events scheduled so far (the sequence counter)
	Fired      uint64 // events executed
	Pending    int    // queued, including undiscarded tombstones
	Tombstones uint64 // cancelled events discarded on pop/peek
}

// SchedStats samples the scheduler counters. Like all engine methods it
// must be called from the goroutine that owns the engine (or under the
// cloud lock).
func (e *Engine) SchedStats() SchedStats {
	return SchedStats{
		Now:        e.now,
		Scheduled:  e.seq,
		Fired:      e.fired,
		Pending:    len(e.queue),
		Tombstones: e.tombstones,
	}
}

// PendingEvent is the externally visible identity of one queued event:
// its fire time and sequence number — everything the (time, sequence)
// total order is built from.
type PendingEvent struct {
	At  Time
	Seq uint64
}

// PendingEvents returns the live (non-cancelled) queued events in fire
// order. The walk is non-destructive — cancelled tombstones are skipped,
// not discarded — so capturing the pending set never perturbs a run.
func (e *Engine) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, len(e.queue))
	for _, n := range e.queue {
		if !n.canceled {
			out = append(out, PendingEvent{At: n.at, Seq: n.seq})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteState writes the engine's explicit time state — clock, sequence
// counter, fired count and the (time, sequence) identity of every live
// pending event — in a deterministic text form. It is one layer of the
// cross-layer kernel fingerprint behind core's Checkpoint/Resume: two
// engines that executed the same event history write the same bytes.
func (e *Engine) WriteState(w io.Writer) {
	fmt.Fprintf(w, "sim now=%d seq=%d fired=%d\n", int64(e.now), e.seq, e.fired)
	for _, p := range e.PendingEvents() {
		fmt.Fprintf(w, "ev %d %d\n", int64(p.At), p.Seq)
	}
}

// Schedule queues fn to run after delay d. A negative delay is treated as
// zero (fires at the current time, after already-queued events at that
// time). It returns an Event handle for cancellation.
func (e *Engine) Schedule(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Times in the
// past are clamped to the current time.
func (e *Engine) ScheduleAt(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: ScheduleAt with nil function")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	var n *eventNode
	if k := len(e.free); k > 0 {
		n = e.free[k-1]
		e.free[k-1] = nil
		e.free = e.free[:k-1]
	} else {
		n = &eventNode{}
	}
	n.at = t
	n.seq = e.seq
	n.canceled = false
	n.fn = fn
	e.queue.push(n)
	return Event{n: n, gen: n.gen, at: t}
}

// release returns a node to the free list, invalidating outstanding
// handles by bumping the generation.
func (e *Engine) release(n *eventNode) {
	n.gen++
	n.fn = nil
	n.canceled = false
	e.free = append(e.free, n)
}

// Stop halts the current Run call after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next pending event, advancing virtual time to it.
// It reports whether an event was executed (false when the queue is
// empty). Cancelled events are discarded without executing.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.canceled {
			e.tombstones++
			e.release(ev)
			continue
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: event time %v before now %v", ev.at, e.now))
		}
		e.now = ev.at
		e.fired++
		fn := ev.fn
		e.release(ev)
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called. It
// returns ErrStopped if stopped early, nil otherwise.
func (e *Engine) Run() error {
	e.stopped = false
	for !e.stopped {
		if !e.Step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with time ≤ t, then advances the clock to
// exactly t. Events scheduled beyond t remain queued. It returns
// ErrStopped if Stop was called during the run.
func (e *Engine) RunUntil(t Time) error {
	e.stopped = false
	for !e.stopped {
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if e.stopped {
		return ErrStopped
	}
	if e.now < t {
		e.now = t
	}
	return nil
}

// RunFor advances the simulation by d of virtual time.
func (e *Engine) RunFor(d Duration) error { return e.RunUntil(e.now.Add(d)) }

// peek returns the earliest non-cancelled event without removing it,
// discarding cancelled tombstones it encounters at the front of the
// schedule (the cancelled-on-top compaction).
func (e *Engine) peek() *eventNode {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if !ev.canceled {
			return ev
		}
		e.queue.pop()
		e.tombstones++
		e.release(ev)
	}
	return nil
}

// NextEventAt returns the time of the earliest pending event and true, or
// the zero time and false when the queue is empty.
func (e *Engine) NextEventAt() (Time, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Ticker invokes fn every period until cancelled. The first invocation
// happens one period from now.
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func(Time)
	ev      Event
	stopped bool
}

// NewTicker schedules fn to run every period of virtual time. period must
// be positive.
func (e *Engine) NewTicker(period Duration, fn func(Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.engine.Schedule(t.period, func() {
		if t.stopped {
			return
		}
		t.fn(t.engine.Now())
		if !t.stopped {
			t.arm()
		}
	})
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
