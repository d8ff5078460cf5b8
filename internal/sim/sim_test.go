package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtEpoch(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(-time.Second, func() { fired = true })
	e.Step()
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(time.Second, func() {})
	e.Step()
	if ev.Cancel() {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestRunUntilAdvancesClockExactly(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(1*time.Second, func() { fired = append(fired, e.Now()) })
	e.Schedule(5*time.Second, func() { fired = append(fired, e.Now()) })
	if err := e.RunUntil(Time(3 * time.Second)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 1 || fired[0] != Time(time.Second) {
		t.Fatalf("fired = %v, want [1s]", fired)
	}
	if e.Now() != Time(3*time.Second) {
		t.Fatalf("Now() = %v, want 3s", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("second event did not fire: %v", fired)
	}
	if e.Now() != Time(13*time.Second) {
		t.Fatalf("Now() = %v, want 13s", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	if err := e.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	// Run resumes where it left off.
	if err := e.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	var order []string
	e.Schedule(time.Second, func() {
		order = append(order, "a")
		e.Schedule(time.Second, func() { order = append(order, "c") })
	})
	e.Schedule(1500*time.Millisecond, func() { order = append(order, "b") })
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "abc"
	got := ""
	for _, s := range order {
		got += s
	}
	if got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := NewEngine(seed)
		var out []float64
		var step func()
		step = func() {
			out = append(out, e.Rand().Float64())
			if len(out) < 50 {
				e.Schedule(time.Duration(e.Rand().Intn(1000))*time.Millisecond, step)
			}
		}
		e.Schedule(0, step)
		if err := e.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := e.NewTicker(time.Second, func(now Time) { ticks = append(ticks, now) })
	if err := e.RunUntil(Time(5500 * time.Millisecond)); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	tk.Stop()
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if len(ticks) != 5 {
		t.Fatalf("ticker fired after Stop: %v", ticks)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var tk *Ticker
	tk = e.NewTicker(time.Second, func(Time) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestNextEventAt(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt on empty queue returned ok")
	}
	ev := e.Schedule(2*time.Second, func() {})
	e.Schedule(3*time.Second, func() {})
	at, ok := e.NextEventAt()
	if !ok || at != Time(2*time.Second) {
		t.Fatalf("NextEventAt = %v,%v want 2s,true", at, ok)
	}
	ev.Cancel()
	at, ok = e.NextEventAt()
	if !ok || at != Time(3*time.Second) {
		t.Fatalf("NextEventAt after cancel = %v,%v want 3s,true", at, ok)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(2 * time.Second)
	if got := a.Add(3 * time.Second); got != Time(5*time.Second) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(Time(500 * time.Millisecond)); got != 1500*time.Millisecond {
		t.Fatalf("Sub = %v", got)
	}
	if a.Seconds() != 2.0 {
		t.Fatalf("Seconds = %v", a.Seconds())
	}
	if a.String() != "2s" {
		t.Fatalf("String = %q", a.String())
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order and the clock equals the max delay at the end.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delaysMS []uint16) bool {
		e := NewEngine(7)
		var fired []Time
		var max Duration
		for _, d := range delaysMS {
			dd := time.Duration(d) * time.Millisecond
			if dd > max {
				max = dd
			}
			e.Schedule(dd, func() { fired = append(fired, e.Now()) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		if len(delaysMS) > 0 && e.Now() != Time(max) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomChurnFiresInTotalOrder drives a randomized schedule/cancel/
// run workload — same-instant bursts (zero-delay flushes), near-term and
// far-future delays, heavy cancellation (completion re-arms) — and
// requires every fired event to come out in strict (time, sequence)
// order, exactly the live events to fire, and the queue to end empty.
func TestRandomChurnFiresInTotalOrder(t *testing.T) {
	e := NewEngine(1)
	script := rand.New(rand.NewSource(99))
	type key struct {
		at  Time
		seq uint64
	}
	var fired []key
	var evs []Event
	live := map[uint64]bool{}
	for round := 0; round < 60; round++ {
		n := 20 + script.Intn(400)
		for i := 0; i < n; i++ {
			var d Duration
			switch script.Intn(10) {
			case 0: // same-instant burst
			case 1, 2: // far future
				d = time.Duration(script.Intn(5000)) * time.Millisecond
			default: // near term
				d = time.Duration(script.Intn(2000)) * time.Microsecond
			}
			seq := e.Seq() + 1
			evs = append(evs, e.Schedule(d, func() {
				fired = append(fired, key{e.Now(), seq})
				delete(live, seq)
			}))
			live[seq] = true
		}
		for i := 0; i < n/4; i++ {
			if ev := evs[script.Intn(len(evs))]; ev.Cancel() {
				delete(live, ev.n.seq)
			}
		}
		if err := e.RunFor(time.Duration(script.Intn(800)) * time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if b.at < a.at || (b.at == a.at && b.seq <= a.seq) {
			t.Fatalf("event %d fired out of order: %+v after %+v", i, b, a)
		}
	}
	if len(live) != 0 {
		t.Fatalf("%d live events never fired", len(live))
	}
	if e.Pending() != 0 || e.Fired() != uint64(len(fired)) {
		t.Fatalf("end state: pending=%d fired=%d, want 0 and %d", e.Pending(), e.Fired(), len(fired))
	}
}

// TestCancelThenRescheduleSameHandle is the tombstone regression: the
// completion re-arm pattern (cancel the pending event, schedule the
// replacement, repeatedly) must leave exactly one live event, stale
// handles from earlier generations must never cancel the replacement
// even after the engine recycles the node storage, and the
// cancelled-on-top compaction must release tombstones exactly once.
func TestCancelThenRescheduleSameHandle(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var ev Event
	arm := func(d Duration) {
		ev.Cancel()
		ev = e.Schedule(d, func() { fired++ })
	}
	stale := make([]Event, 0, 64)
	for i := 0; i < 64; i++ {
		arm(time.Duration(10+i) * time.Millisecond)
		stale = append(stale, ev)
	}
	// Drain the head tombstones via peek (NextEventAt discards cancelled
	// nodes at the front and returns them to the free list).
	if at, ok := e.NextEventAt(); !ok || at != Time(73*time.Millisecond) {
		t.Fatalf("NextEventAt = %v,%v; want 73ms,true", at, ok)
	}
	// Nodes released by the compaction are recycled for new events with a
	// bumped generation: every stale handle must now be inert.
	marker := e.Schedule(time.Millisecond, func() { fired += 100 })
	for i, s := range stale[:63] {
		if s.Cancel() {
			t.Fatalf("stale handle %d cancelled a recycled node", i)
		}
	}
	if !marker.Cancel() {
		t.Fatal("live marker handle failed to cancel")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want exactly 1 (the last re-arm)", fired)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// TestPendingEventsSnapshotIsNonDestructive pins the state-capture
// contract: PendingEvents lists live events in fire order, skips
// tombstones, and reading it twice (or firing afterwards) behaves as if
// it was never called.
func TestPendingEventsSnapshotIsNonDestructive(t *testing.T) {
	e := NewEngine(1)
	var keep []Event
	for i := 1; i <= 10; i++ {
		keep = append(keep, e.Schedule(time.Duration(i)*time.Second, func() {}))
	}
	keep[3].Cancel()
	keep[7].Cancel()
	a := e.PendingEvents()
	b := e.PendingEvents()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("snapshot lengths = %d, %d; want 8 (tombstones skipped)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("snapshots differ at %d: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && (a[i].At < a[i-1].At || (a[i].At == a[i-1].At && a[i].Seq <= a[i-1].Seq)) {
			t.Fatalf("snapshot not in (time, seq) order at %d: %+v after %+v", i, a[i], a[i-1])
		}
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending = %d after snapshots, want 10 (capture must not discard)", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Fired() != 8 {
		t.Fatalf("Fired = %d, want 8", e.Fired())
	}
}

// BenchmarkSchedulerChurn is a steady-state mix of schedule,
// cancel-then-reschedule (the completion re-arm pattern) and fire over
// a standing population of pending events.
func BenchmarkSchedulerChurn(b *testing.B) {
	e := NewEngine(1)
	const standing = 16384
	evs := make([]Event, standing)
	for i := range evs {
		evs[i] = e.Schedule(time.Duration(1+i%997)*time.Millisecond, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % standing
		evs[k].Cancel()
		evs[k] = e.Schedule(time.Duration(1+(i*31)%997)*time.Millisecond, func() {})
		e.Step()
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulePooled measures steady-state scheduling on a live
// engine: pooled event nodes make the schedule→fire cycle allocation-free.
func BenchmarkSchedulePooled(b *testing.B) {
	e := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Millisecond, fn)
		e.Step()
	}
}
