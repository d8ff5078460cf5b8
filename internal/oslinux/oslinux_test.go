package oslinux

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

func newPi(t testing.TB) (*sim.Engine, *Kernel) {
	t.Helper()
	e := sim.NewEngine(1)
	k, err := NewKernel(e, hw.PiModelB(), "pi-test")
	if err != nil {
		t.Fatal(err)
	}
	return e, k
}

func TestKernelBoot(t *testing.T) {
	_, k := newPi(t)
	if k.MemTotal() != 256*hw.MiB {
		t.Fatalf("MemTotal = %d", k.MemTotal())
	}
	if k.MemUsed() != DefaultOSReservedBytes {
		t.Fatalf("fresh kernel uses %d, want OS reservation %d", k.MemUsed(), DefaultOSReservedBytes)
	}
	if k.CPUUtil() != 0 {
		t.Fatalf("idle util = %v", k.CPUUtil())
	}
}

func TestKernelRejectsTinyBoard(t *testing.T) {
	e := sim.NewEngine(1)
	b := hw.PiModelB()
	b.MemBytes = 16 * hw.MiB
	if _, err := NewKernel(e, b, "tiny"); err == nil {
		t.Fatal("kernel booted on board smaller than OS reservation")
	}
	b.MemBytes = 0
	if _, err := NewKernel(e, b, "zero"); err == nil {
		t.Fatal("kernel booted on invalid board")
	}
}

func TestSingleTaskGetsFullCPU(t *testing.T) {
	e, k := newPi(t)
	if _, err := k.CreateCGroup("c1", Limits{}); err != nil {
		t.Fatal(err)
	}
	done := false
	// 875 MI on an 875-MIPS board = exactly 1 second.
	if _, err := k.StartTask("c1", TaskSpec{WorkMI: 875, OnDone: func() { done = true }}); err != nil {
		t.Fatal(err)
	}
	if got := k.CPUUtil(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("util = %v, want 1.0", got)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("task did not complete")
	}
	if got := e.Now().Seconds(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("completion at %vs, want 1s", got)
	}
}

func TestSharesProportionalAllocation(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("heavy", Limits{CPUShares: 2048}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateCGroup("light", Limits{CPUShares: 1024}); err != nil {
		t.Fatal(err)
	}
	th, err := k.StartTask("heavy", TaskSpec{})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := k.StartTask("light", TaskSpec{})
	if err != nil {
		t.Fatal(err)
	}
	// 2:1 split of 875 MIPS.
	if got := float64(th.Rate()); math.Abs(got-875*2.0/3.0) > 1e-6 {
		t.Fatalf("heavy rate = %v", got)
	}
	if got := float64(tl.Rate()); math.Abs(got-875/3.0) > 1e-6 {
		t.Fatalf("light rate = %v", got)
	}
}

func TestSharesSplitWithinCgroup(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("a", Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateCGroup("b", Limits{}); err != nil {
		t.Fatal(err)
	}
	// Two tasks in a, one in b: group-level fairness means a's tasks get
	// a quarter each and b's task half.
	a1, _ := k.StartTask("a", TaskSpec{})
	a2, _ := k.StartTask("a", TaskSpec{})
	b1, _ := k.StartTask("b", TaskSpec{})
	if math.Abs(float64(a1.Rate())-875.0/4) > 1e-6 || math.Abs(float64(a2.Rate())-875.0/4) > 1e-6 {
		t.Fatalf("a rates = %v, %v; want 218.75", a1.Rate(), a2.Rate())
	}
	if math.Abs(float64(b1.Rate())-875.0/2) > 1e-6 {
		t.Fatalf("b rate = %v, want 437.5", b1.Rate())
	}
}

func TestQuotaCapsGroup(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("capped", Limits{CPUQuotaMIPS: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateCGroup("free", Limits{}); err != nil {
		t.Fatal(err)
	}
	tc, _ := k.StartTask("capped", TaskSpec{})
	tf, _ := k.StartTask("free", TaskSpec{})
	if got := float64(tc.Rate()); math.Abs(got-100) > 1e-6 {
		t.Fatalf("capped rate = %v, want 100", got)
	}
	// Max-min hands the slack to the other group.
	if got := float64(tf.Rate()); math.Abs(got-775) > 1e-6 {
		t.Fatalf("free rate = %v, want 775", got)
	}
}

func TestRateCapTask(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("c", Limits{}); err != nil {
		t.Fatal(err)
	}
	daemon, _ := k.StartTask("c", TaskSpec{RateCapMIPS: 10})
	if got := float64(daemon.Rate()); math.Abs(got-10) > 1e-6 {
		t.Fatalf("daemon rate = %v, want 10", got)
	}
	if got := k.CPUUtil(); math.Abs(got-10.0/875) > 1e-9 {
		t.Fatalf("util = %v", got)
	}
}

func TestFiniteTasksShareThenComplete(t *testing.T) {
	e, k := newPi(t)
	if _, err := k.CreateCGroup("c", Limits{}); err != nil {
		t.Fatal(err)
	}
	var order []string
	if _, err := k.StartTask("c", TaskSpec{WorkMI: 875, OnDone: func() { order = append(order, "short") }}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.StartTask("c", TaskSpec{WorkMI: 2625, OnDone: func() { order = append(order, "long") }}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Equal shares: short (875 MI) finishes at 2s; long then runs alone:
	// 2625-875=1750 left at 875 MIPS → 2 more seconds. Total 4s.
	if len(order) != 2 || order[0] != "short" || order[1] != "long" {
		t.Fatalf("order = %v", order)
	}
	if got := e.Now().Seconds(); math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("makespan = %v, want 4s", got)
	}
}

func TestCancelTask(t *testing.T) {
	e, k := newPi(t)
	if _, err := k.CreateCGroup("c", Limits{}); err != nil {
		t.Fatal(err)
	}
	fired := false
	task, err := k.StartTask("c", TaskSpec{WorkMI: 875, OnDone: func() { fired = true }})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.CancelTask(task); err != nil {
		t.Fatal(err)
	}
	if err := k.CancelTask(task); !errors.Is(err, ErrTaskEnded) {
		t.Fatalf("double cancel = %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled task fired OnDone")
	}
	if !task.Ended() {
		t.Fatal("task not marked ended")
	}
}

func TestMemoryAccounting(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("c", Limits{MemLimitBytes: 64 * hw.MiB}); err != nil {
		t.Fatal(err)
	}
	if err := k.Alloc("c", 30*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if got := k.CGroup("c").MemUsed(); got != 30*hw.MiB {
		t.Fatalf("cgroup mem = %d", got)
	}
	// Group limit enforced.
	if err := k.Alloc("c", 40*hw.MiB); !errors.Is(err, ErrCgroupMemLimit) {
		t.Fatalf("over-limit alloc = %v", err)
	}
	if err := k.Free("c", 30*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := k.Free("c", 1); err == nil {
		t.Fatal("over-free accepted")
	}
	if err := k.Alloc("c", -5); err == nil {
		t.Fatal("negative alloc accepted")
	}
	if err := k.Alloc("nope", 1); !errors.Is(err, ErrNoSuchCgroup) {
		t.Fatalf("alloc to unknown cgroup = %v", err)
	}
}

func TestNodeOOM(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("big", Limits{}); err != nil {
		t.Fatal(err)
	}
	avail := k.MemAvailable()
	if err := k.Alloc("big", avail); err != nil {
		t.Fatal(err)
	}
	if err := k.Alloc("big", 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc past RAM = %v", err)
	}
	if k.OOMRejects() != 1 {
		t.Fatalf("OOMRejects = %d", k.OOMRejects())
	}
	if v := k.OOMVictim(); v == nil || v.Name != "big" {
		t.Fatalf("OOMVictim = %v", v)
	}
}

func TestOOMVictimPicksLargest(t *testing.T) {
	_, k := newPi(t)
	for _, n := range []string{"a", "b"} {
		if _, err := k.CreateCGroup(n, Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Alloc("a", 10*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := k.Alloc("b", 20*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if v := k.OOMVictim(); v.Name != "b" {
		t.Fatalf("victim = %s, want b", v.Name)
	}
}

func TestCgroupLifecycle(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("c", Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CreateCGroup("c", Limits{}); !errors.Is(err, ErrCgroupExists) {
		t.Fatalf("duplicate create = %v", err)
	}
	if _, err := k.CreateCGroup("bad", Limits{CPUShares: -1}); err == nil {
		t.Fatal("negative shares accepted")
	}
	if err := k.Alloc("c", hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := k.RemoveCGroup("c"); !errors.Is(err, ErrCgroupBusy) {
		t.Fatalf("remove busy = %v", err)
	}
	if err := k.Free("c", hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := k.RemoveCGroup("c"); err != nil {
		t.Fatal(err)
	}
	if err := k.RemoveCGroup("c"); !errors.Is(err, ErrNoSuchCgroup) {
		t.Fatalf("double remove = %v", err)
	}
}

func TestSetLimitsRescheduling(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("c", Limits{}); err != nil {
		t.Fatal(err)
	}
	task, _ := k.StartTask("c", TaskSpec{})
	if math.Abs(float64(task.Rate())-875) > 1e-6 {
		t.Fatalf("rate = %v", task.Rate())
	}
	if err := k.SetLimits("c", Limits{CPUQuotaMIPS: 200}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(task.Rate())-200) > 1e-6 {
		t.Fatalf("rate after quota = %v, want 200", task.Rate())
	}
	if err := k.SetLimits("nope", Limits{}); !errors.Is(err, ErrNoSuchCgroup) {
		t.Fatalf("SetLimits unknown = %v", err)
	}
	// Lowering a mem limit below usage is refused.
	if err := k.Alloc("c", 10*hw.MiB); err != nil {
		t.Fatal(err)
	}
	if err := k.SetLimits("c", Limits{MemLimitBytes: hw.MiB}); !errors.Is(err, ErrCgroupMemLimit) {
		t.Fatalf("shrink below usage = %v", err)
	}
}

// lastUtil is a utilisation observer that keeps the latest reading.
type lastUtil float64

func (l *lastUtil) SetUtilisation(_ sim.Time, u float64) { *l = lastUtil(u) }

func TestUtilObserverAndEnergyHookup(t *testing.T) {
	e, k := newPi(t)
	var obs lastUtil
	k.OnUtilChange(&obs)
	if _, err := k.CreateCGroup("c", Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.StartTask("c", TaskSpec{WorkMI: 875}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(obs)-1.0) > 1e-9 {
		t.Fatalf("observer saw %v, want 1.0", obs)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if obs != 0 {
		t.Fatalf("observer saw %v after completion, want 0", obs)
	}
}

func TestDirtyRate(t *testing.T) {
	_, k := newPi(t)
	if _, err := k.CreateCGroup("c", Limits{}); err != nil {
		t.Fatal(err)
	}
	if err := k.SetDirtyRate("c", 5*float64(hw.MiB)); err != nil {
		t.Fatal(err)
	}
	if got := k.CGroup("c").DirtyRateBytesPerS(); got != 5*float64(hw.MiB) {
		t.Fatalf("dirty rate = %v", got)
	}
	if err := k.SetDirtyRate("c", -1); err != nil {
		t.Fatal(err)
	}
	if got := k.CGroup("c").DirtyRateBytesPerS(); got != 0 {
		t.Fatalf("negative dirty rate stored: %v", got)
	}
	if err := k.SetDirtyRate("nope", 1); !errors.Is(err, ErrNoSuchCgroup) {
		t.Fatalf("unknown cgroup = %v", err)
	}
}

func TestStorageQueueFIFO(t *testing.T) {
	e, k := newPi(t)
	var order []string
	var times []float64
	// 20MiB read at 20MiB/s = 1s; 10MiB write at 10MiB/s = 1s more.
	k.StorageRead(20*hw.MiB, func() {
		order = append(order, "read")
		times = append(times, e.Now().Seconds())
	})
	k.StorageWrite(10*hw.MiB, func() {
		order = append(order, "write")
		times = append(times, e.Now().Seconds())
	})
	if k.StorageQueueDepth() != 2 {
		t.Fatalf("queue depth = %d", k.StorageQueueDepth())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "read" || order[1] != "write" {
		t.Fatalf("order = %v", order)
	}
	if math.Abs(times[0]-1.0) > 1e-6 || math.Abs(times[1]-2.0) > 1e-6 {
		t.Fatalf("times = %v, want [1,2]", times)
	}
	if k.StorageQueueDepth() != 0 {
		t.Fatalf("queue depth after drain = %d", k.StorageQueueDepth())
	}
}

// Property: however many tasks and groups, allocated CPU never exceeds
// board capacity and no task rate is negative.
func TestPropertySchedulerSafety(t *testing.T) {
	f := func(layout []uint8) bool {
		_, k := newPi(t)
		for i, tasks := range layout {
			if i >= 6 {
				break
			}
			name := string(rune('a' + i))
			shares := 512 * (int(tasks%4) + 1)
			if _, err := k.CreateCGroup(name, Limits{CPUShares: shares}); err != nil {
				return false
			}
			for j := 0; j < int(tasks%5); j++ {
				if _, err := k.StartTask(name, TaskSpec{}); err != nil {
					return false
				}
			}
		}
		total := 0.0
		for _, cg := range k.cgroups {
			for task := range cg.tasks {
				if task.rate < -1e-9 {
					return false
				}
				total += task.rate
			}
		}
		return total <= float64(k.spec.CPU)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: finite work is conserved — a task's completion time equals
// work/capacity when run alone, regardless of work size.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(work uint16) bool {
		if work == 0 {
			return true
		}
		e := sim.NewEngine(2)
		k, err := NewKernel(e, hw.PiModelB(), "p")
		if err != nil {
			return false
		}
		if _, err := k.CreateCGroup("c", Limits{}); err != nil {
			return false
		}
		if _, err := k.StartTask("c", TaskSpec{WorkMI: hw.MI(work)}); err != nil {
			return false
		}
		if err := e.Run(); err != nil {
			return false
		}
		want := float64(work) / 875.0
		return math.Abs(e.Now().Seconds()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReschedule30Tasks(b *testing.B) {
	_, k := newPi(b)
	for i := 0; i < 10; i++ {
		name := string(rune('a' + i))
		if _, err := k.CreateCGroup(name, Limits{}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if _, err := k.StartTask(name, TaskSpec{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.reschedule()
	}
}

func TestFreezerStopsProgress(t *testing.T) {
	e, k := newPi(t)
	if _, err := k.CreateCGroup("c", Limits{}); err != nil {
		t.Fatal(err)
	}
	done := false
	// 875 MI = 1s of work unfrozen.
	task, err := k.StartTask("c", TaskSpec{WorkMI: 875, OnDone: func() { done = true }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := k.SetFrozen("c", true); err != nil {
		t.Fatal(err)
	}
	if !k.CGroup("c").Frozen() {
		t.Fatal("cgroup not marked frozen")
	}
	if task.Rate() != 0 {
		t.Fatalf("frozen task rate = %v", task.Rate())
	}
	// Idempotent freeze.
	if err := k.SetFrozen("c", true); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if done {
		t.Fatal("frozen task completed")
	}
	if err := k.SetFrozen("c", false); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("thawed task never completed")
	}
	// 0.5s ran + 10s frozen + 0.5s remaining = 11s.
	if got := e.Now().Seconds(); math.Abs(got-11.0) > 1e-6 {
		t.Fatalf("completion at %vs, want 11s", got)
	}
	if err := k.SetFrozen("nope", true); !errors.Is(err, ErrNoSuchCgroup) {
		t.Fatalf("freeze unknown = %v", err)
	}
}

// TestKernelBoard: kernels stamped in place from one board, as a
// fleet's template stamps its hosts, share it; each still validates it.
// A NewKernel kernel keeps its own copy, so the caller mutating its spec
// afterwards changes nothing the kernel reads.
func TestKernelBoard(t *testing.T) {
	e := sim.NewEngine(1)
	board := hw.PiModelB()
	var stamped [3]Kernel
	for i := range stamped {
		if err := stamped[i].Init(e, &board, "pi"); err != nil {
			t.Fatal(err)
		}
		if stamped[i].spec != &board {
			t.Fatalf("stamped kernel %d copied its board", i)
		}
	}
	tiny := hw.PiModelB()
	tiny.MemBytes = 16 * hw.MiB
	var k Kernel
	if err := k.Init(e, &tiny, "pi"); err == nil {
		t.Fatal("Init accepted a board with less RAM than the OS needs")
	}

	spec := hw.PiModelB()
	own, err := NewKernel(e, spec, "pi")
	if err != nil {
		t.Fatal(err)
	}
	spec.Model, spec.MemBytes, spec.CPU = "changed", 1<<40, 1
	spec.Storage.ReadBytesPerS = 1
	if own.Spec() != hw.PiModelB() || own.MemTotal() != 256*hw.MiB {
		t.Fatalf("a NewKernel kernel followed its caller's spec: %+v", own.Spec())
	}
	read := false
	own.StorageRead(int64(hw.PiModelB().Storage.ReadBytesPerS), func() { read = true })
	if err := e.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if !read {
		t.Fatal("a one-second read at the board's rate took longer than a second")
	}
}
