// Package oslinux models the Raspbian/Linux kernel running on every
// PiCloud node: a proportional-share (CFS-like) CPU scheduler driven by
// cgroup shares and quotas, cgroup memory accounting with node-level OOM,
// a serialised SD-card IO queue, and the dirty-page bookkeeping live
// migration needs. This is the CGROUPS substrate the paper's Linux
// Containers sit on.
//
// A kernel reads its board through a pointer: a fleet's kernels share
// their template's validated board rather than each carrying a copy,
// and the I/O queue reads the card's rates from it. NewKernel gives a
// standalone kernel a board of its own.
package oslinux

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Errors.
var (
	ErrCgroupExists   = errors.New("oslinux: cgroup already exists")
	ErrNoSuchCgroup   = errors.New("oslinux: no such cgroup")
	ErrCgroupBusy     = errors.New("oslinux: cgroup has tasks or memory")
	ErrCgroupMemLimit = errors.New("oslinux: cgroup memory limit exceeded")
	ErrOutOfMemory    = errors.New("oslinux: node out of memory")
	ErrTaskEnded      = errors.New("oslinux: task already ended")
)

// DefaultShares is the kernel's default cpu.shares value.
const DefaultShares = 1024

// DefaultOSReservedBytes approximates a headless Raspbian's own footprint.
const DefaultOSReservedBytes = 48 * hw.MiB

// Limits configures a cgroup.
type Limits struct {
	// CPUShares is the proportional weight (default 1024).
	CPUShares int
	// CPUQuotaMIPS caps the group's aggregate CPU rate; 0 = unlimited.
	CPUQuotaMIPS hw.MIPS
	// MemLimitBytes caps the group's memory; 0 = unlimited (node-bound).
	MemLimitBytes int64
}

// CGroup is one control group: the isolation unit a container maps onto.
type CGroup struct {
	Name    string
	limits  Limits
	memUsed int64
	tasks   map[*Task]struct{}
	// dirtyRate is the rate at which the group's memory pages are being
	// re-written; pre-copy migration converges only if it can copy
	// faster than this.
	dirtyRate float64 // bytes/s
	// frozen mirrors the cgroup freezer: tasks keep their state but make
	// no progress.
	frozen bool
}

// Frozen reports whether the group is in the freezer.
func (c *CGroup) Frozen() bool { return c.frozen }

// MemUsed returns the group's current memory usage in bytes.
func (c *CGroup) MemUsed() int64 { return c.memUsed }

// Limits returns the group's current limits.
func (c *CGroup) Limits() Limits { return c.limits }

// DirtyRateBytesPerS returns the page-dirtying rate workloads declared.
func (c *CGroup) DirtyRateBytesPerS() float64 { return c.dirtyRate }

// TaskSpec describes CPU work to run inside a cgroup.
type TaskSpec struct {
	// WorkMI is the total work; zero or negative means an endless
	// service task that runs until cancelled.
	WorkMI hw.MI
	// RateCapMIPS optionally caps the task below its fair share
	// (a mostly-idle daemon). Zero means no cap.
	RateCapMIPS hw.MIPS
	// OnDone fires when a finite task finishes.
	OnDone func()
}

// Task is a running unit of CPU demand.
type Task struct {
	PID     int
	Spec    TaskSpec
	cgroup  *CGroup
	rate    float64 // MIPS currently granted
	remain  float64 // MI outstanding (finite tasks)
	started sim.Time
	last    sim.Time
	doneEv  sim.Event
	ended   bool
}

// Rate returns the task's current CPU allocation in MIPS.
func (t *Task) Rate() hw.MIPS { return hw.MIPS(t.rate) }

// Ended reports whether the task has finished or was cancelled.
func (t *Task) Ended() bool { return t.ended }

// Kernel is the per-node OS. Single-threaded on the simulation engine.
type Kernel struct {
	Name   string
	engine *sim.Engine
	// spec is the board, which the kernel never writes.
	spec *hw.BoardSpec

	// cgroups is made by the first CreateCGroup: most nodes of a large
	// fleet never run a container.
	cgroups map[string]*CGroup
	nextPID int
	memUsed int64 // includes OS reservation
	// reserved is the kernel+base-system footprint.
	reserved int64

	io ioQueue

	// onUtil, if set, observes every CPU utilisation change (the energy
	// meter subscribes).
	onUtil UtilObserver

	oomRejects uint64
}

// UtilObserver observes a kernel's CPU utilisation: a node's energy
// meter, which integrates power over it.
type UtilObserver interface {
	SetUtilisation(at sim.Time, util float64)
}

// NewKernel boots an OS model on the given board, of which the kernel
// keeps its own copy.
func NewKernel(engine *sim.Engine, spec hw.BoardSpec, name string) (*Kernel, error) {
	k := new(Kernel)
	if err := k.Init(engine, &spec, name); err != nil {
		return nil, err
	}
	return k, nil
}

// Init boots an OS model on the board spec points at in k, a zero
// Kernel: what NewKernel does, in place, so a fleet can stamp a host's
// parts into one allocation. The kernel keeps spec, which must not change
// while it runs; a fleet's kernels all point at their template's board.
func (k *Kernel) Init(engine *sim.Engine, spec *hw.BoardSpec, name string) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if DefaultOSReservedBytes > spec.MemBytes {
		return fmt.Errorf("oslinux: board %q has less RAM than the OS needs", spec.Model)
	}
	k.Name, k.engine, k.spec = name, engine, spec
	k.reserved, k.memUsed = DefaultOSReservedBytes, DefaultOSReservedBytes
	k.io.engine = engine
	return nil
}

// Spec returns the board the kernel runs on.
func (k *Kernel) Spec() hw.BoardSpec { return *k.spec }

// OnUtilChange registers the utilisation observer (at most one).
func (k *Kernel) OnUtilChange(o UtilObserver) { k.onUtil = o }

// OOMRejects counts allocations refused for lack of node memory.
func (k *Kernel) OOMRejects() uint64 { return k.oomRejects }

// CreateCGroup makes a new control group. Zero-valued shares default to
// DefaultShares.
func (k *Kernel) CreateCGroup(name string, l Limits) (*CGroup, error) {
	if _, dup := k.cgroups[name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrCgroupExists, name)
	}
	if l.CPUShares == 0 {
		l.CPUShares = DefaultShares
	}
	if l.CPUShares < 0 || l.CPUQuotaMIPS < 0 || l.MemLimitBytes < 0 {
		return nil, fmt.Errorf("oslinux: negative limits for cgroup %s", name)
	}
	cg := &CGroup{Name: name, limits: l, tasks: make(map[*Task]struct{})}
	if k.cgroups == nil {
		k.cgroups = make(map[string]*CGroup)
	}
	k.cgroups[name] = cg
	return cg, nil
}

// CGroup returns the named group, or nil.
func (k *Kernel) CGroup(name string) *CGroup { return k.cgroups[name] }

// RemoveCGroup deletes an empty group.
func (k *Kernel) RemoveCGroup(name string) error {
	cg, ok := k.cgroups[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchCgroup, name)
	}
	if len(cg.tasks) > 0 || cg.memUsed > 0 {
		return fmt.Errorf("%w: %s", ErrCgroupBusy, name)
	}
	delete(k.cgroups, name)
	return nil
}

// SetLimits replaces a group's limits and reschedules the CPU.
func (k *Kernel) SetLimits(name string, l Limits) error {
	cg, ok := k.cgroups[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchCgroup, name)
	}
	if l.CPUShares == 0 {
		l.CPUShares = DefaultShares
	}
	if l.CPUShares < 0 || l.CPUQuotaMIPS < 0 || l.MemLimitBytes < 0 {
		return fmt.Errorf("oslinux: negative limits for cgroup %s", name)
	}
	if l.MemLimitBytes > 0 && cg.memUsed > l.MemLimitBytes {
		return fmt.Errorf("%w: %s uses %d bytes, new limit %d", ErrCgroupMemLimit, name, cg.memUsed, l.MemLimitBytes)
	}
	cg.limits = l
	k.reschedule()
	return nil
}

// SetFrozen moves a cgroup in or out of the freezer. Frozen tasks retain
// their remaining work but receive no CPU, exactly like the kernel
// freezer used by lxc-freeze and by stop-and-copy migration.
func (k *Kernel) SetFrozen(name string, frozen bool) error {
	cg, ok := k.cgroups[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchCgroup, name)
	}
	if cg.frozen == frozen {
		return nil
	}
	k.advance()
	cg.frozen = frozen
	k.reschedule()
	return nil
}

// SetDirtyRate declares the rate at which a group's pages are dirtied.
func (k *Kernel) SetDirtyRate(name string, bytesPerS float64) error {
	cg, ok := k.cgroups[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchCgroup, name)
	}
	if bytesPerS < 0 {
		bytesPerS = 0
	}
	cg.dirtyRate = bytesPerS
	return nil
}

// Alloc charges bytes of memory to a cgroup, enforcing the group limit
// and the board's physical RAM.
func (k *Kernel) Alloc(name string, bytes int64) error {
	cg, ok := k.cgroups[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchCgroup, name)
	}
	if bytes < 0 {
		return fmt.Errorf("oslinux: negative allocation")
	}
	if cg.limits.MemLimitBytes > 0 && cg.memUsed+bytes > cg.limits.MemLimitBytes {
		return fmt.Errorf("%w: %s", ErrCgroupMemLimit, name)
	}
	if k.memUsed+bytes > k.spec.MemBytes {
		k.oomRejects++
		return fmt.Errorf("%w: node %s (%d of %d bytes used)", ErrOutOfMemory, k.Name, k.memUsed, k.spec.MemBytes)
	}
	cg.memUsed += bytes
	k.memUsed += bytes
	return nil
}

// Free returns memory from a cgroup.
func (k *Kernel) Free(name string, bytes int64) error {
	cg, ok := k.cgroups[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchCgroup, name)
	}
	if bytes < 0 || bytes > cg.memUsed {
		return fmt.Errorf("oslinux: freeing %d bytes from cgroup %s holding %d", bytes, name, cg.memUsed)
	}
	cg.memUsed -= bytes
	k.memUsed -= bytes
	return nil
}

// MemTotal returns the board RAM.
func (k *Kernel) MemTotal() int64 { return k.spec.MemBytes }

// MemUsed returns used memory including the OS reservation.
func (k *Kernel) MemUsed() int64 { return k.memUsed }

// MemAvailable returns free memory.
func (k *Kernel) MemAvailable() int64 { return k.spec.MemBytes - k.memUsed }

// OOMVictim returns the cgroup using the most memory — the kernel's kill
// choice under pressure — or nil when none hold memory.
func (k *Kernel) OOMVictim() *CGroup {
	var victim *CGroup
	for _, cg := range k.cgroups {
		if victim == nil || cg.memUsed > victim.memUsed ||
			(cg.memUsed == victim.memUsed && cg.Name < victim.Name) {
			if cg.memUsed > 0 {
				victim = cg
			}
		}
	}
	return victim
}

// StartTask admits CPU work into a cgroup and reschedules.
func (k *Kernel) StartTask(cgName string, spec TaskSpec) (*Task, error) {
	cg, ok := k.cgroups[cgName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchCgroup, cgName)
	}
	k.advance()
	k.nextPID++
	t := &Task{
		PID:     k.nextPID,
		Spec:    spec,
		cgroup:  cg,
		remain:  float64(spec.WorkMI),
		started: k.engine.Now(),
		last:    k.engine.Now(),
	}
	cg.tasks[t] = struct{}{}
	k.reschedule()
	return t, nil
}

// CancelTask stops a task before completion. Its OnDone does not fire.
func (k *Kernel) CancelTask(t *Task) error {
	if t.ended {
		return ErrTaskEnded
	}
	k.advance()
	k.endTask(t)
	k.reschedule()
	return nil
}

// endTask finalises a task; callers follow with reschedule().
func (k *Kernel) endTask(t *Task) {
	if t.ended {
		return
	}
	t.ended = true
	t.rate = 0
	t.doneEv.Cancel()
	t.doneEv = sim.Event{}
	delete(t.cgroup.tasks, t)
}

// advance credits work done since the last scheduling decision.
func (k *Kernel) advance() {
	now := k.engine.Now()
	for _, cg := range k.cgroups {
		for t := range cg.tasks {
			dt := now.Sub(t.last).Seconds()
			if dt > 0 && t.rate > 0 && t.Spec.WorkMI > 0 {
				done := t.rate * dt
				if done > t.remain {
					done = t.remain
				}
				t.remain -= done
			}
			t.last = now
		}
	}
}

// reschedule recomputes the weighted max-min CPU allocation.
//
// Resources: the board CPU (capacity spec.CPU) shared by all tasks, and
// each cgroup quota shared by that group's tasks. Task weight =
// cgroup shares / live tasks in the group, mirroring CFS group
// scheduling. Progressive filling raises all rates proportionally to
// weight until a resource saturates or a task hits its cap.
func (k *Kernel) reschedule() {
	active := make(map[*Task]float64) // task → weight
	for _, cg := range k.cgroups {
		if len(cg.tasks) == 0 {
			continue
		}
		w := float64(cg.limits.CPUShares) / float64(len(cg.tasks))
		for t := range cg.tasks {
			t.rate = 0
			if !cg.frozen {
				active[t] = w
			}
		}
	}
	cpuRemaining := float64(k.spec.CPU)
	quotaRemaining := make(map[*CGroup]float64)
	for _, cg := range k.cgroups {
		if cg.limits.CPUQuotaMIPS > 0 {
			quotaRemaining[cg] = float64(cg.limits.CPUQuotaMIPS)
		}
	}
	for len(active) > 0 {
		// Find the smallest proportional increment that saturates
		// something.
		sumW := 0.0
		sumWByGroup := make(map[*CGroup]float64)
		for t, w := range active {
			sumW += w
			sumWByGroup[t.cgroup] += w
		}
		inc := math.Inf(1)
		if sumW > 0 {
			inc = cpuRemaining / sumW
		}
		for cg, rem := range quotaRemaining {
			if gw := sumWByGroup[cg]; gw > 0 {
				if v := rem / gw; v < inc {
					inc = v
				}
			}
		}
		for t, w := range active {
			if t.Spec.RateCapMIPS > 0 && w > 0 {
				if v := (float64(t.Spec.RateCapMIPS) - t.rate) / w; v < inc {
					inc = v
				}
			}
		}
		if math.IsInf(inc, 1) || inc < 0 {
			break
		}
		for t, w := range active {
			t.rate += inc * w
		}
		cpuRemaining -= inc * sumW
		for cg, gw := range sumWByGroup {
			if _, ok := quotaRemaining[cg]; ok {
				quotaRemaining[cg] -= inc * gw
			}
		}
		// Freeze.
		cpuDone := cpuRemaining <= 1e-9
		for t := range active {
			frozen := cpuDone
			if !frozen {
				if rem, ok := quotaRemaining[t.cgroup]; ok && rem <= 1e-9 {
					frozen = true
				}
			}
			if !frozen && t.Spec.RateCapMIPS > 0 && t.rate >= float64(t.Spec.RateCapMIPS)-1e-9 {
				frozen = true
			}
			if frozen {
				delete(active, t)
			}
		}
		if cpuDone {
			break
		}
	}
	k.rescheduleCompletions()
	k.notifyUtil()
}

// rescheduleCompletions re-arms finite tasks' completion events.
func (k *Kernel) rescheduleCompletions() {
	for _, cg := range k.cgroups {
		for t := range cg.tasks {
			t.doneEv.Cancel()
			t.doneEv = sim.Event{}
			if t.Spec.WorkMI <= 0 || t.rate <= 0 {
				continue
			}
			seconds := t.remain / t.rate
			t := t
			t.doneEv = k.engine.Schedule(time.Duration(seconds*float64(time.Second)), func() {
				k.advance()
				t.remain = 0
				done := t.Spec.OnDone
				k.endTask(t)
				k.reschedule()
				if done != nil {
					done()
				}
			})
		}
	}
}

// CPUUtil returns the fraction of board CPU currently allocated.
func (k *Kernel) CPUUtil() float64 {
	total := 0.0
	for _, cg := range k.cgroups {
		for t := range cg.tasks {
			total += t.rate
		}
	}
	u := total / float64(k.spec.CPU)
	if u > 1 {
		u = 1
	}
	return u
}

func (k *Kernel) notifyUtil() {
	if k.onUtil != nil {
		k.onUtil.SetUtilisation(k.engine.Now(), k.CPUUtil())
	}
}

// --- Storage IO ---

// ioQueue serialises SD-card transfers: one operation at a time, FIFO,
// at the card's sequential bandwidth, which the kernel reads from its
// board.
type ioQueue struct {
	engine   *sim.Engine
	busyTill sim.Time
	queued   int
}

// enqueue schedules an operation after all earlier ones.
func (q *ioQueue) enqueue(bytes int64, bps float64, fn func()) {
	if bps <= 0 {
		if fn != nil {
			q.engine.Schedule(0, fn)
		}
		return
	}
	dur := time.Duration(float64(bytes) / bps * float64(time.Second))
	start := q.engine.Now()
	if q.busyTill > start {
		start = q.busyTill
	}
	end := start.Add(dur)
	q.busyTill = end
	q.queued++
	q.engine.ScheduleAt(end, func() {
		q.queued--
		if fn != nil {
			fn()
		}
	})
}

// StorageRead schedules a sequential read of n bytes; fn fires when the
// card delivers the last byte (FIFO behind earlier operations).
func (k *Kernel) StorageRead(n int64, fn func()) {
	k.io.enqueue(n, float64(k.spec.Storage.ReadBytesPerS), fn)
}

// StorageWrite schedules a sequential write of n bytes.
func (k *Kernel) StorageWrite(n int64, fn func()) {
	k.io.enqueue(n, float64(k.spec.Storage.WriteBytesPerS), fn)
}

// StorageQueueDepth returns the number of in-flight or queued operations.
func (k *Kernel) StorageQueueDepth() int { return k.io.queued }
