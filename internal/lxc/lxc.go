// Package lxc models the Linux Container suite on each PiCloud node: the
// lxc-create / lxc-start / lxc-freeze / lxc-stop / lxc-destroy lifecycle,
// rootfs provisioning from layered images onto the SD card (with a layer
// cache, so co-located containers share base layers), cgroup-backed CPU
// and memory isolation, and the paper's measured idle footprint of
// ~30 MB RSS per container.
//
// Containers are "an enhanced version of chroot": they get their own
// cgroup and (simulated) network identity, not a full virtual machine —
// exactly the trade-off Section II-B describes for 256 MB boards.
package lxc

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/hw"
	"repro/internal/image"
	"repro/internal/oslinux"
	"repro/internal/sim"
)

// IdleRSSBytes is the paper's measured idle footprint: "we can run three
// containers on a single Pi, each consuming 30MB RAM when idle".
const IdleRSSBytes = 30 * hw.MiB

// WritableLayerBytes is the copy-on-write scratch space each container
// adds on top of its (shared) image layers.
const WritableLayerBytes = 16 * hw.MiB

// ComfortableContainersPerPi is the paper's supported density: "we are
// able to comfortably support three containers concurrently on a
// Raspberry Pi". The suite does not hard-enforce it; pimaster placement
// treats it as capacity.
const ComfortableContainersPerPi = 3

// bootReadBytes is how much of the rootfs a container start streams from
// the SD card before its init completes.
const bootReadBytes = 20 * hw.MiB

// State is the container lifecycle state.
type State int

// Container states, mirroring the lxc tool suite.
const (
	StateStopped State = iota + 1
	StateStarting
	StateRunning
	StateFrozen
)

// String names the state like lxc-info does.
func (s State) String() string {
	switch s {
	case StateStopped:
		return "STOPPED"
	case StateStarting:
		return "STARTING"
	case StateRunning:
		return "RUNNING"
	case StateFrozen:
		return "FROZEN"
	default:
		return fmt.Sprintf("STATE(%d)", int(s))
	}
}

// NetMode selects the container's network attachment (Section II-B:
// "bridging or NATing the virtual hosts to the physical network").
type NetMode int

// Network modes.
const (
	NetBridged NetMode = iota + 1
	NetNAT
)

// String names the mode.
func (m NetMode) String() string {
	switch m {
	case NetBridged:
		return "bridged"
	case NetNAT:
		return "nat"
	default:
		return fmt.Sprintf("netmode(%d)", int(m))
	}
}

// Errors.
var (
	ErrExists     = errors.New("lxc: container already exists")
	ErrNotFound   = errors.New("lxc: no such container")
	ErrBadState   = errors.New("lxc: operation invalid in current state")
	ErrDiskFull   = errors.New("lxc: SD card full")
	ErrBadSpec    = errors.New("lxc: invalid spec")
	ErrNoCapacity = errors.New("lxc: insufficient memory for container")
)

// Spec describes a container to create.
type Spec struct {
	Name  string
	Image string // image reference in the suite's store
	// MemLimitBytes is the soft per-VM memory cap (0 = node-bound).
	MemLimitBytes int64
	// CPUShares is the proportional CPU weight (0 = kernel default).
	CPUShares int
	// CPUQuotaMIPS hard-caps the container's CPU (0 = none).
	CPUQuotaMIPS hw.MIPS
	// Net selects bridged or NAT attachment. Zero defaults to bridged.
	Net NetMode
}

// Container is one virtualised host on a node.
type Container struct {
	Spec      Spec
	state     State
	cgroup    string
	createdAt sim.Time
	startedAt sim.Time
	idleTask  *oslinux.Task
	// appMem tracks memory allocated by workloads beyond the idle RSS.
	appMem int64
}

// State returns the lifecycle state.
func (c *Container) State() State { return c.state }

// CgroupName returns the kernel cgroup backing the container.
func (c *Container) CgroupName() string { return c.cgroup }

// AppMemBytes returns workload memory beyond the idle RSS.
func (c *Container) AppMemBytes() int64 { return c.appMem }

// Suite is the per-node LXC toolset plus rootfs/layer accounting.
type Suite struct {
	engine *sim.Engine
	kernel *oslinux.Kernel
	store  *image.Store

	// The three maps are made by the first Create: most nodes of a large
	// fleet never host a container.
	containers map[string]*Container
	// layerRefs counts how many containers reference each SD-cached
	// layer; layers are evicted at zero references.
	layerRefs map[string]int
	layerSize map[string]int64
	sdUsed    int64
}

// NewSuite installs the LXC tooling on a node.
func NewSuite(engine *sim.Engine, kernel *oslinux.Kernel, store *image.Store) *Suite {
	s := new(Suite)
	s.Init(engine, kernel, store)
	return s
}

// Init installs the LXC tooling in s, a zero Suite, as NewSuite would,
// in place, so a fleet can stamp a host's parts into one allocation.
func (s *Suite) Init(engine *sim.Engine, kernel *oslinux.Kernel, store *image.Store) {
	s.engine, s.kernel, s.store = engine, kernel, store
}

// Kernel exposes the node OS (for workloads running inside containers).
func (s *Suite) Kernel() *oslinux.Kernel { return s.kernel }

// SDUsedBytes returns current SD-card usage by container storage.
func (s *Suite) SDUsedBytes() int64 { return s.sdUsed }

// SDFreeBytes returns remaining SD capacity.
func (s *Suite) SDFreeBytes() int64 {
	return s.kernel.Spec().Storage.CapacityBytes - s.sdUsed
}

// Create provisions a container: pulls missing image layers onto the SD
// card, adds the writable layer, and creates the backing cgroup
// (lxc-create).
func (s *Suite) Create(spec Spec) (*Container, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrBadSpec)
	}
	if spec.Net == 0 {
		spec.Net = NetBridged
	}
	if _, dup := s.containers[spec.Name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrExists, spec.Name)
	}
	img, err := s.store.Get(spec.Image)
	if err != nil {
		return nil, fmt.Errorf("lxc: resolving image for %s: %w", spec.Name, err)
	}
	// SD accounting: missing layers + writable layer.
	var need int64 = WritableLayerBytes
	for _, l := range img.Layers {
		if s.layerRefs[l.ID] == 0 {
			need += l.SizeBytes
		}
	}
	if need > s.SDFreeBytes() {
		return nil, fmt.Errorf("%w: need %d bytes, %d free", ErrDiskFull, need, s.SDFreeBytes())
	}
	cgName := "lxc/" + spec.Name
	if _, err := s.kernel.CreateCGroup(cgName, oslinux.Limits{
		CPUShares:     spec.CPUShares,
		CPUQuotaMIPS:  spec.CPUQuotaMIPS,
		MemLimitBytes: spec.MemLimitBytes,
	}); err != nil {
		return nil, fmt.Errorf("lxc: creating cgroup for %s: %w", spec.Name, err)
	}
	if s.containers == nil {
		s.containers = make(map[string]*Container)
		s.layerRefs = make(map[string]int)
		s.layerSize = make(map[string]int64)
	}
	for _, l := range img.Layers {
		if s.layerRefs[l.ID] == 0 {
			s.sdUsed += l.SizeBytes
			s.layerSize[l.ID] = l.SizeBytes
		}
		s.layerRefs[l.ID]++
	}
	s.sdUsed += WritableLayerBytes
	c := &Container{
		Spec:      spec,
		state:     StateStopped,
		cgroup:    cgName,
		createdAt: s.engine.Now(),
	}
	s.containers[spec.Name] = c
	return c, nil
}

// Start boots a stopped container (lxc-start): allocates the idle RSS,
// streams init from the SD card, then enters RUNNING with the container's
// idle daemons ticking. onRunning, if non-nil, fires at RUNNING.
func (s *Suite) Start(name string, onRunning func()) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if c.state != StateStopped {
		return fmt.Errorf("%w: start in %s", ErrBadState, c.state)
	}
	if err := s.kernel.Alloc(c.cgroup, IdleRSSBytes); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrNoCapacity, name, err)
	}
	c.state = StateStarting
	s.kernel.StorageRead(bootReadBytes, func() {
		if c.state != StateStarting {
			return // stopped while booting
		}
		idle, err := s.kernel.StartTask(c.cgroup, oslinux.TaskSpec{
			RateCapMIPS: 5, // container init + daemons ticking over
		})
		if err != nil {
			// Cannot start the init task: roll back to stopped.
			c.state = StateStopped
			_ = s.kernel.Free(c.cgroup, IdleRSSBytes)
			return
		}
		c.idleTask = idle
		c.state = StateRunning
		c.startedAt = s.engine.Now()
		if onRunning != nil {
			onRunning()
		}
	})
	return nil
}

// Freeze suspends a running container via the cgroup freezer
// (lxc-freeze).
func (s *Suite) Freeze(name string) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if c.state != StateRunning {
		return fmt.Errorf("%w: freeze in %s", ErrBadState, c.state)
	}
	if err := s.kernel.SetFrozen(c.cgroup, true); err != nil {
		return err
	}
	c.state = StateFrozen
	return nil
}

// Unfreeze resumes a frozen container (lxc-unfreeze).
func (s *Suite) Unfreeze(name string) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if c.state != StateFrozen {
		return fmt.Errorf("%w: unfreeze in %s", ErrBadState, c.state)
	}
	if err := s.kernel.SetFrozen(c.cgroup, false); err != nil {
		return err
	}
	c.state = StateRunning
	return nil
}

// Stop halts a container (lxc-stop): all its tasks are killed and its
// memory returned. The rootfs stays on the SD card for a later restart.
func (s *Suite) Stop(name string) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	switch c.state {
	case StateStopped:
		return fmt.Errorf("%w: already stopped", ErrBadState)
	case StateFrozen:
		if err := s.kernel.SetFrozen(c.cgroup, false); err != nil {
			return err
		}
	}
	// A STARTING container never reaches RUNNING: the boot callback
	// checks the state before finishing.
	c.state = StateStopped
	if c.idleTask != nil && !c.idleTask.Ended() {
		_ = s.kernel.CancelTask(c.idleTask)
	}
	c.idleTask = nil
	// Free idle RSS plus whatever workloads still hold.
	cg := s.kernel.CGroup(c.cgroup)
	if cg != nil && cg.MemUsed() > 0 {
		if err := s.kernel.Free(c.cgroup, cg.MemUsed()); err != nil {
			return err
		}
	}
	c.appMem = 0
	return nil
}

// Destroy removes a stopped container and releases its writable layer;
// image layers are dereferenced and evicted when unused (lxc-destroy).
func (s *Suite) Destroy(name string) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if c.state != StateStopped {
		return fmt.Errorf("%w: destroy in %s", ErrBadState, c.state)
	}
	img, err := s.store.Get(c.Spec.Image)
	if err != nil {
		return err
	}
	if err := s.kernel.RemoveCGroup(c.cgroup); err != nil {
		return err
	}
	for _, l := range img.Layers {
		s.layerRefs[l.ID]--
		if s.layerRefs[l.ID] <= 0 {
			delete(s.layerRefs, l.ID)
			s.sdUsed -= s.layerSize[l.ID]
			delete(s.layerSize, l.ID)
		}
	}
	s.sdUsed -= WritableLayerBytes
	delete(s.containers, name)
	return nil
}

// List returns container names, sorted.
func (s *Suite) List() []string {
	out := make([]string, 0, len(s.containers))
	for n := range s.containers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns a container by name.
func (s *Suite) Get(name string) (*Container, error) { return s.get(name) }

func (s *Suite) get(name string) (*Container, error) {
	c, ok := s.containers[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return c, nil
}

// Count returns the number of containers in any state.
func (s *Suite) Count() int { return len(s.containers) }

// RunningCount returns the number of RUNNING containers.
func (s *Suite) RunningCount() int {
	n := 0
	for _, c := range s.containers {
		if c.state == StateRunning {
			n++
		}
	}
	return n
}

// Exec runs CPU work inside a running container.
func (s *Suite) Exec(name string, spec oslinux.TaskSpec) (*oslinux.Task, error) {
	c, err := s.get(name)
	if err != nil {
		return nil, err
	}
	if c.state != StateRunning {
		return nil, fmt.Errorf("%w: exec in %s", ErrBadState, c.state)
	}
	return s.kernel.StartTask(c.cgroup, spec)
}

// AllocAppMem charges workload memory to a running (or frozen)
// container.
func (s *Suite) AllocAppMem(name string, bytes int64) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if c.state != StateRunning && c.state != StateFrozen {
		return fmt.Errorf("%w: alloc in %s", ErrBadState, c.state)
	}
	if err := s.kernel.Alloc(c.cgroup, bytes); err != nil {
		return err
	}
	c.appMem += bytes
	return nil
}

// FreeAppMem returns workload memory.
func (s *Suite) FreeAppMem(name string, bytes int64) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if bytes > c.appMem {
		return fmt.Errorf("lxc: freeing %d of %d app bytes", bytes, c.appMem)
	}
	if err := s.kernel.Free(c.cgroup, bytes); err != nil {
		return err
	}
	c.appMem -= bytes
	return nil
}

// SetLimits adjusts a container's soft resource limits at runtime — the
// management API's "specifying (soft) per-VM resource utilisation
// limits".
func (s *Suite) SetLimits(name string, memLimit int64, shares int, quota hw.MIPS) error {
	c, err := s.get(name)
	if err != nil {
		return err
	}
	if err := s.kernel.SetLimits(c.cgroup, oslinux.Limits{
		CPUShares:     shares,
		CPUQuotaMIPS:  quota,
		MemLimitBytes: memLimit,
	}); err != nil {
		return err
	}
	c.Spec.MemLimitBytes = memLimit
	c.Spec.CPUShares = shares
	c.Spec.CPUQuotaMIPS = quota
	return nil
}

// MemUsedBytes returns the container's total memory charge.
func (s *Suite) MemUsedBytes(name string) (int64, error) {
	c, err := s.get(name)
	if err != nil {
		return 0, err
	}
	cg := s.kernel.CGroup(c.cgroup)
	if cg == nil {
		return 0, nil
	}
	return cg.MemUsed(), nil
}

// Info is the lxc-info view of a container.
type Info struct {
	Name     string
	Image    string
	State    string
	Net      string
	MemBytes int64
	Shares   int
	Quota    hw.MIPS
}

// InfoOf reports a container's current state.
func (s *Suite) InfoOf(name string) (Info, error) {
	c, err := s.get(name)
	if err != nil {
		return Info{}, err
	}
	mem := int64(0)
	if cg := s.kernel.CGroup(c.cgroup); cg != nil {
		mem = cg.MemUsed()
	}
	return Info{
		Name:     c.Spec.Name,
		Image:    c.Spec.Image,
		State:    c.state.String(),
		Net:      c.Spec.Net.String(),
		MemBytes: mem,
		Shares:   c.Spec.CPUShares,
		Quota:    c.Spec.CPUQuotaMIPS,
	}, nil
}
