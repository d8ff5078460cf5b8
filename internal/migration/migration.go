// Package migration implements live container migration for the PiCloud —
// the paper's headline future-work item ("we will implement sophisticated
// live migration within the PiCloud") — using the classic pre-copy
// algorithm: iterative memory copy over the real (simulated) network
// while the container keeps dirtying pages, then a stop-and-copy
// switchover whose length is the downtime.
//
// Two switchover modes reproduce the Section III routing study:
//
//   - RoutingIP: forwarding is bound to addresses, so established flows
//     to the container break at switchover and must be re-established.
//   - RoutingLabel: forwarding follows the container's SDN label
//     ("IP-less routing"), so the controller re-points live flows and
//     they survive.
package migration

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/lxc"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sdn"
	"repro/internal/sim"
)

// RoutingMode selects how traffic follows the migrated container.
type RoutingMode int

// Routing modes.
const (
	RoutingIP RoutingMode = iota + 1
	RoutingLabel
)

// String names the mode.
func (m RoutingMode) String() string {
	switch m {
	case RoutingIP:
		return "ip-routed"
	case RoutingLabel:
		return "label-routed"
	default:
		return fmt.Sprintf("routing(%d)", int(m))
	}
}

// Errors.
var (
	ErrBusy       = errors.New("migration: container already migrating")
	ErrBadRequest = errors.New("migration: invalid request")
)

// switchoverOverhead models control-plane latency at the freeze point
// (rule updates, ARP-equivalent).
const switchoverOverhead = 50 * time.Millisecond

// Config tunes the pre-copy loop.
type Config struct {
	// StopCopyThresholdBytes: when the remaining dirty set falls to or
	// below this, freeze and do the final copy. Default 1 MiB.
	StopCopyThresholdBytes int64
	// MaxIterations bounds pre-copy rounds for non-converging workloads.
	// Default 30.
	MaxIterations int
}

func (c *Config) fillDefaults() {
	if c.StopCopyThresholdBytes <= 0 {
		c.StopCopyThresholdBytes = hw.MiB
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 30
	}
}

// Request describes one migration.
type Request struct {
	Container string
	SrcHost   netsim.NodeID
	DstHost   netsim.NodeID
	SrcSuite  *lxc.Suite
	DstSuite  *lxc.Suite
	// Routing selects IP or label switchover semantics.
	Routing RoutingMode
	// Label is the container's forwarding label (RoutingLabel only).
	Label openflow.Label
	// LiveFlows lists established flows terminating at the container.
	// Label routing re-points them; IP routing breaks them.
	LiveFlows []*netsim.Flow
	// OnDone receives the final report.
	OnDone func(Report)
}

// Report summarises a completed migration.
type Report struct {
	Container     string
	From, To      netsim.NodeID
	Mode          RoutingMode
	TotalBytes    int64         // bytes copied over all rounds
	Iterations    int           // pre-copy rounds (excluding stop-and-copy)
	Downtime      time.Duration // freeze → resume
	TotalDuration time.Duration // start → resume
	Converged     bool          // false if MaxIterations forced the stop
	FlowsRerouted int
	FlowsBroken   int
	// Err is non-nil when the migration aborted; the source container
	// was thawed and keeps running at the original host.
	Err error
}

// Manager executes migrations over the shared network and SDN control
// plane.
type Manager struct {
	engine *sim.Engine
	net    *netsim.Network
	ctrl   *sdn.Controller
	cfg    Config
	busy   map[string]bool
}

// NewManager returns a migration manager.
func NewManager(engine *sim.Engine, net *netsim.Network, ctrl *sdn.Controller, cfg Config) *Manager {
	cfg.fillDefaults()
	return &Manager{
		engine: engine,
		net:    net,
		ctrl:   ctrl,
		cfg:    cfg,
		busy:   make(map[string]bool),
	}
}

// Migrate starts a live migration; it returns immediately and reports
// through req.OnDone when the container is running on the destination.
func (m *Manager) Migrate(req Request) error {
	switch {
	case req.Container == "" || req.SrcSuite == nil || req.DstSuite == nil:
		return fmt.Errorf("%w: missing container or suites", ErrBadRequest)
	case req.SrcHost == req.DstHost:
		return fmt.Errorf("%w: src and dst host are both %s", ErrBadRequest, req.SrcHost)
	case req.Routing == RoutingLabel && req.Label == 0:
		return fmt.Errorf("%w: label routing without a label", ErrBadRequest)
	}
	if m.busy[req.Container] {
		return fmt.Errorf("%w: %s", ErrBusy, req.Container)
	}
	src, err := req.SrcSuite.Get(req.Container)
	if err != nil {
		return fmt.Errorf("migration: %w", err)
	}
	if src.State() != lxc.StateRunning {
		return fmt.Errorf("%w: container is %s", ErrBadRequest, src.State())
	}
	// Provision the warm standby on the destination before any copying,
	// so switchover needs no boot.
	dstName := req.Container
	if _, err := req.DstSuite.Create(src.Spec); err != nil {
		return fmt.Errorf("migration: provisioning destination: %w", err)
	}
	if err := req.DstSuite.Start(dstName, nil); err != nil {
		_ = req.DstSuite.Destroy(dstName)
		return fmt.Errorf("migration: starting destination: %w", err)
	}
	m.busy[req.Container] = true

	st := &state{
		mgr:     m,
		req:     req,
		started: m.engine.Now(),
	}
	// The working set to copy is everything the container holds.
	mem, err := req.SrcSuite.MemUsedBytes(req.Container)
	if err != nil {
		mem = lxc.IdleRSSBytes
	}
	st.memBytes = mem
	st.remaining = mem
	cg := req.SrcSuite.Kernel().CGroup(src.CgroupName())
	if cg != nil {
		st.dirtyRate = cg.DirtyRateBytesPerS()
	}
	st.round()
	return nil
}

// state tracks one in-flight migration.
type state struct {
	mgr        *Manager
	req        Request
	started    sim.Time
	memBytes   int64
	remaining  int64
	dirtyRate  float64
	iterations int
	totalBytes int64
	converged  bool
	frozeAt    sim.Time
}

// copyPath computes the current path for migration traffic, as the node
// indices StartFlow takes.
func (s *state) copyPath() ([]int32, error) {
	return s.mgr.ctrl.PathFor(s.req.SrcHost, s.req.DstHost, sdn.PolicyECMP, uint64(len(s.req.Container))+uint64(s.iterations))
}

// round runs one pre-copy iteration.
func (s *state) round() {
	cfg := s.mgr.cfg
	if s.remaining <= cfg.StopCopyThresholdBytes || s.iterations >= cfg.MaxIterations {
		s.converged = s.remaining <= cfg.StopCopyThresholdBytes
		s.stopAndCopy()
		return
	}
	path, err := s.copyPath()
	if err != nil {
		s.fail(err)
		return
	}
	copied := s.remaining
	startAt := s.mgr.engine.Now()
	_, err = s.mgr.net.StartFlow(netsim.FlowSpec{
		Src: s.req.SrcHost, Dst: s.req.DstHost, Path: path,
		SizeBits: float64(copied) * 8,
		OnEnd: func(f *netsim.Flow, reason netsim.EndReason) {
			if reason != netsim.EndCompleted {
				s.fail(fmt.Errorf("migration: copy flow ended: %s", reason))
				return
			}
			s.iterations++
			s.totalBytes += copied
			// Pages dirtied while this round was copying form the next
			// round's working set.
			elapsed := s.mgr.engine.Now().Sub(startAt).Seconds()
			dirtied := int64(s.dirtyRate * elapsed)
			if dirtied > s.memBytes {
				dirtied = s.memBytes
			}
			s.remaining = dirtied
			s.round()
		},
	})
	if err != nil {
		s.fail(err)
	}
}

// stopAndCopy freezes the source, ships the final dirty set, switches
// routing over, and resumes on the destination.
func (s *state) stopAndCopy() {
	req := s.req
	if err := req.SrcSuite.Freeze(req.Container); err != nil {
		s.fail(err)
		return
	}
	s.frozeAt = s.mgr.engine.Now()
	finish := func() {
		s.totalBytes += s.remaining
		s.mgr.engine.Schedule(switchoverOverhead, s.switchover)
	}
	if s.remaining <= 0 {
		finish()
		return
	}
	path, err := s.copyPath()
	if err != nil {
		s.fail(err)
		return
	}
	_, err = s.mgr.net.StartFlow(netsim.FlowSpec{
		Src: req.SrcHost, Dst: req.DstHost, Path: path,
		SizeBits: float64(s.remaining) * 8,
		OnEnd: func(_ *netsim.Flow, reason netsim.EndReason) {
			if reason != netsim.EndCompleted {
				s.fail(fmt.Errorf("migration: final copy ended: %s", reason))
				return
			}
			finish()
		},
	})
	if err != nil {
		s.fail(err)
	}
}

// switchover moves identity and traffic to the destination and tears the
// source down.
func (s *state) switchover() {
	req := s.req
	report := Report{
		Container:  req.Container,
		From:       req.SrcHost,
		To:         req.DstHost,
		Mode:       req.Routing,
		TotalBytes: s.totalBytes,
		Iterations: s.iterations,
		Converged:  s.converged,
	}
	// Mirror the app memory footprint onto the destination.
	if src, err := req.SrcSuite.Get(req.Container); err == nil && src.AppMemBytes() > 0 {
		if err := req.DstSuite.AllocAppMem(req.Container, src.AppMemBytes()); err != nil {
			s.fail(fmt.Errorf("migration: destination memory: %w", err))
			return
		}
	}
	if s.dirtyRate > 0 {
		if dst, err := req.DstSuite.Get(req.Container); err == nil {
			_ = req.DstSuite.Kernel().SetDirtyRate(dst.CgroupName(), s.dirtyRate)
		}
	}
	switch req.Routing {
	case RoutingLabel:
		// IP-less routing: rebind the label; established flows follow it.
		if err := s.mgr.ctrl.MoveLabel(req.Label, req.DstHost); err != nil {
			s.fail(err)
			return
		}
		for _, f := range req.LiveFlows {
			if ended, _ := f.Ended(); ended {
				continue
			}
			// The client now shares the destination host: the connection
			// survives as loopback traffic and leaves the fabric.
			if f.Spec.Src == req.DstHost {
				_ = s.mgr.net.CancelFlow(f)
				report.FlowsRerouted++
				continue
			}
			newPath, err := s.mgr.ctrl.PathFor(f.Spec.Src, req.DstHost, sdn.PolicyShortestPath, 0)
			if err != nil {
				report.FlowsBroken++
				_ = s.mgr.net.CancelFlow(f)
				continue
			}
			if err := s.mgr.net.SetPath(f, newPath); err != nil {
				report.FlowsBroken++
				_ = s.mgr.net.CancelFlow(f)
				continue
			}
			report.FlowsRerouted++
		}
	default:
		// Address-bound forwarding: connections to the old host die.
		for _, f := range req.LiveFlows {
			if ended, _ := f.Ended(); ended {
				continue
			}
			_ = s.mgr.net.CancelFlow(f)
			report.FlowsBroken++
			s.mgr.ctrl.FlushPair(f.Spec.Src, req.SrcHost)
		}
	}
	// Tear down the source.
	if err := req.SrcSuite.Stop(req.Container); err != nil {
		s.fail(err)
		return
	}
	if err := req.SrcSuite.Destroy(req.Container); err != nil {
		s.fail(err)
		return
	}
	now := s.mgr.engine.Now()
	report.Downtime = now.Sub(s.frozeAt)
	report.TotalDuration = now.Sub(s.started)
	delete(s.mgr.busy, req.Container)
	if req.OnDone != nil {
		req.OnDone(report)
	}
}

// fail aborts a migration, thawing the source and removing the standby.
func (s *state) fail(err error) {
	req := s.req
	if c, gerr := req.SrcSuite.Get(req.Container); gerr == nil && c.State() == lxc.StateFrozen {
		_ = req.SrcSuite.Unfreeze(req.Container)
	}
	if _, gerr := req.DstSuite.Get(req.Container); gerr == nil {
		_ = req.DstSuite.Stop(req.Container)
		_ = req.DstSuite.Destroy(req.Container)
	}
	delete(s.mgr.busy, req.Container)
	if req.OnDone != nil {
		req.OnDone(Report{
			Container: req.Container,
			From:      req.SrcHost,
			To:        req.DstHost,
			Mode:      req.Routing,
			Converged: false,
			Err:       err,
		})
	}
}
