// Package energy implements the power-accounting layer of the PiCloud:
// per-device meters that integrate a piecewise-constant power signal over
// virtual time, a whole-cloud meter (the "single trailing power socket"
// of Section III), and the data-centre cooling model behind Table I's
// cooling column and the paper's "33% of total power" claim.
//
// The whole-cloud meter knows its meters by position, not by name: a
// slice of sub-meter groups indexed by rack, each a slice of meter slots
// summed in the order they were attached. A fleet attaches them in its
// construction plan's order (each rack's hosts by name), so every float
// sum is fixed before the first reading.
//
// A slot need not hold a meter yet. A fleet attaches each host as an
// idle slot (AttachIdle): a board powered on at the fleet's boot instant
// and idle since, which reads as the template's idle draw and
// idle × (at − boot) joules, the expression an eager meter of that
// board evaluates. Only a host something touches gets its own meter,
// filled into its slot (Fill) in the state it would have had, so sums
// and state renderings read the same bits either way.
package energy

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/sim"
)

// DefaultCoolingShare is the fraction of total DC power consumed by power
// and cooling infrastructure, "reportedly 33%" (Section IV).
const DefaultCoolingShare = 0.33

// Meter integrates the energy drawn by one device. Power is treated as
// piecewise-constant between SetUtilisation calls on the virtual clock.
// Meter is safe for concurrent use so HTTP handlers can read it.
//
// The integral is span-anchored, like the network layer's flow
// accounting: the committed total moves only at the device's own power
// state changes (on/off, utilisation), and reads materialise the
// pending constant-power span on demand without committing it. The
// committed floats are therefore a pure function of the power-state
// history — queries never shift the chunking — which is what lets the
// kernel checkpoint fingerprint include energy state exactly.
type Meter struct {
	mu      sync.Mutex
	profile hw.PowerProfile
	lastAt  sim.Time
	util    float64
	joules  float64
	on      bool
	// group is the CloudMeter sub-meter this device reports under (nil
	// until attached). State changes invalidate the group's watts cache.
	group *meterGroup
}

// invalidate flags the parent sub-meter after a power-state change.
// Called with m.mu held; the flag is atomic, so readers on other
// goroutines (HTTP handlers polling totals) need no meter locks.
func (m *Meter) invalidate() {
	if m.group != nil {
		m.group.wattsDirty.Store(true)
	}
}

// NewMeter returns a meter for a device with the given power profile.
// The device starts powered off at the given time.
func NewMeter(profile hw.PowerProfile, at sim.Time) *Meter {
	m := new(Meter)
	m.Init(profile, at)
	return m
}

// Init sets up m, a zero Meter, as NewMeter would, in place, so a fleet
// can stamp a host's parts into one allocation.
func (m *Meter) Init(profile hw.PowerProfile, at sim.Time) {
	m.profile, m.lastAt = profile, at
}

// PowerOn marks the device powered with zero utilisation.
func (m *Meter) PowerOn(at sim.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate(at)
	m.on = true
	m.util = 0
	m.invalidate()
}

// PowerOff marks the device unpowered; it draws nothing until PowerOn.
func (m *Meter) PowerOff(at sim.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate(at)
	m.on = false
	m.util = 0
	m.invalidate()
}

// SetUtilisation records a change in CPU utilisation at virtual time at.
// Calls must carry non-decreasing times.
func (m *Meter) SetUtilisation(at sim.Time, util float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.accumulate(at)
	m.util = util
	m.invalidate()
}

// accumulate commits the span travelled at the current constant power
// and re-anchors it at at — called only from power-state changes, never
// from reads, so the committed total is independent of who observed the
// meter when. Caller holds m.mu.
func (m *Meter) accumulate(at sim.Time) {
	m.joules += m.pendingJoules(at)
	if at > m.lastAt {
		m.lastAt = at
	}
}

// pendingJoules materialises the energy of the span since the last
// commit — a pure read. Caller holds m.mu.
func (m *Meter) pendingJoules(at sim.Time) float64 {
	dt := at.Sub(m.lastAt).Seconds()
	if dt <= 0 || !m.on {
		return 0
	}
	return m.profile.At(m.util) * dt
}

// CurrentWatts returns the instantaneous draw.
func (m *Meter) CurrentWatts() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.on {
		return 0
	}
	return m.profile.At(m.util)
}

// On reports whether the device is powered.
func (m *Meter) On() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.on
}

// EnergyJoules returns the total energy consumed up to virtual time at:
// the committed total plus the materialised pending span. Reading is
// pure — it never re-anchors the integral.
func (m *Meter) EnergyJoules(at sim.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.joules + m.pendingJoules(at)
}

// EnergyWh returns the total energy in watt-hours up to at.
func (m *Meter) EnergyWh(at sim.Time) float64 { return m.EnergyJoules(at) / 3600 }

// CloudMeter aggregates many device meters: the PiCloud "run from a
// single trailing power socket board".
//
// Meters attach under an integer group — the rack, for a fleet — and
// every aggregate sums group by group in ascending group order, each
// group's members in the order they were attached. Summation must be
// order-stable or float rounding makes identical runs differ in the
// last bit, so the caller fixes it: a fleet attaches each rack's meters
// in host-name order, decided once per shape by its construction plan.
// The meter keeps no names, and an idle slot (AttachIdle) sums as the
// meter it stands for would. Power is read every sample, so each group
// caches its power sum until a member's state change invalidates it: a
// TotalWatts is O(groups + members of dirty groups), which on a
// 10⁶-node fleet is 256 cached sub-meters and the one rack that
// changed instead of a million meter locks. Energy keeps no cache: a
// TotalEnergyJoules reads every meter, exactly as AppendState does.
type CloudMeter struct {
	mu sync.Mutex
	// groups is indexed by group id, nil where no meter joined.
	groups []*meterGroup
	// meters counts the attached meters and idle slots.
	meters int
}

// meterGroup is one sub-meter: the per-rack aggregation unit.
type meterGroup struct {
	// members are summed in attach order; a nil member is an idle slot.
	members []*Meter
	// idle is the profile of the group's idle slots, each powered on at
	// boot and idle since (hasIdle: the group has idle slots).
	idle    hw.PowerProfile
	boot    sim.Time
	hasIdle bool
	// wattsDirty is set by member meters on any power state change;
	// watts is valid only while it is clear.
	wattsDirty atomic.Bool
	// watts is Σ member CurrentWatts as of the last clean reading.
	watts float64
}

// idleReading is what an idle slot's meter reads at at: powered on at
// boot with nothing committed since, it holds the pending span at the
// idle draw, Meter.pendingJoules' expression.
func (g *meterGroup) idleReading(at sim.Time) (joules, watts float64) {
	watts = g.idle.At(0)
	if dt := at.Sub(g.boot).Seconds(); dt > 0 {
		joules = watts * dt
	}
	return joules, watts
}

// recomputeWatts refreshes the cached power sum from the members.
func (g *meterGroup) recomputeWatts() {
	_, idleW := g.idleReading(g.boot)
	total := 0.0
	for _, m := range g.members {
		if m == nil {
			total += idleW
			continue
		}
		total += m.CurrentWatts()
	}
	g.watts = total
}

// read sums the members' energy up to at and their current draw,
// straight from the meters (each materialises its pending span without
// committing it), bypassing the watts cache. Idle slots read the idle
// reading.
func (g *meterGroup) read(at sim.Time) (joules, watts float64) {
	idleJ, idleW := g.idleReading(at)
	for _, m := range g.members {
		if m == nil {
			joules += idleJ
			watts += idleW
			continue
		}
		j, w := m.reading(at)
		joules += j
		watts += w
	}
	return joules, watts
}

// reading returns EnergyJoules(at) and CurrentWatts() under one lock.
func (m *Meter) reading(at sim.Time) (joules, watts float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.on {
		watts = m.profile.At(m.util)
	}
	return m.joules + m.pendingJoules(at), watts
}

// cachedWatts returns the group's power sum, recomputing it only if a
// member changed state since the last reading.
func (g *meterGroup) cachedWatts() float64 {
	if g.wattsDirty.Swap(false) {
		g.recomputeWatts()
	}
	return g.watts
}

// NewCloudMeter returns an empty aggregate meter.
func NewCloudMeter() *CloudMeter { return &CloudMeter{} }

// Attach registers a device meter in the given sub-meter group, after
// the group's earlier members. Group ids index a slice, so they are
// small non-negative numbers: the rack index, for a fleet. A meter
// reports to at most one CloudMeter, once.
func (c *CloudMeter) Attach(group int, m *Meter) error {
	if group < 0 {
		return fmt.Errorf("energy: meter group %d is negative", group)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.group != nil {
		return fmt.Errorf("energy: meter already attached")
	}
	g := c.group(group)
	g.members = append(g.members, m)
	g.wattsDirty.Store(true)
	m.group = g
	c.meters++
	return nil
}

// AttachIdle adds n idle slots to the given sub-meter group, after its
// earlier members: each stands for a meter of profile powered on at boot
// and idle since, and reads as that meter would until Fill puts the
// meter in it. A group's idle slots share one profile and boot instant.
// Like Attach, it makes a group only for a member: n = 0 adds nothing.
func (c *CloudMeter) AttachIdle(group, n int, profile hw.PowerProfile, boot sim.Time) error {
	if group < 0 || n < 0 {
		return fmt.Errorf("energy: %d idle slots in meter group %d", n, group)
	}
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.group(group)
	if g.hasIdle && (g.idle != profile || g.boot != boot) {
		return fmt.Errorf("energy: meter group %d already holds idle slots of another board or boot", group)
	}
	g.idle, g.boot, g.hasIdle = profile, boot, true
	g.members = append(g.members, make([]*Meter, n)...)
	g.wattsDirty.Store(true)
	c.meters += n
	return nil
}

// Fill puts m in idle slot slot of the group, counting slots from the
// group's first member. m must read as the slot does: a meter of the
// slot's profile, powered on at its boot instant and idle since, so
// filling it moves no sum. From then on m's changes are the slot's.
func (c *CloudMeter) Fill(group, slot int, m *Meter) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if group < 0 || group >= len(c.groups) || c.groups[group] == nil {
		return fmt.Errorf("energy: no meter group %d", group)
	}
	g := c.groups[group]
	if slot < 0 || slot >= len(g.members) || g.members[slot] != nil {
		return fmt.Errorf("energy: slot %d of meter group %d is not idle", slot, group)
	}
	if m.group != nil {
		return fmt.Errorf("energy: meter already attached")
	}
	if m.profile != g.idle || !m.on || m.util != 0 || m.joules != 0 || m.lastAt != g.boot {
		return fmt.Errorf("energy: a meter filling slot %d of group %d does not read as the idle slot", slot, group)
	}
	g.members[slot] = m
	m.group = g
	return nil
}

// group returns the group with the given id, making it if needed.
// Caller holds c.mu.
func (c *CloudMeter) group(id int) *meterGroup {
	if id >= len(c.groups) {
		c.groups = append(c.groups, make([]*meterGroup, id+1-len(c.groups))...)
	}
	g := c.groups[id]
	if g == nil {
		g = &meterGroup{}
		c.groups[id] = g
	}
	return g
}

// Groups returns the sub-meter group ids in ascending order.
func (c *CloudMeter) Groups() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.groups))
	for id, g := range c.groups {
		if g != nil {
			out = append(out, id)
		}
	}
	return out
}

// GroupWatts returns the instantaneous draw of one sub-meter group
// (a rack, for a fleet), or 0 for an unknown group.
func (c *CloudMeter) GroupWatts(group int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if group < 0 || group >= len(c.groups) || c.groups[group] == nil {
		return 0
	}
	return c.groups[group].cachedWatts()
}

// TotalWatts returns the instantaneous aggregate draw: cached sub-meter
// sums, recomputed only for groups whose members changed state.
func (c *CloudMeter) TotalWatts() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, g := range c.groups {
		if g != nil {
			total += g.cachedWatts()
		}
	}
	return total
}

// TotalEnergyJoules returns the aggregate energy consumed up to at, read
// from every meter: the sum of the per-group energies AppendState
// records. It is a pure read, so the answer does not depend on which
// totals were read before.
func (c *CloudMeter) TotalEnergyJoules(at sim.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0.0
	for _, g := range c.groups {
		if g != nil {
			joules, _ := g.read(at)
			total += joules
		}
	}
	return total
}

// AppendState appends the power-accounting state up to virtual time at
// to buf in a deterministic text form — one layer of the cross-layer
// kernel fingerprint core.KernelState hashes. The capture is
// pure and exact: it reads each group's members directly, bypassing the
// watts cache. Two clouds that executed the same power-state history
// append the same bytes — per-group energy and draw as the hex of
// their IEEE-754 bits, in stable ascending group order — regardless of
// who read what in between. The buffer is handed to spill after each
// line (nil keeps it all).
func (c *CloudMeter) AppendState(buf []byte, at sim.Time, spill *sim.StateHash) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	groups := 0
	for _, g := range c.groups {
		if g != nil {
			groups++
		}
	}
	buf = append(buf, "energy meters="...)
	buf = strconv.AppendInt(buf, int64(c.meters), 10)
	buf = append(buf, " groups="...)
	buf = strconv.AppendInt(buf, int64(groups), 10)
	buf = append(buf, " at="...)
	buf = strconv.AppendInt(buf, int64(at), 10)
	buf = append(buf, '\n')
	for id, g := range c.groups {
		if g == nil {
			continue
		}
		joules, watts := g.read(at)
		buf = append(buf, "group "...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, " joules="...)
		buf = sim.AppendHex64(buf, math.Float64bits(joules))
		buf = append(buf, " watts="...)
		buf = sim.AppendHex64(buf, math.Float64bits(watts))
		buf = append(buf, " members="...)
		buf = strconv.AppendInt(buf, int64(len(g.members)), 10)
		buf = append(buf, '\n')
		buf = spill.Spill(buf)
	}
	return buf
}

// Cooling models data-centre power/cooling overhead as a share of total
// facility power: cooling = Share × total, IT = (1-Share) × total.
type Cooling struct {
	// Share is the fraction of total facility power consumed by power and
	// cooling infrastructure. The paper reports 33% for Cloud DCs.
	Share float64
}

// DefaultCooling returns the paper's 33% model.
func DefaultCooling() Cooling { return Cooling{Share: DefaultCoolingShare} }

// OverheadWatts returns the cooling power needed for a given IT load.
// With share s, total = it/(1-s), so overhead = it·s/(1-s).
func (c Cooling) OverheadWatts(itWatts float64) float64 {
	if c.Share <= 0 {
		return 0
	}
	if c.Share >= 1 {
		panic("energy: cooling share must be below 1")
	}
	return itWatts * c.Share / (1 - c.Share)
}

// FacilityWatts returns total facility power for a given IT load.
func (c Cooling) FacilityWatts(itWatts float64) float64 {
	return itWatts + c.OverheadWatts(itWatts)
}

// PUE returns the power-usage-effectiveness implied by the share:
// facility/IT.
func (c Cooling) PUE() float64 {
	if c.Share >= 1 {
		panic("energy: cooling share must be below 1")
	}
	return 1 / (1 - c.Share)
}

// SocketBoard models the paper's single trailing power socket: a UK
// 13 A / 230 V strip delivering about 3 kW.
type SocketBoard struct {
	VoltsRMS float64
	MaxAmps  float64
}

// UKTrailingSocket returns the standard UK strip.
func UKTrailingSocket() SocketBoard { return SocketBoard{VoltsRMS: 230, MaxAmps: 13} }

// MaxWatts returns the socket's capacity.
func (s SocketBoard) MaxWatts() float64 { return s.VoltsRMS * s.MaxAmps }

// CanSupply reports whether the socket can feed the given load.
func (s SocketBoard) CanSupply(watts float64) bool { return watts <= s.MaxWatts() }
