// Package openflow models the programmable switches at the PiCloud
// aggregation layer (and, in this reproduction, at every tier): priority-
// ordered flow tables with match/action rules, idle and hard timeouts,
// per-rule counters, and a packet-in path to the controller on table
// miss. This is the contract the paper highlights — "the topology fully
// programmable and compatible with the leading-edge SDN research" — at
// flow granularity rather than per-packet.
//
// Tables are keyed by node reference (Ref), not by name: a match and a
// next hop name a node by its dense netsim index, so a lookup compares
// integers and the controller walks a path without resolving names.
package openflow

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Label is an IP-less forwarding tag (Section III's "IP-less routing").
// Zero means unlabelled.
type Label uint32

// Ref refers to a network node by its dense netsim index plus one (see
// netsim.Node.Index), so the zero Ref refers to no node: a wildcard in
// a Match and no next hop in an Action.
type Ref int32

// RefOf returns the reference to the node with dense index i.
func RefOf(i int32) Ref { return Ref(i + 1) }

// Index returns the referenced node's dense index, or -1 for the zero
// Ref.
func (r Ref) Index() int32 { return int32(r) - 1 }

// PacketInfo summarises the first packet of a flow as the controller is
// asked to admit it, endpoints by name. The controller resolves it to a
// Packet before consulting any table.
type PacketInfo struct {
	Src     netsim.NodeID // source host
	Dst     netsim.NodeID // destination host
	Label   Label
	Proto   string // "tcp", "udp"; empty matches any
	DstPort uint16 // 0 matches any
}

// Packet is what a table lookup matches: the first packet of a flow
// with its endpoints as node references. A zero Src or Dst is an
// endpoint the network does not know, which only a wildcard matches.
type Packet struct {
	Src     Ref
	Dst     Ref
	Label   Label
	DstPort uint16
	Proto   string
}

// Match is a wildcard-capable rule predicate. Zero-valued fields match
// anything.
type Match struct {
	Src     Ref
	Dst     Ref
	Label   Label
	DstPort uint16
	Proto   string
}

// Matches reports whether the packet satisfies the predicate.
func (m *Match) Matches(p *Packet) bool {
	return (m.Src == 0 || m.Src == p.Src) &&
		(m.Dst == 0 || m.Dst == p.Dst) &&
		(m.Label == 0 || m.Label == p.Label) &&
		(m.DstPort == 0 || m.DstPort == p.DstPort) &&
		(m.Proto == "" || m.Proto == p.Proto)
}

// ActionType says what a matching rule does with the flow.
type ActionType int

// Rule actions.
const (
	ActionOutput       ActionType = iota + 1 // forward towards NextHop
	ActionDrop                               // discard
	ActionToController                       // punt to the controller
)

// String names the action.
func (a ActionType) String() string {
	switch a {
	case ActionOutput:
		return "output"
	case ActionDrop:
		return "drop"
	case ActionToController:
		return "controller"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Action is the consequence of a rule hit.
type Action struct {
	Type ActionType
	// NextHop is the neighbour to forward to (ActionOutput only).
	NextHop Ref
}

// Rule is one flow-table entry. Install reads its Priority and Match
// once; changing them on an installed rule does not move or re-key it.
type Rule struct {
	Priority    int
	Match       Match
	Action      Action
	IdleTimeout time.Duration // evicted after this long without a hit; 0 = never
	HardTimeout time.Duration // evicted this long after install; 0 = never

	// Cookie tags the rule for bulk removal (e.g. all rules of one
	// label, torn down on migration).
	Cookie uint64

	installedAt sim.Time
	lastHit     sim.Time
	hits        uint64
	hardEv      sim.Event
	idleEv      sim.Event
	// sw is the switch the rule was last installed on, and installed
	// says whether it is still in that switch's table.
	sw        *Switch
	installed bool
	// idleFn is the idle-expiry event, made on the first arm and
	// reused for every re-arm.
	idleFn func()
}

// Hits returns how many flow admissions matched this rule.
func (r *Rule) Hits() uint64 { return r.hits }

// InstalledAt returns the rule's install time.
func (r *Rule) InstalledAt() sim.Time { return r.installedAt }

// Verdict is the outcome of a switch lookup.
type Verdict int

// Lookup outcomes.
const (
	VerdictForward Verdict = iota + 1
	VerdictDrop
	VerdictMiss // no rule matched: packet-in to the controller
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictForward:
		return "forward"
	case VerdictDrop:
		return "drop"
	case VerdictMiss:
		return "miss"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Errors.
var (
	ErrNoSuchRule = errors.New("openflow: no such rule")
	ErrBadRule    = errors.New("openflow: invalid rule")
)

// Switch is one OpenFlow-capable device. It is driven entirely on the
// simulation engine thread.
type Switch struct {
	ID     netsim.NodeID
	engine *sim.Engine
	// table is the flow table in table order: priority descending, then
	// install time ascending. Each entry carries its rule's match and
	// priority, so a lookup scans contiguous keys and dereferences only
	// the rule that wins. A removed rule leaves a tombstone in its place
	// (see remove), so an expiry moves no entry; dead counts them.
	table []entry
	dead  int
	// counters
	lookups   uint64
	misses    uint64
	evictions uint64
}

// entry is one flow-table slot. A tombstone has no rule, its removed
// rule's priority (so the table stays in priority order) and a match
// whose source is deadRef, which no packet carries.
type entry struct {
	match    Match
	priority int
	rule     *Rule
}

// deadRef is a tombstone's match source: a packet's Src is a node's
// reference or zero, never negative, so a tombstone never matches.
const deadRef Ref = -1

// NewSwitch returns an empty-table switch.
func NewSwitch(id netsim.NodeID, engine *sim.Engine) *Switch {
	return &Switch{ID: id, engine: engine}
}

// Install adds a rule to the table. Rules are kept priority-sorted
// (highest first); among equal priorities, earlier installs win.
//
// The rule goes in before the first entry of lower priority. That is
// where a stable sort on (priority descending, install time ascending)
// would put it: the engine clock never goes back, so no installed rule
// was installed later than the new one, and the new rule lands after
// every rule of equal priority. A tombstone just before that place
// takes the rule instead, moving nothing: every live entry before it
// still precedes the rule, and every entry after it has lower
// priority.
//
// A rule that is installed, on this switch or another, is refused; a
// removed or evicted rule may be installed again on any switch.
func (s *Switch) Install(r *Rule) error {
	if r == nil {
		return fmt.Errorf("%w: nil", ErrBadRule)
	}
	if r.Action.Type == ActionOutput && r.Action.NextHop == 0 {
		return fmt.Errorf("%w: output action without next hop", ErrBadRule)
	}
	if r.installed {
		return fmt.Errorf("%w: already installed on %s", ErrBadRule, r.sw.ID)
	}
	r.sw = s
	r.installed = true
	r.installedAt = s.engine.Now()
	r.lastHit = r.installedAt
	lo, hi := 0, len(s.table)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.table[mid].priority >= r.Priority {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && s.table[lo-1].rule == nil {
		lo--
		s.dead--
	} else {
		s.table = append(s.table, entry{})
		copy(s.table[lo+1:], s.table[lo:])
	}
	s.table[lo] = entry{match: r.Match, priority: r.Priority, rule: r}
	if r.HardTimeout > 0 {
		r.hardEv = s.engine.Schedule(r.HardTimeout, func() { s.evict(r) })
	}
	if r.IdleTimeout > 0 {
		r.armIdle()
	}
	return nil
}

// armIdle schedules the idle-expiry check at lastHit+IdleTimeout.
func (r *Rule) armIdle() {
	if r.idleFn == nil {
		r.idleFn = r.idleExpiry
	}
	r.idleEv = r.sw.engine.ScheduleAt(r.lastHit.Add(r.IdleTimeout), r.idleFn)
}

// idleExpiry evicts the rule if it went IdleTimeout without a hit, and
// re-arms the check otherwise. It reads the rule's current switch, so a
// rule removed and installed elsewhere idles out where it now lives.
func (r *Rule) idleExpiry() {
	if !r.installed {
		return
	}
	if r.sw.engine.Now().Sub(r.lastHit) >= r.IdleTimeout {
		r.sw.evict(r)
		return
	}
	r.armIdle()
}

// evict removes a rule due to timeout.
func (s *Switch) evict(r *Rule) {
	if s.remove(r) {
		s.evictions++
	}
}

// Remove deletes a rule explicitly (flow-mod delete).
func (s *Switch) Remove(r *Rule) error {
	if !s.remove(r) {
		return ErrNoSuchRule
	}
	return nil
}

// RemoveByCookie deletes every rule carrying the cookie and returns how
// many were removed. It compacts the table, tombstones included.
func (s *Switch) RemoveByCookie(cookie uint64) int {
	size := s.TableSize()
	s.compact(func(r *Rule) bool {
		if r.Cookie != cookie {
			return true
		}
		r.uninstall()
		return false
	})
	return size - len(s.table)
}

// remove takes an installed rule out of the table, leaving a tombstone
// in its entry, and compacts the table once tombstones pass half of
// it: each entry moves once per compaction, not once per removal
// before it.
func (s *Switch) remove(r *Rule) bool {
	if r == nil || !r.installed || r.sw != s {
		return false
	}
	for i := range s.table {
		if e := &s.table[i]; e.rule == r {
			*e = entry{match: Match{Src: deadRef}, priority: e.priority}
			s.dead++
			break
		}
	}
	r.uninstall()
	if 2*s.dead > len(s.table) {
		s.compact(func(*Rule) bool { return true })
	}
	return true
}

// compact drops the tombstones and every rule keep refuses, in place and
// in table order.
func (s *Switch) compact(keep func(*Rule) bool) {
	kept := s.table[:0]
	for _, e := range s.table {
		if e.rule != nil && keep(e.rule) {
			kept = append(kept, e)
		}
	}
	clear(s.table[len(kept):])
	s.table, s.dead = kept, 0
}

// uninstall marks a rule taken out of its table and cancels its timers.
func (r *Rule) uninstall() {
	r.installed = false
	r.hardEv.Cancel()
	r.idleEv.Cancel()
}

// Lookup consults the table for the packet, updating counters. On a hit
// it returns the rule's action. Tombstones never match.
func (s *Switch) Lookup(p *Packet) (Action, Verdict) {
	s.lookups++
	for i := range s.table {
		if !s.table[i].match.Matches(p) {
			continue
		}
		r := s.table[i].rule
		r.hits++
		r.lastHit = s.engine.Now()
		switch r.Action.Type {
		case ActionDrop:
			return r.Action, VerdictDrop
		case ActionToController:
			s.misses++
			return r.Action, VerdictMiss
		default:
			return r.Action, VerdictForward
		}
	}
	s.misses++
	return Action{Type: ActionToController}, VerdictMiss
}

// Rules returns a copy of the table in priority order.
func (s *Switch) Rules() []*Rule {
	out := make([]*Rule, 0, s.TableSize())
	for _, e := range s.table {
		if e.rule != nil {
			out = append(out, e.rule)
		}
	}
	return out
}

// Stats reports the switch counters: total lookups, misses (packet-ins)
// and timeout evictions.
func (s *Switch) Stats() (lookups, misses, evictions uint64) {
	return s.lookups, s.misses, s.evictions
}

// TableSize returns the number of installed rules.
func (s *Switch) TableSize() int { return len(s.table) - s.dead }
