package openflow

// The name-keyed reference oracle. oracleSwitch is the flow table as it
// was written over node names: every rule appended and the whole table
// stable-sorted on each install, a table scan to find a rule, a copy of
// the table before a cookie flush, and a fresh closure per idle re-arm.
// Its one change since is the refusal of a rule that is already
// installed. The index-keyed Switch must agree with it on every
// verdict, next hop, hit count, table order, counter and scheduled
// event; TestSwitchMatchesNameOracle and FuzzSwitchTable drive both
// through the same operations.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

type oracleMatch struct {
	Src     netsim.NodeID
	Dst     netsim.NodeID
	Label   Label
	Proto   string
	DstPort uint16
}

func (m oracleMatch) Matches(p PacketInfo) bool {
	if m.Src != "" && m.Src != p.Src {
		return false
	}
	if m.Dst != "" && m.Dst != p.Dst {
		return false
	}
	if m.Label != 0 && m.Label != p.Label {
		return false
	}
	if m.Proto != "" && m.Proto != p.Proto {
		return false
	}
	if m.DstPort != 0 && m.DstPort != p.DstPort {
		return false
	}
	return true
}

type oracleAction struct {
	Type    ActionType
	NextHop netsim.NodeID
}

type oracleRule struct {
	Priority    int
	Match       oracleMatch
	Action      oracleAction
	IdleTimeout time.Duration
	HardTimeout time.Duration
	Cookie      uint64

	installedAt sim.Time
	lastHit     sim.Time
	hits        uint64
	hardEv      sim.Event
	idleEv      sim.Event
	sw          *oracleSwitch
}

type oracleSwitch struct {
	ID        netsim.NodeID
	engine    *sim.Engine
	rules     []*oracleRule
	lookups   uint64
	misses    uint64
	evictions uint64
}

func newOracleSwitch(id netsim.NodeID, engine *sim.Engine) *oracleSwitch {
	return &oracleSwitch{ID: id, engine: engine}
}

func (s *oracleSwitch) Install(r *oracleRule) error {
	if r == nil {
		return fmt.Errorf("%w: nil", ErrBadRule)
	}
	if r.Action.Type == ActionOutput && r.Action.NextHop == "" {
		return fmt.Errorf("%w: output action without next hop", ErrBadRule)
	}
	if r.sw != nil && r.sw.indexOf(r) >= 0 {
		return fmt.Errorf("%w: already installed on %s", ErrBadRule, r.sw.ID)
	}
	r.sw = s
	r.installedAt = s.engine.Now()
	r.lastHit = r.installedAt
	s.rules = append(s.rules, r)
	sort.SliceStable(s.rules, func(i, j int) bool {
		if s.rules[i].Priority != s.rules[j].Priority {
			return s.rules[i].Priority > s.rules[j].Priority
		}
		return s.rules[i].installedAt < s.rules[j].installedAt
	})
	if r.HardTimeout > 0 {
		rr := r
		r.hardEv = s.engine.Schedule(r.HardTimeout, func() { s.evict(rr) })
	}
	if r.IdleTimeout > 0 {
		s.armIdle(r)
	}
	return nil
}

func (s *oracleSwitch) armIdle(r *oracleRule) {
	due := r.lastHit.Add(r.IdleTimeout)
	r.idleEv = s.engine.ScheduleAt(due, func() {
		if s.indexOf(r) < 0 {
			return
		}
		if s.engine.Now().Sub(r.lastHit) >= r.IdleTimeout {
			s.evict(r)
			return
		}
		s.armIdle(r)
	})
}

func (s *oracleSwitch) evict(r *oracleRule) {
	if s.remove(r) {
		s.evictions++
	}
}

func (s *oracleSwitch) Remove(r *oracleRule) error {
	if !s.remove(r) {
		return ErrNoSuchRule
	}
	return nil
}

func (s *oracleSwitch) RemoveByCookie(cookie uint64) int {
	removed := 0
	for _, r := range append([]*oracleRule(nil), s.rules...) {
		if r.Cookie == cookie && s.remove(r) {
			removed++
		}
	}
	return removed
}

func (s *oracleSwitch) indexOf(r *oracleRule) int {
	for i, have := range s.rules {
		if have == r {
			return i
		}
	}
	return -1
}

func (s *oracleSwitch) remove(r *oracleRule) bool {
	i := s.indexOf(r)
	if i < 0 {
		return false
	}
	s.rules = append(s.rules[:i], s.rules[i+1:]...)
	r.hardEv.Cancel()
	r.idleEv.Cancel()
	return true
}

func (s *oracleSwitch) Lookup(p PacketInfo) (oracleAction, Verdict) {
	s.lookups++
	for _, r := range s.rules {
		if r.Match.Matches(p) {
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
	}
	s.misses++
	return oracleAction{Type: ActionToController}, VerdictMiss
}

func (s *oracleSwitch) Rules() []*oracleRule {
	return append([]*oracleRule(nil), s.rules...)
}

func (s *oracleSwitch) Stats() (lookups, misses, evictions uint64) {
	return s.lookups, s.misses, s.evictions
}

func (s *oracleSwitch) TableSize() int { return len(s.rules) }

// diffNodes is the node universe of the differential: node i is named
// diffName(i) on the oracle side and referenced by RefOf(i) on the
// index side. The zero Ref and the empty name are the wildcard.
const diffNodes = 8

var diffNames = [diffNodes + 1]netsim.NodeID{"", "n00", "n01", "n02", "n03", "n04", "n05", "n06", "n07"}

func diffName(r Ref) netsim.NodeID { return diffNames[r] }

var (
	diffProtos = [...]string{"", "tcp", "udp"}
	diffPorts  = [...]uint16{0, 80, 443}
)

// tableDiff drives two index-keyed switches and two oracle switches
// through the same operations. Each side has its own engine, so the two
// engines' pending events (time and sequence) must stay equal too.
type tableDiff struct {
	t                    testing.TB
	engine, oracleEngine *sim.Engine
	sw                   [2]*Switch
	or                   [2]*oracleSwitch
	// rules[i] and oracleRules[i] were built from the same bytes; id
	// and oracleID map each back to i.
	rules       []*Rule
	oracleRules []*oracleRule
	id          map[*Rule]int
	oracleID    map[*oracleRule]int
	data        []byte
}

func newTableDiff(t testing.TB) *tableDiff {
	d := &tableDiff{t: t, engine: sim.NewEngine(1), oracleEngine: sim.NewEngine(1),
		id: map[*Rule]int{}, oracleID: map[*oracleRule]int{}}
	for i := range d.sw {
		id := netsim.NodeID(fmt.Sprintf("sw%d", i))
		d.sw[i] = NewSwitch(id, d.engine)
		d.or[i] = newOracleSwitch(id, d.oracleEngine)
	}
	return d
}

// next consumes one byte of the operation stream; an exhausted stream
// reads zeros.
func (d *tableDiff) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// node decodes a node reference, zero (the wildcard) included.
func (d *tableDiff) node() Ref { return Ref(d.next() % (diffNodes + 1)) }

// run decodes data into operations, applying each to both sides and
// checking agreement after every one.
func (d *tableDiff) run(data []byte) {
	d.t.Helper()
	d.data = data
	for step := 0; len(d.data) > 0; step++ {
		op := d.next()
		sw := int(op>>3) % len(d.sw)
		switch op % 8 {
		case 0, 1, 2:
			d.install(sw)
		case 3, 4:
			d.lookup(sw)
		case 5:
			d.remove(sw)
		case 6:
			cookie := uint64(d.next() % 3)
			if got, want := d.sw[sw].RemoveByCookie(cookie), d.or[sw].RemoveByCookie(cookie); got != want {
				d.t.Fatalf("step %d: RemoveByCookie(%d) on sw%d = %d, oracle %d", step, cookie, sw, got, want)
			}
		case 7:
			dt := time.Duration(d.next()%8) * 500 * time.Millisecond
			if err := d.engine.RunFor(dt); err != nil {
				d.t.Fatal(err)
			}
			if err := d.oracleEngine.RunFor(dt); err != nil {
				d.t.Fatal(err)
			}
		}
		d.check(step)
	}
}

func (d *tableDiff) install(sw int) {
	var r *Rule
	var o *oracleRule
	if reuse := d.next(); reuse < 48 && len(d.rules) > 0 {
		k := int(d.next()) % len(d.rules)
		r, o = d.rules[k], d.oracleRules[k]
	} else {
		r, o = d.newRule()
		d.id[r], d.oracleID[o] = len(d.rules), len(d.rules)
		d.rules = append(d.rules, r)
		d.oracleRules = append(d.oracleRules, o)
	}
	got, want := d.sw[sw].Install(r), d.or[sw].Install(o)
	if (got == nil) != (want == nil) {
		d.t.Fatalf("Install on sw%d = %v, oracle %v", sw, got, want)
	}
}

// newRule decodes a rule: priorities tie often, matches are pair, label,
// catch-all or mixed wildcards, and actions output (a zero next hop is
// refused by both), drop or punt to the controller.
func (d *tableDiff) newRule() (*Rule, *oracleRule) {
	var m Match
	switch d.next() % 4 {
	case 0:
		m = Match{Src: d.node(), Dst: d.node()}
	case 1:
		m = Match{Label: Label(d.next()%3 + 1)}
	case 2:
	case 3:
		m = Match{Src: d.node(), Dst: d.node(), Label: Label(d.next() % 4),
			Proto: diffProtos[d.next()%3], DstPort: diffPorts[d.next()%3]}
	}
	a := Action{Type: ActionOutput}
	switch d.next() % 4 {
	case 0, 1:
		a.NextHop = d.node()
	case 2:
		a.Type = ActionDrop
	case 3:
		a.Type = ActionToController
	}
	r := &Rule{
		Priority:    int(d.next() % 4),
		Match:       m,
		Action:      a,
		IdleTimeout: time.Duration(d.next()%4) * time.Second,
		HardTimeout: time.Duration(d.next()%5) * 2 * time.Second,
		Cookie:      uint64(d.next() % 3),
	}
	o := &oracleRule{
		Priority: r.Priority,
		Match: oracleMatch{Src: diffName(m.Src), Dst: diffName(m.Dst), Label: m.Label,
			Proto: m.Proto, DstPort: m.DstPort},
		Action:      oracleAction{Type: a.Type, NextHop: diffName(a.NextHop)},
		IdleTimeout: r.IdleTimeout,
		HardTimeout: r.HardTimeout,
		Cookie:      r.Cookie,
	}
	return r, o
}

func (d *tableDiff) lookup(sw int) {
	p := Packet{Src: d.node(), Dst: d.node(), Label: Label(d.next() % 4),
		Proto: diffProtos[d.next()%3], DstPort: diffPorts[d.next()%3]}
	act, v := d.sw[sw].Lookup(&p)
	oact, ov := d.or[sw].Lookup(PacketInfo{Src: diffName(p.Src), Dst: diffName(p.Dst),
		Label: p.Label, Proto: p.Proto, DstPort: p.DstPort})
	if v != ov || act.Type != oact.Type || diffName(act.NextHop) != oact.NextHop {
		d.t.Fatalf("Lookup(%+v) on sw%d = %v %v via %q, oracle %v %v via %q",
			p, sw, v, act.Type, diffName(act.NextHop), ov, oact.Type, oact.NextHop)
	}
}

func (d *tableDiff) remove(sw int) {
	if len(d.rules) == 0 {
		return
	}
	k := int(d.next()) % len(d.rules)
	got, want := d.sw[sw].Remove(d.rules[k]), d.or[sw].Remove(d.oracleRules[k])
	if got != want {
		d.t.Fatalf("Remove(rule %d) on sw%d = %v, oracle %v", k, sw, got, want)
	}
}

// check compares both sides: every rule's hits and install time, each
// switch's table order, size and counters, and the engines' clocks,
// event counts and pending events.
func (d *tableDiff) check(step int) {
	d.t.Helper()
	for k, r := range d.rules {
		o := d.oracleRules[k]
		if r.Hits() != o.hits || r.InstalledAt() != o.installedAt {
			d.t.Fatalf("step %d: rule %d has %d hits, installed %v; oracle %d, %v",
				step, k, r.Hits(), r.InstalledAt(), o.hits, o.installedAt)
		}
	}
	for i, sw := range d.sw {
		or := d.or[i]
		if sw.TableSize() != or.TableSize() {
			d.t.Fatalf("step %d: sw%d holds %d rules, oracle %d", step, i, sw.TableSize(), or.TableSize())
		}
		got, want := sw.Rules(), or.Rules()
		for j := range got {
			if d.id[got[j]] != d.oracleID[want[j]] {
				d.t.Fatalf("step %d: sw%d table position %d holds rule %d, oracle rule %d",
					step, i, j, d.id[got[j]], d.oracleID[want[j]])
			}
		}
		l, m, e := sw.Stats()
		ol, om, oe := or.Stats()
		if l != ol || m != om || e != oe {
			d.t.Fatalf("step %d: sw%d stats %d/%d/%d, oracle %d/%d/%d", step, i, l, m, e, ol, om, oe)
		}
	}
	if d.engine.Now() != d.oracleEngine.Now() || d.engine.Seq() != d.oracleEngine.Seq() ||
		d.engine.Fired() != d.oracleEngine.Fired() {
		d.t.Fatalf("step %d: engine at %v seq %d fired %d, oracle at %v seq %d fired %d", step,
			d.engine.Now(), d.engine.Seq(), d.engine.Fired(),
			d.oracleEngine.Now(), d.oracleEngine.Seq(), d.oracleEngine.Fired())
	}
	if got, want := d.engine.PendingEvents(), d.oracleEngine.PendingEvents(); !slices.Equal(got, want) {
		d.t.Fatalf("step %d: pending events %v, oracle %v", step, got, want)
	}
}

// diffSeeds seed the differential's operation streams and the fuzz
// corpus.
var diffSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34}

func diffStream(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// TestSwitchMatchesNameOracle drives the index-keyed switch and the
// name-keyed oracle with seeded random operations — installs with
// priority ties, wildcards and pair, label, drop and controller rules,
// reinstalls, lookups, Remove, RemoveByCookie and engine advances
// across idle and hard timeouts — and requires them to agree after
// every step.
func TestSwitchMatchesNameOracle(t *testing.T) {
	for _, seed := range diffSeeds {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			d := newTableDiff(t)
			d.run(diffStream(seed, 6000))
			evicted := uint64(0)
			for _, sw := range d.sw {
				_, _, e := sw.Stats()
				evicted += e
			}
			if len(d.rules) < 100 || evicted == 0 {
				t.Fatalf("weak stream: %d rules, %d evictions", len(d.rules), evicted)
			}
		})
	}
}

// FuzzSwitchTable decodes fuzz bytes into the differential's operations:
// nothing may panic, and the two tables must agree after every step.
// Each step checks every rule made so far, so an input is cut at
// maxFuzzStream bytes to keep one execution, and the minimisation of an
// interesting input, short.
func FuzzSwitchTable(f *testing.F) {
	const maxFuzzStream = 1024
	for _, seed := range diffSeeds {
		f.Add(diffStream(seed, 128))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newTableDiff(t).run(data[:min(len(data), maxFuzzStream)])
	})
}
