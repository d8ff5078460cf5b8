package openflow

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// Node references the tests route between: a and b are hosts, the rest
// next hops. Any distinct non-zero values would do.
const (
	refA, refB, refZ, refBad Ref = 1, 2, 26, 9
	hopLow, hopHigh, hopN    Ref = 101, 102, 103
	hopFirst, hopSecond      Ref = 104, 105
)

func pkt(src, dst Ref) *Packet {
	return &Packet{Src: src, Dst: dst, Proto: "tcp", DstPort: 80}
}

func TestRefIndex(t *testing.T) {
	if got := RefOf(0); got != 1 {
		t.Fatalf("RefOf(0) = %d, want 1", got)
	}
	if got := RefOf(41).Index(); got != 41 {
		t.Fatalf("RefOf(41).Index() = %d, want 41", got)
	}
	if got := Ref(0).Index(); got != -1 {
		t.Fatalf("zero Ref index = %d, want -1", got)
	}
}

func TestMatchWildcards(t *testing.T) {
	p := &Packet{Src: refA, Dst: refB, Label: 7, Proto: "tcp", DstPort: 80}
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"empty matches all", Match{}, true},
		{"src", Match{Src: refA}, true},
		{"src mismatch", Match{Src: refZ}, false},
		{"dst", Match{Dst: refB}, true},
		{"dst mismatch", Match{Dst: refZ}, false},
		{"label", Match{Label: 7}, true},
		{"label mismatch", Match{Label: 8}, false},
		{"proto", Match{Proto: "tcp"}, true},
		{"proto mismatch", Match{Proto: "udp"}, false},
		{"port", Match{DstPort: 80}, true},
		{"port mismatch", Match{DstPort: 443}, false},
		{"full", Match{Src: refA, Dst: refB, Label: 7, Proto: "tcp", DstPort: 80}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.m.Matches(p); got != c.want {
				t.Fatalf("Matches = %v, want %v", got, c.want)
			}
		})
	}
}

func TestLookupMissIsPacketIn(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	act, v := s.Lookup(pkt(refA, refB))
	if v != VerdictMiss || act.Type != ActionToController {
		t.Fatalf("empty table lookup = %v/%v, want miss/controller", v, act.Type)
	}
	lookups, misses, _ := s.Stats()
	if lookups != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", lookups, misses)
	}
}

func TestPriorityOrdering(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	low := &Rule{Priority: 1, Match: Match{}, Action: Action{Type: ActionOutput, NextHop: hopLow}}
	high := &Rule{Priority: 10, Match: Match{Dst: refB}, Action: Action{Type: ActionOutput, NextHop: hopHigh}}
	if err := s.Install(low); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(high); err != nil {
		t.Fatal(err)
	}
	act, v := s.Lookup(pkt(refA, refB))
	if v != VerdictForward || act.NextHop != hopHigh {
		t.Fatalf("got %v via %d, want forward via high", v, act.NextHop)
	}
	// A packet not matching the specific rule falls to the low-priority one.
	act, _ = s.Lookup(pkt(refA, refZ))
	if act.NextHop != hopLow {
		t.Fatalf("fallback next hop = %d, want low", act.NextHop)
	}
	if high.Hits() != 1 || low.Hits() != 1 {
		t.Fatalf("hits = %d/%d", high.Hits(), low.Hits())
	}
}

func TestEqualPriorityFIFO(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	first := &Rule{Priority: 5, Action: Action{Type: ActionOutput, NextHop: hopFirst}}
	if err := s.Install(first); err != nil {
		t.Fatal(err)
	}
	e.Schedule(time.Second, func() {})
	e.Step()
	second := &Rule{Priority: 5, Action: Action{Type: ActionOutput, NextHop: hopSecond}}
	if err := s.Install(second); err != nil {
		t.Fatal(err)
	}
	act, _ := s.Lookup(pkt(refA, refB))
	if act.NextHop != hopFirst {
		t.Fatalf("equal priority should prefer earlier install, got %d", act.NextHop)
	}
}

func TestDropAction(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	if err := s.Install(&Rule{Priority: 1, Match: Match{Src: refBad}, Action: Action{Type: ActionDrop}}); err != nil {
		t.Fatal(err)
	}
	_, v := s.Lookup(pkt(refBad, refB))
	if v != VerdictDrop {
		t.Fatalf("verdict = %v, want drop", v)
	}
}

func TestInstallValidation(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	if err := s.Install(nil); err == nil {
		t.Fatal("nil rule accepted")
	}
	if err := s.Install(&Rule{Action: Action{Type: ActionOutput}}); err == nil {
		t.Fatal("output rule without next hop accepted")
	}
}

// TestInstallRefusesInstalledRule: a rule already in a table is refused,
// on the same switch or another. Before the refusal the second install
// appended the rule again and overwrote its timer handles, so the first
// idle expiry cancelled the only timer the duplicate entry had and the
// survivor forwarded forever.
func TestInstallRefusesInstalledRule(t *testing.T) {
	e := sim.NewEngine(1)
	s, other := NewSwitch("sw", e), NewSwitch("other", e)
	r := &Rule{Priority: 1, Action: Action{Type: ActionOutput, NextHop: hopN}, IdleTimeout: time.Second}
	if err := s.Install(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(r); !errors.Is(err, ErrBadRule) {
		t.Fatalf("second install on the same switch = %v, want ErrBadRule", err)
	}
	if err := other.Install(r); !errors.Is(err, ErrBadRule) {
		t.Fatalf("install of a rule live on another switch = %v, want ErrBadRule", err)
	}
	if s.TableSize() != 1 || other.TableSize() != 0 {
		t.Fatalf("table sizes = %d/%d, want 1/0", s.TableSize(), other.TableSize())
	}
	if err := e.RunFor(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, v := s.Lookup(pkt(refA, refB)); v != VerdictMiss {
		t.Fatalf("an idle rule still decides lookups after 60s: verdict %v", v)
	}
	if _, _, evictions := s.Stats(); s.TableSize() != 0 || evictions != 1 {
		t.Fatalf("table size %d, evictions %d; want 0 and 1", s.TableSize(), evictions)
	}
}

// TestRemovedRuleReinstalledElsewhereIdlesOut: a removed rule may be
// installed on another switch, and its idle timeout then evicts it
// there.
func TestRemovedRuleReinstalledElsewhereIdlesOut(t *testing.T) {
	e := sim.NewEngine(1)
	s, other := NewSwitch("sw", e), NewSwitch("other", e)
	r := &Rule{Priority: 1, Action: Action{Type: ActionOutput, NextHop: hopN}, IdleTimeout: time.Second}
	if err := s.Install(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(r); err != nil {
		t.Fatal(err)
	}
	if err := other.Install(r); err != nil {
		t.Fatalf("reinstalling a removed rule: %v", err)
	}
	if err := s.Remove(r); !errors.Is(err, ErrNoSuchRule) {
		t.Fatalf("removing from the old switch = %v, want ErrNoSuchRule", err)
	}
	if err := e.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, sEv := s.Stats()
	_, _, otherEv := other.Stats()
	if other.TableSize() != 0 || otherEv != 1 || sEv != 0 {
		t.Fatalf("other holds %d rules with %d evictions, old switch %d evictions; want 0, 1, 0",
			other.TableSize(), otherEv, sEv)
	}
}

func TestHardTimeout(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	r := &Rule{Priority: 1, Action: Action{Type: ActionOutput, NextHop: hopN}, HardTimeout: 10 * time.Second}
	if err := s.Install(r); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(9 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.TableSize() != 1 {
		t.Fatal("rule evicted early")
	}
	if err := e.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.TableSize() != 0 {
		t.Fatal("hard timeout did not evict")
	}
	_, _, evictions := s.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
}

func TestIdleTimeoutRefreshedByHits(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	r := &Rule{Priority: 1, Action: Action{Type: ActionOutput, NextHop: hopN}, IdleTimeout: 5 * time.Second}
	if err := s.Install(r); err != nil {
		t.Fatal(err)
	}
	// Hit the rule every 3 seconds; it must survive well past 5s.
	tick := e.NewTicker(3*time.Second, func(sim.Time) { s.Lookup(pkt(refA, refB)) })
	if err := e.RunFor(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.TableSize() != 1 {
		t.Fatal("idle timeout evicted a busy rule")
	}
	tick.Stop()
	// Now idle: evicted within the next 5+ seconds.
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if s.TableSize() != 0 {
		t.Fatal("idle rule not evicted")
	}
}

func TestRemoveAndRemoveByCookie(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	a := &Rule{Priority: 1, Action: Action{Type: ActionOutput, NextHop: hopN}, Cookie: 42}
	b := &Rule{Priority: 2, Action: Action{Type: ActionOutput, NextHop: hopN}, Cookie: 42}
	c := &Rule{Priority: 3, Action: Action{Type: ActionOutput, NextHop: hopN}, Cookie: 7}
	for _, r := range []*Rule{a, b, c} {
		if err := s.Install(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Remove(c); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(c); err != ErrNoSuchRule {
		t.Fatalf("double remove = %v", err)
	}
	if got := s.RemoveByCookie(42); got != 2 {
		t.Fatalf("RemoveByCookie = %d, want 2", got)
	}
	if s.TableSize() != 0 {
		t.Fatalf("table size = %d, want 0", s.TableSize())
	}
}

func TestRemovedRuleTimeoutHarmless(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	r := &Rule{Priority: 1, Action: Action{Type: ActionOutput, NextHop: hopN}, IdleTimeout: time.Second, HardTimeout: 2 * time.Second}
	if err := s.Install(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(r); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, _, evictions := s.Stats()
	if evictions != 0 {
		t.Fatalf("evictions = %d for a removed rule", evictions)
	}
}

// Property: a rule with an empty match catches every packet, so a table
// holding one always returns its action regardless of the packet.
func TestPropertyCatchAll(t *testing.T) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	if err := s.Install(&Rule{Priority: 0, Action: Action{Type: ActionOutput, NextHop: hopN}}); err != nil {
		t.Fatal(err)
	}
	f := func(src, dst int32, label uint32, proto string, port uint16) bool {
		act, v := s.Lookup(&Packet{Src: Ref(src), Dst: Ref(dst), Label: Label(label), Proto: proto, DstPort: port})
		return v == VerdictForward && act.NextHop == hopN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnumStrings(t *testing.T) {
	if ActionOutput.String() != "output" || ActionDrop.String() != "drop" || ActionToController.String() != "controller" {
		t.Error("action strings wrong")
	}
	if VerdictForward.String() != "forward" || VerdictDrop.String() != "drop" || VerdictMiss.String() != "miss" {
		t.Error("verdict strings wrong")
	}
}

func BenchmarkLookup64Rules(b *testing.B) {
	e := sim.NewEngine(1)
	s := NewSwitch("sw", e)
	for i := 0; i < 64; i++ {
		_ = s.Install(&Rule{
			Priority: i,
			Match:    Match{Label: Label(i + 1)},
			Action:   Action{Type: ActionOutput, NextHop: hopN},
		})
	}
	p := &Packet{Label: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(p)
	}
}
