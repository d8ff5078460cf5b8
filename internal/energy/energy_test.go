package energy

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

func at(sec int) sim.Time { return sim.Time(time.Duration(sec) * time.Second) }

func TestMeterOffDrawsNothing(t *testing.T) {
	m := NewMeter(hw.PiModelB().Power, 0)
	if m.CurrentWatts() != 0 {
		t.Fatalf("off meter draws %v W", m.CurrentWatts())
	}
	if got := m.EnergyJoules(at(100)); got != 0 {
		t.Fatalf("off meter accumulated %v J", got)
	}
}

func TestMeterIdleEnergy(t *testing.T) {
	p := hw.PowerProfile{IdleWatts: 2, PeakWatts: 4}
	m := NewMeter(p, 0)
	m.PowerOn(0)
	if got := m.EnergyJoules(at(10)); math.Abs(got-20) > 1e-9 {
		t.Fatalf("10s idle at 2W = %v J, want 20", got)
	}
}

func TestMeterPiecewiseIntegration(t *testing.T) {
	p := hw.PowerProfile{IdleWatts: 2, PeakWatts: 4}
	m := NewMeter(p, 0)
	m.PowerOn(0)
	m.SetUtilisation(at(5), 1.0)  // 5s at 2W = 10J
	m.SetUtilisation(at(10), 0.5) // 5s at 4W = 20J
	m.PowerOff(at(20))            // 10s at 3W = 30J
	got := m.EnergyJoules(at(30)) // then off: nothing
	if math.Abs(got-60) > 1e-9 {
		t.Fatalf("energy = %v J, want 60", got)
	}
	if m.CurrentWatts() != 0 {
		t.Fatalf("powered-off draw = %v", m.CurrentWatts())
	}
	if m.On() {
		t.Fatal("On() after PowerOff")
	}
}

func TestMeterWh(t *testing.T) {
	p := hw.PowerProfile{IdleWatts: 3.5, PeakWatts: 3.5}
	m := NewMeter(p, 0)
	m.PowerOn(0)
	if got := m.EnergyWh(at(3600)); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("1h at 3.5W = %v Wh, want 3.5", got)
	}
}

// Property: energy is non-decreasing in time regardless of the
// utilisation signal.
func TestPropertyEnergyMonotonic(t *testing.T) {
	f := func(utils []float64) bool {
		m := NewMeter(hw.PiModelB().Power, 0)
		m.PowerOn(0)
		prev := 0.0
		now := 0
		for _, u := range utils {
			if math.IsNaN(u) {
				continue
			}
			now++
			m.SetUtilisation(at(now), u)
			e := m.EnergyJoules(at(now))
			if e < prev-1e-9 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCloudMeterAggregation: three meters in groups 0 and 2 sum to the
// cloud's totals; group 1, which no meter joined, is neither listed nor
// counted, and reads 0 like any unknown group.
func TestCloudMeterAggregation(t *testing.T) {
	cm := NewCloudMeter()
	p := hw.PowerProfile{IdleWatts: 2, PeakWatts: 3.5}
	for i := 0; i < 3; i++ {
		m := NewMeter(p, 0)
		m.PowerOn(0)
		if err := cm.Attach(2*(i%2), m); err != nil {
			t.Fatal(err)
		}
	}
	if got := cm.TotalWatts(); math.Abs(got-6) > 1e-9 {
		t.Fatalf("TotalWatts = %v, want 6", got)
	}
	if got := cm.TotalEnergyJoules(at(10)); math.Abs(got-60) > 1e-9 {
		t.Fatalf("TotalEnergy = %v, want 60", got)
	}
	if got := cm.Groups(); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("Groups = %v, want [0 2]", got)
	}
	for group, want := range map[int]float64{-1: 0, 0: 4, 1: 0, 2: 2, 3: 0} {
		if got := cm.GroupWatts(group); math.Abs(got-want) > 1e-9 {
			t.Fatalf("GroupWatts(%d) = %v, want %v", group, got, want)
		}
	}
	if head, _, _ := strings.Cut(string(cm.AppendState(nil, at(10), nil)), "\n"); head != "energy meters=3 groups=2 at=10000000000" {
		t.Fatalf("AppendState header %q", head)
	}
}

// flatTotals recomputes the aggregate the pre-hierarchical way: walk
// every meter. The reference the cached sub-meter path must match.
func flatTotals(meters []*Meter, at sim.Time) (watts, joules float64) {
	for _, m := range meters {
		watts += m.CurrentWatts()
		joules += m.EnergyJoules(at)
	}
	return watts, joules
}

// TestCloudMeterHierarchicalTotals drives grouped meters through power
// cycles and utilisation changes, reading totals at every step: the
// cached sub-meter path must track the flat walk, and a member change
// must invalidate exactly its group's watts cache.
func TestCloudMeterHierarchicalTotals(t *testing.T) {
	cm := NewCloudMeter()
	p := hw.PowerProfile{IdleWatts: 2, PeakWatts: 4}
	meters := make([]*Meter, 12)
	for i := range meters {
		m := NewMeter(p, 0)
		m.PowerOn(0)
		meters[i] = m
		if err := cm.Attach(i/4, m); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, now sim.Time) {
		t.Helper()
		wantW, _ := flatTotals(meters, now)
		if gotW := cm.TotalWatts(); math.Abs(gotW-wantW) > 1e-9*math.Max(wantW, 1) {
			t.Fatalf("%s: TotalWatts = %v, flat sum %v", step, gotW, wantW)
		}
		_, wantJ := flatTotals(meters, now)
		if gotJ := cm.TotalEnergyJoules(now); math.Abs(gotJ-wantJ) > 1e-9*math.Max(wantJ, 1) {
			t.Fatalf("%s: TotalEnergyJoules = %v, flat sum %v", step, gotJ, wantJ)
		}
	}
	check("initial", at(1))
	// Utilisation spike in group 1 only.
	for i := 4; i < 8; i++ {
		meters[i].SetUtilisation(at(5), 1)
	}
	check("group-1 busy", at(10))
	// Idle stretch: the watts caches stay clean.
	check("idle stretch", at(100))
	// Power-cycle one board in group 2.
	meters[9].PowerOff(at(120))
	check("board off", at(130))
	meters[9].PowerOn(at(140))
	check("board back", at(150))
	// A fresh late attachment joins group 0.
	late := NewMeter(p, at(150))
	late.PowerOn(at(150))
	if err := cm.Attach(0, late); err != nil {
		t.Fatal(err)
	}
	meters = append(meters, late)
	check("late attach", at(160))
}

// TestCloudMeterGroupCacheStaysClean pins the O(dirty groups) claim:
// reading the total draw leaves the group's watts cache clean, so a
// second reading with no member change in between re-reads no meter,
// and a member change dirties it again. Energy is read from the meters.
func TestCloudMeterGroupCacheStaysClean(t *testing.T) {
	cm := NewCloudMeter()
	p := hw.PowerProfile{IdleWatts: 3, PeakWatts: 3}
	m := NewMeter(p, 0)
	m.PowerOn(0)
	if err := cm.Attach(0, m); err != nil {
		t.Fatal(err)
	}
	if got := cm.TotalWatts(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("TotalWatts = %v", got)
	}
	g := m.group
	if g == nil {
		t.Fatal("meter not wired to its group")
	}
	if g.wattsDirty.Load() {
		t.Fatal("group watts cache still dirty after a read")
	}
	if got := cm.TotalEnergyJoules(at(20)); math.Abs(got-60) > 1e-9 {
		t.Fatalf("energy = %v, want 60", got)
	}
	// A member change re-dirties exactly this group.
	m.SetUtilisation(at(25), 0.5)
	if !g.wattsDirty.Load() {
		t.Fatal("member change did not invalidate the group watts cache")
	}
	if got := cm.TotalEnergyJoules(at(30)); math.Abs(got-90) > 1e-9 {
		t.Fatalf("energy after the change = %v, want 90 (flat profile)", got)
	}
}

// TestTotalEnergyJoulesIsPureRead: the total energy up to an instant is
// the sum of the per-group energies, whatever was read before. Reading
// it at other instants, in and out of order, between power changes, must
// not move a bit of any later answer.
func TestTotalEnergyJoulesIsPureRead(t *testing.T) {
	build := func() (*CloudMeter, []*Meter) {
		cm := NewCloudMeter()
		p := hw.PowerProfile{IdleWatts: 2.31, PeakWatts: 3.77}
		meters := make([]*Meter, 9)
		for i := range meters {
			meters[i] = NewMeter(p, 0)
			meters[i].PowerOn(0)
			if err := cm.Attach(i%3, meters[i]); err != nil {
				t.Fatal(err)
			}
		}
		return cm, meters
	}
	ms := func(v int) sim.Time { return sim.Time(time.Duration(v) * time.Millisecond) }
	// Both clouds see the same power history; only the probed one is
	// read between its steps.
	fresh, freshMeters := build()
	probed, probedMeters := build()
	steps := []struct {
		at    int
		meter int
		util  float64
	}{{1300, 1, 0.37}, {4700, 4, 0.91}, {9100, 1, 0.13}, {15300, 8, 0.55}}
	for i, st := range steps {
		for _, probe := range []int{st.at + 700, st.at - 300, st.at + 3100, st.at + 11} {
			probed.TotalWatts()
			probed.TotalEnergyJoules(ms(probe))
		}
		freshMeters[st.meter].SetUtilisation(ms(st.at), st.util)
		probedMeters[st.meter].SetUtilisation(ms(st.at), st.util)
		for _, probe := range []int{st.at + 1999, st.at + 517} {
			probed.TotalEnergyJoules(ms(probe))
		}
		when := ms(st.at + 2500)
		got, want := probed.TotalEnergyJoules(when), fresh.TotalEnergyJoules(when)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: energy at %v reads %v after other reads, %v without", i, when, got, want)
		}
	}
}

// TestCloudMeterDuplicateAttach: a meter reports once, to one cloud
// meter, under a group id that can index the group slice.
func TestCloudMeterDuplicateAttach(t *testing.T) {
	cm := NewCloudMeter()
	m := NewMeter(hw.PiModelB().Power, 0)
	if err := cm.Attach(0, m); err != nil {
		t.Fatal(err)
	}
	if err := cm.Attach(1, m); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if err := NewCloudMeter().Attach(0, m); err == nil {
		t.Fatal("meter attached to a second cloud meter")
	}
	if err := cm.Attach(-1, NewMeter(hw.PiModelB().Power, 0)); err == nil {
		t.Fatal("negative group accepted")
	}
	if state := string(cm.AppendState(nil, 0, nil)); !strings.HasPrefix(state, "energy meters=1 groups=1 ") {
		t.Fatalf("refused attachments were counted: %q", state)
	}
}

func TestPaperPowerClaims(t *testing.T) {
	// Table I: 56 Pis at peak 3.5W = 196W; 56 x86 at 180W = 10,080W.
	pi := hw.PiModelB().Power
	if got := pi.At(1) * 56; math.Abs(got-196) > 1e-9 {
		t.Errorf("56 Pis peak = %v W, Table I says 196", got)
	}
	x86 := hw.X86Server().Power
	if got := x86.At(1) * 56; math.Abs(got-10080) > 1e-9 {
		t.Errorf("56 x86 peak = %v W, Table I says 10,080", got)
	}
	// Section III: the whole PiCloud runs from a single trailing socket.
	sock := UKTrailingSocket()
	if !sock.CanSupply(196) {
		t.Error("UK socket cannot supply the PiCloud, contradicting the paper")
	}
	if sock.CanSupply(10080) {
		t.Error("UK socket should not supply the x86 testbed")
	}
}

func TestCooling(t *testing.T) {
	c := DefaultCooling()
	if c.Share != 0.33 {
		t.Fatalf("share = %v, paper says 33%%", c.Share)
	}
	it := 670.0
	total := c.FacilityWatts(it)
	// Cooling must be 33% of the total facility power.
	if got := c.OverheadWatts(it) / total; math.Abs(got-0.33) > 1e-9 {
		t.Fatalf("cooling share of total = %v, want 0.33", got)
	}
	if got := c.PUE(); math.Abs(got-1/(1-0.33)) > 1e-12 {
		t.Fatalf("PUE = %v", got)
	}
	if (Cooling{Share: 0}).OverheadWatts(100) != 0 {
		t.Fatal("zero share should add no overhead")
	}
}

func TestCoolingInvalidShare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for share >= 1")
		}
	}()
	_ = Cooling{Share: 1}.OverheadWatts(1)
}

func BenchmarkMeterSetUtilisation(b *testing.B) {
	m := NewMeter(hw.PiModelB().Power, 0)
	m.PowerOn(0)
	for i := 0; i < b.N; i++ {
		m.SetUtilisation(sim.Time(time.Duration(i)*time.Microsecond), float64(i%100)/100)
	}
}

// TestIdleSlotRefusals: an idle slot takes only a meter that reads as
// it does (same board, powered on at its boot instant, idle since), and
// only once; a group's idle slots share one board and boot instant, and
// an empty rack makes no group.
func TestIdleSlotRefusals(t *testing.T) {
	p := hw.PiModelB().Power
	cm := NewCloudMeter()
	if err := cm.AttachIdle(3, 0, p, at(1)); err != nil || len(cm.Groups()) != 0 {
		t.Fatalf("no idle slots made groups %v (%v)", cm.Groups(), err)
	}
	if err := cm.AttachIdle(0, 2, p, at(1)); err != nil {
		t.Fatal(err)
	}
	if err := cm.AttachIdle(0, 1, hw.PowerProfile{IdleWatts: 1, PeakWatts: 2}, at(1)); err == nil {
		t.Fatal("idle slots of another board joined the group")
	}
	if err := cm.AttachIdle(0, 1, p, at(2)); err == nil {
		t.Fatal("idle slots of another boot instant joined the group")
	}
	booted := func(boot sim.Time) *Meter {
		m := NewMeter(p, boot)
		m.PowerOn(boot)
		return m
	}
	busy := booted(at(1))
	busy.SetUtilisation(at(3), 0.5)
	for name, m := range map[string]*Meter{
		"booted later": booted(at(2)),
		"busy":         busy,
		"off":          NewMeter(p, at(1)),
	} {
		if err := cm.Fill(0, 0, m); err == nil {
			t.Fatalf("a %s meter filled an idle slot", name)
		}
	}
	if err := cm.Fill(0, 2, booted(at(1))); err == nil {
		t.Fatal("a slot past the group's end filled")
	}
	if err := cm.Fill(0, 1, booted(at(1))); err != nil {
		t.Fatal(err)
	}
	if err := cm.Fill(0, 1, booted(at(1))); err == nil {
		t.Fatal("a filled slot filled again")
	}
	if w := cm.TotalWatts(); w != 2*p.At(0) {
		t.Fatalf("one idle slot and one idle meter draw %v W, want %v", w, 2*p.At(0))
	}
}
