package energy

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/sim"
)

// writeStateFmt is the fmt rendering AppendState replaced, kept as its
// oracle: the same bytes, one Fprintf per line, each meter read with
// one lock per quantity.
func writeStateFmt(c *CloudMeter, w io.Writer, at sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	groups := 0
	for _, g := range c.groups {
		if g != nil {
			groups++
		}
	}
	fmt.Fprintf(w, "energy meters=%d groups=%d at=%d\n", c.meters, groups, int64(at))
	for id, g := range c.groups {
		if g == nil {
			continue
		}
		var joules, watts float64
		for _, m := range g.members {
			if m == nil {
				// An idle slot reads as a meter powered on at boot.
				m = NewMeter(g.idle, g.boot)
				m.PowerOn(g.boot)
			}
			joules += m.EnergyJoules(at)
			watts += m.CurrentWatts()
		}
		fmt.Fprintf(w, "group %d joules=%016x watts=%016x members=%d\n",
			id, math.Float64bits(joules), math.Float64bits(watts), len(g.members))
	}
}

// TestStateRenderMatchesFmt: the cloud meter's strconv rendering writes
// the fmt oracle's bytes over gapped group ids while meters change
// utilisation and power off and on, into one reused buffer. Two groups
// also hold idle slots, which meters fill as the steps first reach
// them.
func TestStateRenderMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cm := NewCloudMeter()
	profile := hw.PiModelB().Power
	var meters []*Meter
	for i := 0; i < 24; i++ {
		m := NewMeter(profile, 0)
		m.PowerOn(0)
		if err := cm.Attach(3*(i%5), m); err != nil {
			t.Fatal(err)
		}
		meters = append(meters, m)
	}
	type slot struct{ group, slot int }
	var idle []slot
	for _, group := range []int{3, 15} {
		first := 0
		if group < len(cm.groups) {
			first = len(cm.groups[group].members)
		}
		if err := cm.AttachIdle(group, 6, profile, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			idle = append(idle, slot{group, first + i})
			meters = append(meters, nil)
		}
	}
	now := sim.Time(0)
	var buf []byte
	off := false
	for step := 0; step < 500; step++ {
		now += sim.Time(time.Duration(rng.Intn(5000)) * time.Millisecond)
		k := rng.Intn(len(meters))
		if meters[k] == nil {
			m := NewMeter(profile, 0)
			m.PowerOn(0)
			sl := idle[k-24]
			if err := cm.Fill(sl.group, sl.slot, m); err != nil {
				t.Fatal(err)
			}
			meters[k] = m
		}
		m := meters[k]
		switch rng.Intn(4) {
		case 0:
			m.PowerOff(now)
			off = true
		case 1:
			m.PowerOn(now)
		default:
			m.SetUtilisation(now, rng.Float64())
		}
		at := now + sim.Time(rng.Intn(3000))*sim.Time(time.Millisecond)
		var want bytes.Buffer
		writeStateFmt(cm, &want, at)
		buf = cm.AppendState(buf[:0], at, nil)
		if !bytes.Equal(buf, want.Bytes()) {
			t.Fatalf("step %d:\n%s\nwant\n%s", step, buf, want.Bytes())
		}
	}
	if !off {
		t.Fatal("no meter was powered off")
	}
}
