package session

import (
	"maps"
	"math"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/workload"
)

// TestTelemetryKeyedByRack: a telemetry event keys rack_bits and
// rack_power_w the same way, one key per rack, on a k=8 fat-tree whose
// racks are pods of four edge switches each; a rack's bits are the sum
// of its edge switches' UplinkBits.
func TestTelemetryKeyedByRack(t *testing.T) {
	spec, err := scenario.Catalog("megafleet-fattree-1000")
	if err != nil {
		t.Fatal(err)
	}
	// A capacity-filled k=8 fat-tree: every pod has hosts.
	spec.Cloud.FatTreeK, spec.Cloud.Racks, spec.Cloud.HostsPerRack = 8, 8, 16
	spec.Duration, spec.SampleEvery = 30*time.Second, 10*time.Second
	spec.Faults = nil
	r, err := scenario.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager()
	defer mgr.Close()
	s, err := mgr.adopt(r, adoptConfig{})
	if err != nil {
		r.Cloud.Close()
		t.Fatal(err)
	}
	ch := s.Subscribe(256)
	defer s.Unsubscribe(ch)
	if err := s.Advance(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	var last *Event
	for len(ch) > 0 {
		if ev := <-ch; ev.Type == "telemetry" {
			last = &ev
		}
	}
	if last == nil || last.Offset != int64(20*time.Second) {
		t.Fatalf("no telemetry event at the 20 s slice boundary: %+v", last)
	}
	// The session is paused at the event's instant: read the fabric now.
	v, err := s.do(func(r *scenario.Run) (any, error) {
		want := map[string]float64{}
		for rack, edges := range r.Cloud.Topo.RackEdges {
			bits := 0.0
			for _, e := range edges {
				bits += workload.UplinkBits(r.Cloud.Net, e)
			}
			want[strconv.Itoa(rack)] = bits
		}
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := v.(map[string]float64)
	keys := slices.Sorted(maps.Keys(last.RackBits))
	if len(keys) != spec.Cloud.Racks || !slices.Equal(keys, slices.Sorted(maps.Keys(last.RackPowerW))) {
		t.Fatalf("rack_bits keys %v, rack_power_w keys %v: want the same %d racks",
			keys, slices.Sorted(maps.Keys(last.RackPowerW)), spec.Cloud.Racks)
	}
	moved := false
	for k, bits := range last.RackBits {
		if math.Float64bits(bits) != math.Float64bits(want[k]) {
			t.Errorf("rack %s: rack_bits %v, its edge switches' uplinks carried %v", k, bits, want[k])
		}
		moved = moved || bits > 0
	}
	if !moved {
		t.Fatal("no rack sent traffic across its uplinks")
	}
}
