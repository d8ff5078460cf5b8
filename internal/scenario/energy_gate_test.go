package scenario

// Gate for the hierarchical CloudMeter at scenario level: after every
// canned scenario has run its full timeline (power cycles, churn, rack
// blackouts — everything that invalidates rack sub-meters), the
// hierarchical totals must match a flat walk over every device meter.
// The flat walk is recomputed in sorted-name order, the reference the
// per-rack caches replaced; agreement is to float tolerance (the two
// summation orders round differently in the last bits).

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestCloudMeterHierarchicalMatchesFlat(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = shrink(spec)
			cloud, err := core.New(spec.Cloud)
			if err != nil {
				t.Fatal(err)
			}
			defer cloud.Close()
			r, err := Install(cloud, spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Execute(); err != nil {
				t.Fatal(err)
			}

			cloud.Mu.Lock()
			defer cloud.Mu.Unlock()
			now := cloud.Engine.Now()
			flatW, flatJ := 0.0, 0.0
			for _, node := range cloud.Nodes() {
				flatW += node.Meter().CurrentWatts()
				flatJ += node.Meter().EnergyJoules(now)
			}
			gotW := cloud.Meter.TotalWatts()
			gotJ := cloud.Meter.TotalEnergyJoules(now)
			if math.Abs(gotW-flatW) > 1e-9*math.Max(flatW, 1) {
				t.Fatalf("TotalWatts = %v, flat walk %v (Δ %v)", gotW, flatW, gotW-flatW)
			}
			if math.Abs(gotJ-flatJ) > 1e-9*math.Max(flatJ, 1) {
				t.Fatalf("TotalEnergyJoules = %v, flat walk %v (Δ %v)", gotJ, flatJ, gotJ-flatJ)
			}
			if gotW <= 0 || gotJ <= 0 {
				t.Fatalf("implausible totals: %v W, %v J", gotW, gotJ)
			}
		})
	}
}
