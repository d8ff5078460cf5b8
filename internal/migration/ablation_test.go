package migration

// Ablation for the pre-copy design: the stop-and-copy threshold trades
// total copy traffic against downtime. Sweeping it on a dirtying
// container shows the expected monotone trade-off.

import (
	"testing"

	"repro/internal/hw"
)

// sweepOnce migrates a dirtying container under the given threshold and
// returns the report.
func sweepOnce(t testing.TB, threshold int64) Report {
	t.Helper()
	r := newRig(t, Config{StopCopyThresholdBytes: threshold})
	src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
	r.spawn(t, src, "db")
	c, _ := r.suites[src].Get("db")
	// Dirty at 3 MiB/s against a ~12 MiB/s copy channel.
	if err := r.suites[src].Kernel().SetDirtyRate(c.CgroupName(), 3*float64(hw.MiB)); err != nil {
		t.Fatal(err)
	}
	if err := r.suites[src].AllocAppMem("db", 60*hw.MiB); err != nil {
		t.Fatal(err)
	}
	var rep Report
	err := r.mgr.Migrate(Request{
		Container: "db", SrcHost: src, DstHost: dst,
		SrcSuite: r.suites[src], DstSuite: r.suites[dst],
		Routing: RoutingIP,
		OnDone:  func(rp Report) { rep = rp },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.engine.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("threshold %d: %v", threshold, rep.Err)
	}
	return rep
}

func TestAblationStopCopyThreshold(t *testing.T) {
	thresholds := []int64{256 * hw.KiB, hw.MiB, 4 * hw.MiB, 16 * hw.MiB}
	var reports []Report
	for _, th := range thresholds {
		reports = append(reports, sweepOnce(t, th))
	}
	for i := 1; i < len(reports); i++ {
		// A larger threshold stops earlier: downtime must not shrink...
		if reports[i].Downtime < reports[i-1].Downtime {
			t.Errorf("threshold %d downtime %v < threshold %d downtime %v",
				thresholds[i], reports[i].Downtime, thresholds[i-1], reports[i-1].Downtime)
		}
		// ...and total copied traffic must not grow.
		if reports[i].TotalBytes > reports[i-1].TotalBytes {
			t.Errorf("threshold %d copied %d > threshold %d copied %d",
				thresholds[i], reports[i].TotalBytes, thresholds[i-1], reports[i-1].TotalBytes)
		}
	}
	// The extremes genuinely differ (the knob does something).
	first, last := reports[0], reports[len(reports)-1]
	if last.Downtime <= first.Downtime {
		t.Errorf("16MiB threshold downtime %v not above 256KiB's %v", last.Downtime, first.Downtime)
	}
	if first.Iterations <= last.Iterations {
		t.Errorf("small threshold should take more rounds: %d vs %d", first.Iterations, last.Iterations)
	}
}

func BenchmarkAblationThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, th := range []int64{256 * hw.KiB, 4 * hw.MiB} {
			r := newRig(b, Config{StopCopyThresholdBytes: th})
			src, dst := r.topo.Racks[0][0], r.topo.Racks[1][0]
			r.spawn(b, src, "db")
			var rep Report
			err := r.mgr.Migrate(Request{
				Container: "db", SrcHost: src, DstHost: dst,
				SrcSuite: r.suites[src], DstSuite: r.suites[dst],
				Routing: RoutingIP,
				OnDone:  func(rp Report) { rep = rp },
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := r.engine.Run(); err != nil {
				b.Fatal(err)
			}
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
			b.ReportMetric(float64(rep.Downtime.Milliseconds()), "downtime-ms-th"+thLabel(th))
		}
	}
}

func thLabel(th int64) string {
	if th >= hw.MiB {
		return "4MiB"
	}
	return "256KiB"
}
