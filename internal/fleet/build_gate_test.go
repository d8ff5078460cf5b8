package fleet_test

// TestShardedBuildMatchesSerial runs every canned scenario twice, once
// on a serially constructed cloud and once on the default rack-sharded
// parallel build, and requires byte-identical event traces, event
// counts and metrics: the whole-system proof that parallel bring-up
// changes wall time only. It sits in the external test package so it
// can drive the scenario catalog while reaching the serial reference
// build through export_test.go.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// gateSize cuts the megafleets to a few racks (the benchmarks run them
// full size) and caps every run at two simulated minutes. Fat-trees
// stay capacity-filled at k=8, eight pods of sixteen hosts, because the
// gravity mix needs every pod populated.
func gateSize(s scenario.Spec) scenario.Spec {
	if s.Duration > 2*time.Minute {
		s.Duration = 2 * time.Minute
	}
	switch s.Name {
	case "megafleet-1000":
		s.Cloud.Racks = 5
	case "megafleet-10000":
		s.Cloud.Racks = 4
	case "megafleet-100000":
		s.Cloud.Racks = 3
	case "megafleet-1000000":
		s.Cloud.Racks, s.Cloud.HostsPerRack = 2, 500
	case "megafleet-fattree-1000", "megafleet-fattree-100000":
		s.Cloud.FatTreeK, s.Cloud.Racks, s.Cloud.HostsPerRack = 8, 8, 16
	}
	return s
}

func executeOn(t *testing.T, cfg core.Config, spec scenario.Spec) *scenario.Report {
	t.Helper()
	cloud, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	r, err := scenario.Install(cloud, spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestShardedBuildMatchesSerial(t *testing.T) {
	for _, name := range scenario.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Catalog(name)
			if err != nil {
				t.Fatal(err)
			}
			spec = gateSize(spec)
			serial := executeOn(t, fleet.SerialBuild(spec.Cloud), spec)
			sharded := executeOn(t, spec.Cloud, spec)

			if a, b := serial.TraceDigest(), sharded.TraceDigest(); a != b {
				for i := 0; i < len(serial.Trace) && i < len(sharded.Trace); i++ {
					if serial.Trace[i].String() != sharded.Trace[i].String() {
						t.Fatalf("traces diverge at event %d:\n  serial:  %s\n  sharded: %s", i, serial.Trace[i], sharded.Trace[i])
					}
				}
				t.Fatalf("trace digests differ: %s vs %s (lengths %d vs %d)", a, b, len(serial.Trace), len(sharded.Trace))
			}
			if serial.EventsFired != sharded.EventsFired {
				t.Fatalf("event counts differ: serial %d, sharded %d", serial.EventsFired, sharded.EventsFired)
			}
			for k, v := range serial.Metrics {
				if sharded.Metrics[k] != v {
					t.Fatalf("metric %s differs: serial %v, sharded %v", k, v, sharded.Metrics[k])
				}
			}
		})
	}
}
