package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes os.Executable() for every repetition, which under
// go test is this binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// bench runs one small invocation and decodes its verdict line.
func bench(t *testing.T, pins string, args ...string) (int, result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"--size", "small", "--seconds", "0.2", "--pins", pins, "--work", t.TempDir()}, args...)
	code := parentMain(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a verdict: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return code, res, out.String()
}

func names(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames() {
		for _, tc := range []struct {
			trace string
			want  map[string]string
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w+"/trace="+tc.trace, func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "run.trace.json")
				code, res, out := bench(t, "pins.json", "--workload", w, "--trace", tc.trace, "--trace-out", traceOut)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, verdict %+v\n%s", code, res, out)
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if g, w := strings.Join(names(got), " "), strings.Join(names(tc.want), " "); g != w {
					t.Fatalf("metrics\n got  %s\n want %s", g, w)
				}
				for name, unit := range tc.want {
					if got[name] != unit {
						t.Errorf("%s: unit %q, want %q", name, got[name], unit)
					}
				}
				if tc.trace == "1" {
					b, err := os.ReadFile(traceOut)
					if err != nil {
						t.Fatal(err)
					}
					var trace struct{ TraceEvents []map[string]any }
					if err := json.Unmarshal(b, &trace); err != nil || len(trace.TraceEvents) == 0 {
						t.Fatalf("trace file: %v, %d events", err, len(trace.TraceEvents))
					}
				}
			})
		}
	}
}

func TestTamperedPinFailsTheRun(t *testing.T) {
	b, err := os.ReadFile("pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]pin
	if err := json.Unmarshal(b, &pins); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			p, err := lookupPlan(w, "small")
			if err != nil {
				t.Fatal(err)
			}
			pn, ok := pins[p.key()]
			if !ok || pn.Seed != p.catalogSeed() {
				t.Fatalf("pins.json has no pin for %s at its catalog seed", p.key())
			}
			tampered := map[string]pin{}
			for k, v := range pins {
				tampered[k] = v
			}
			if len(pn.Forks) > 0 {
				forks := map[string]string{}
				for rack, d := range pn.Forks {
					forks[rack] = d
				}
				for rack := range forks {
					forks[rack] = tamper(forks[rack])
					break
				}
				pn.Forks = forks
			} else {
				pn.Digest = tamper(pn.Digest)
			}
			tampered[p.key()] = pn
			raw, err := json.Marshal(tampered)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "pins.json")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			code, res, out := bench(t, path, "--workload", w, "--trace", "0")
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("tampered pin passed: exit %d, verdict %+v\n%s", code, res, out)
			}
		})
	}
}

// tamper changes the first hex digit of a digest.
func tamper(d string) string {
	if d[0] == '0' {
		return "1" + d[1:]
	}
	return "0" + d[1:]
}
