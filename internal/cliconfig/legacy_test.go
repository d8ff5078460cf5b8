package cliconfig_test

// Wire compatibility with files written before the kernel-mode fields
// were retired. testdata/legacy-kernel-fields.ckpt.json is a piscale
// checkpoint recorded with -classic-heap -sharded-advance -serial-solve
// -eager-advance -solve-workers 4 -shard-workers 2 -shards 4, plus an
// explicit "disable_route_synthesis": false as a client could send it,
// so it carries all eight retired fields. Every one of those modes left
// the kernel state byte-identical, so the recorded digests are the
// single kernel's, and cmd/piscale's resume test verifies against them.
//
// testdata/legacy-dijkstra-only.ckpt.json was recorded with
// -no-route-synth. Its trace is the single kernel's too, but the SDN
// state in its kernel digest counts zero synthesised routes, which the
// single kernel cannot reproduce. It still decodes and resolves here;
// cmd/piscale's resume test pins that verification refuses it.

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/cliconfig"
	"repro/internal/store"
)

// retiredFields are the kernel-mode wire fields no decoder reads any
// more.
var retiredFields = []string{
	"solve_workers", "serial_solve", "eager_advance", "classic_heap",
	"sharded_advance", "shard_workers", "shards", "disable_route_synthesis",
}

// legacyPair decodes a fixture as written and with every retired field
// stripped, returning both requests.
func legacyPair(t *testing.T, path string) (legacy, clean cliconfig.SpecRequest) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &legacy); err != nil {
		t.Fatalf("legacy payload does not decode: %v", err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, f := range retiredFields {
		delete(raw, f)
	}
	stripped, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(stripped, &clean); err != nil {
		t.Fatal(err)
	}
	return legacy, clean
}

func TestLegacyKernelFieldsDecodeAndResolve(t *testing.T) {
	data, err := os.ReadFile("testdata/legacy-kernel-fields.ckpt.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, f := range retiredFields {
		if _, ok := raw[f]; !ok {
			t.Fatalf("fixture lost retired field %q; it must carry all of %v", f, retiredFields)
		}
	}
	for _, path := range []string{
		"testdata/legacy-kernel-fields.ckpt.json",
		"testdata/legacy-dijkstra-only.ckpt.json",
	} {
		legacy, clean := legacyPair(t, path)
		got, err := legacy.Resolve()
		if err != nil {
			t.Fatalf("%s: resolve: %v", path, err)
		}
		want, err := clean.Resolve()
		if err != nil {
			t.Fatalf("%s: resolve without the retired fields: %v", path, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: retired fields changed the resolved spec:\n got %+v\nwant %+v", path, got, want)
		}
		// Image recipes and journal records dedup on Recipe.Key: a
		// recipe saved with the retired fields must share its key with
		// the same recipe saved without them.
		at := int64(45e9)
		if a, b := (store.Recipe{Spec: legacy, At: at}).Key(), (store.Recipe{Spec: clean, At: at}).Key(); a != b {
			t.Fatalf("%s: recipe keys differ:\n  legacy %s\n  clean  %s", path, a, b)
		}
	}
}
