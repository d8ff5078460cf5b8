package cliconfig_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/cliconfig"
)

// FuzzSpecRequestResolve feeds arbitrary bytes through the path every
// POST body, checkpoint file and image recipe takes: decode, Resolve,
// re-marshal, decode again. Nothing may panic, the second decode must
// equal the first, and both must resolve to the same spec (or the same
// error). The seeds are the legacy checkpoint fixtures and the bodies
// the session API's error-path tests send.
//
//	go test -run '^$' -fuzz FuzzSpecRequestResolve -fuzztime 30s ./internal/cliconfig
func FuzzSpecRequestResolve(f *testing.F) {
	for _, path := range []string{
		"testdata/legacy-kernel-fields.ckpt.json",
		"testdata/legacy-dijkstra-only.ckpt.json",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range []string{
		`{"kind":`,
		`{"kind":"frobnicate"}`,
		`{"kind":"rack-fail","rack":1,"at_ns":1000000000,"outage_ns":1000000000}`,
		`{}`,
		`{"to_ns":1}`,
		`{"base_image":"base"}`,
		`{"name":"late","at_ns":1,"spec":{"scenario":"megafleet-1000"}}`,
		`{"scenario":"rack-blackout","seed":7,"duration_ns":"30s","fabric":"fat-tree","sample_ns":"5s"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var first cliconfig.SpecRequest
		if err := json.Unmarshal(data, &first); err != nil {
			return
		}
		spec1, err1 := first.Resolve()
		out, err := json.Marshal(first)
		if err != nil {
			t.Fatalf("re-marshal of a decoded request failed: %v", err)
		}
		var second cliconfig.SpecRequest
		if err := json.Unmarshal(out, &second); err != nil {
			t.Fatalf("re-marshalled request %s does not decode: %v", out, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("round trip changed the request:\n first  %#v\n second %#v", first, second)
		}
		spec2, err2 := second.Resolve()
		if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
			t.Fatalf("round trip changed the resolve error: %v vs %v", err1, err2)
		}
		if !reflect.DeepEqual(spec1, spec2) {
			t.Fatalf("round trip changed the resolved spec:\n first  %+v\n second %+v", spec1, spec2)
		}
	})
}
