package session

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cliconfig"
)

// FuzzFaultRequest feeds arbitrary bytes through the inject body's path
// and the journal's: decode a cliconfig.FaultRequest, decode it to a
// scenario fault, encode that back to its wire form (what a journal
// stores) and decode again. Nothing may panic, and the fault recovery
// replays must equal the one the request named. The seeds are the
// service gate's twenty tenant faults.
//
//	go test -run '^$' -fuzz FuzzFaultRequest -fuzztime 30s ./internal/session
func FuzzFaultRequest(f *testing.F) {
	for i := 0; i < gateSessions; i++ {
		body, err := json.Marshal(gateFault(i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"kind":"link-fail","a":"tor-00","b":"agg-01","at_ns":"5s","outage_ns":"1s"}`))
	f.Add([]byte(`{"kind":"frobnicate"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req cliconfig.FaultRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		first, err := req.Fault()
		if err != nil {
			return
		}
		wire, err := cliconfig.EncodeFault(first)
		if err != nil {
			t.Fatalf("a decoded %q fault has no wire form: %v", req.Kind, err)
		}
		second, err := wire.Fault()
		if err != nil {
			t.Fatalf("the encoded fault %+v does not decode: %v", wire, err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("the journal round trip changed the fault:\n first  %#v\n second %#v", first, second)
		}
	})
}
