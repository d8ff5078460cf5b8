package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cliconfig"
)

// FuzzReadJournal holds the journal reader to its torn-tail rule on
// arbitrary bytes: nothing may panic; the records a journal body reads
// back as, re-appended as whole lines and followed by any strict prefix
// of one more record line, read back as exactly those records with no
// error; and a malformed line followed by a complete record is refused.
// The seeds are the bodies of TestJournalTornTailTolerated and
// TestJournalMidCorruptionRefused.
//
//	go test -run '^$' -fuzz FuzzReadJournal -fuzztime 30s ./internal/store
func FuzzReadJournal(f *testing.F) {
	f.Add([]byte(`{"op":"create","at_ns":0}`+"\n"+`{"op":"advance","at_ns":10000000000}`+"\n"+
		`{"op":"advance","at_ns":2000`), 28)
	f.Add([]byte(`{"op":"create","at_ns":0}`+"\n"+`{"op":"adv`+"\n"+`{"op":"advance","at_ns":1000}`+"\n"), 9)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		recs, _ := decodeJournal(bytes.NewReader(data), "fuzz")

		// Re-append what was read, one Append-shaped line per record.
		var body bytes.Buffer
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
			}
			body.Write(line)
			body.WriteByte('\n')
		}
		want, err := decodeJournal(bytes.NewReader(body.Bytes()), "fuzz")
		if err != nil || len(want) != len(recs) {
			t.Fatalf("re-appended journal read %d of %d records, err %v", len(want), len(recs), err)
		}

		// The record a SIGKILL cuts short: the last one read, or a stock
		// advance. Every strict prefix of a JSON object is invalid JSON.
		extra := Record{Op: "advance", At: int64(cut)}
		if len(recs) > 0 {
			extra = recs[len(recs)-1]
		}
		line, err := json.Marshal(extra)
		if err != nil {
			t.Fatal(err)
		}
		if cut < 0 {
			cut = -cut
		}
		torn := line[:cut%len(line)]
		got, err := decodeJournal(bytes.NewReader(append(bytes.Clone(body.Bytes()), torn...)), "fuzz")
		if err != nil {
			t.Fatalf("torn tail %q refused: %v", torn, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("torn tail %q changed the records:\n got  %+v\n want %+v", torn, got, want)
		}

		// The same cut line with a complete record after it is corruption.
		if len(torn) == 0 {
			return
		}
		corrupt := append(bytes.Clone(body.Bytes()), torn...)
		corrupt = append(append(append(corrupt, '\n'), line...), '\n')
		if _, err := decodeJournal(bytes.NewReader(corrupt), "fuzz"); err == nil {
			t.Fatalf("malformed line %q followed by a complete record read without error", torn)
		}
	})
}

// FuzzImageRecipe holds a persisted image record to its wire form on
// arbitrary bytes: nothing may panic; when the record's injection
// history decodes, each fault survives its journal encoding
// (cliconfig.EncodeFault, then Fault) unchanged; and the record,
// re-marshalled and decoded, keeps its rebuild key. It never calls
// Rebuild, since a recipe can name a 10⁶-node fleet. The seeds are a
// record with one injection of each kind, one naming an unknown kind,
// and a bare one.
//
//	go test -run '^$' -fuzz FuzzImageRecipe -fuzztime 30s ./internal/store
func FuzzImageRecipe(f *testing.F) {
	f.Add([]byte(`{"name":"base","spec":{"scenario":"megafleet-1000","seed":7,"duration_ns":"60s"},` +
		`"at_ns":30000000000,"injections":[` +
		`{"at_ns":31000000000,"fault":{"kind":"rack-fail","rack":2,"at_ns":"40s","outage_ns":"10s"}},` +
		`{"at_ns":32000000000,"fault":{"kind":"degrade","at_ns":"41s","outage_ns":"5s","capacity_scale":0.4,"extra_latency_ns":2000000,"loss":0.02}},` +
		`{"at_ns":33000000000,"fault":{"kind":"link-fail","a":"tor-00","b":"agg-01","at_ns":"42s","outage_ns":"1s"}},` +
		`{"at_ns":34000000000,"fault":{"kind":"node-churn","start_ns":"43s","every_ns":"7s","outage_ns":"3s"}},` +
		`{"at_ns":35000000000,"fault":{"kind":"migration-storm","at_ns":"44s","moves":2,"routing":"ecmp"}}],` +
		`"fingerprint":"r20.h52@abc","kernel_digest":"abc","trace_len":3,"trace_digest":"def"}`))
	f.Add([]byte(`{"name":"late","spec":{"scenario":"megafleet-fattree-100000"},"at_ns":1,` +
		`"injections":[{"at_ns":1,"fault":{"kind":"frobnicate"}}]}`))
	f.Add([]byte(`{"name":"x","spec":{"scenario":"rack-blackout","racks":4,"fabric":"fat-tree","sample_ns":5}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec ImageRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return
		}
		if injections, err := rec.DecodeInjections(); err == nil {
			for _, inj := range injections {
				wire, err := cliconfig.EncodeFault(inj.Fault)
				if err != nil {
					t.Fatalf("a decoded fault %#v has no wire form: %v", inj.Fault, err)
				}
				back, err := wire.Fault()
				if err != nil {
					t.Fatalf("the encoded fault %+v does not decode: %v", wire, err)
				}
				if !reflect.DeepEqual(back, inj.Fault) {
					t.Fatalf("the journal round trip changed the fault:\n first  %#v\n second %#v", inj.Fault, back)
				}
			}
		}
		out, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("re-marshal of a decoded record failed: %v", err)
		}
		var again ImageRecord
		if err := json.Unmarshal(out, &again); err != nil {
			t.Fatalf("re-marshalled record %s does not decode: %v", out, err)
		}
		if again.Key() != rec.Key() {
			t.Fatalf("the round trip changed the rebuild key:\n first  %s\n second %s", rec.Key(), again.Key())
		}
	})
}
