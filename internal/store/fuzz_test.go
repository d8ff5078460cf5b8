package store

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
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
