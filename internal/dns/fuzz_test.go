package dns

import (
	"net/netip"
	"testing"
)

// FuzzDNSRecords sends arbitrary names and values through Add, Resolve
// and RemoveName on a server holding the PiCloud zone, one sub-zone and
// the reverse zone. Nothing may panic, and a name may be filed or
// answered only when it lies inside a configured zone on a label
// boundary.
//
//	go test -run '^$' -fuzz FuzzDNSRecords -fuzztime 30s ./internal/dns
func FuzzDNSRecords(f *testing.F) {
	f.Add("pi-r00-n03."+DefaultZone, "10.0.0.5", uint8(TypeA), "alias."+DefaultZone)
	f.Add("evil"+DefaultZone, "10.6.6.6", uint8(TypeA), "evil"+DefaultZone)
	f.Add("5.0.0.10.in-addr.arpa.", "pi-r00-n03."+DefaultZone, uint8(TypePTR), "5.0.0.10.in-addr.arpa")
	f.Add("Web.PiCloud.dcs.gla.ac.uk", "web."+DefaultZone, uint8(TypeCNAME), "web.picloud.dcs.gla.ac.uk.")
	f.Add("x.sub."+DefaultZone, "", uint8(0), ".")
	f.Fuzz(func(t *testing.T, name, value string, typ uint8, query string) {
		s := NewServer()
		for _, apex := range []string{DefaultZone, "sub." + DefaultZone, "in-addr.arpa."} {
			if err := s.AddZone(apex); err != nil {
				t.Fatal(err)
			}
		}
		inside := func(n string) bool {
			for _, apex := range s.Zones() {
				if n == apex || (len(n) > len(apex) && n[len(n)-len(apex)-1:] == "."+apex) {
					return true
				}
			}
			return false
		}
		rt := RType(typ % 4) // 0 is no known type
		err := s.Add(Record{Name: name, Type: rt, Value: value})
		if err == nil && !inside(Canonical(name)) {
			t.Fatalf("Add filed %q outside every zone", name)
		}
		if err == nil && rt == TypeA {
			if addr, perr := netip.ParseAddr(value); perr != nil || !addr.Is4() {
				t.Fatalf("Add accepted A record value %q", value)
			}
		}
		// A self-referencing CNAME chain must end in ErrCNAMELoop, not
		// loop forever.
		_ = s.Add(Record{Name: value, Type: TypeCNAME, Value: name})
		for _, q := range []string{name, value, query} {
			for _, qt := range []RType{TypeA, TypePTR, TypeCNAME} {
				rs, err := s.Resolve(q, qt)
				if err != nil {
					if len(rs) != 0 {
						t.Fatalf("Resolve(%q) returned records with error %v", q, err)
					}
					continue
				}
				if !inside(Canonical(q)) {
					t.Fatalf("Resolve answered %q, outside every zone", q)
				}
				for _, r := range rs {
					if !inside(r.Name) || r.Type != qt {
						t.Fatalf("Resolve(%q, %v) answered %+v", q, qt, r)
					}
				}
			}
			if _, err := s.LookupA(q); err == nil && !inside(Canonical(q)) {
				t.Fatalf("LookupA answered %q, outside every zone", q)
			}
			if got := s.RemoveName(q); got > 0 && !inside(Canonical(q)) {
				t.Fatalf("RemoveName removed %d records for %q, outside every zone", got, q)
			}
		}
	})
}
