package dns

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func newPiZone(t testing.TB) *Server {
	s := NewServer()
	if err := s.AddZone(DefaultZone); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone("in-addr.arpa."); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Web1.PiCloud.dcs.gla.ac.uk", "web1.picloud.dcs.gla.ac.uk."},
		{"already.done.", "already.done."},
		{" spaced ", "spaced."},
		{"", ""},
	}
	for _, c := range cases {
		if got := Canonical(c.in); got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNamingPolicy(t *testing.T) {
	if got := NodeFQDN(2, 13); got != "pi-r02-n13.picloud.dcs.gla.ac.uk." {
		t.Fatalf("NodeFQDN = %s", got)
	}
	if got := ContainerFQDN("Web1", 0, 3); got != "web1.pi-r00-n03.picloud.dcs.gla.ac.uk." {
		t.Fatalf("ContainerFQDN = %s", got)
	}
}

func TestReverseName(t *testing.T) {
	if got := ReverseName(netip.MustParseAddr("10.1.2.3")); got != "3.2.1.10.in-addr.arpa." {
		t.Fatalf("ReverseName = %s", got)
	}
}

func TestRegisterAndLookup(t *testing.T) {
	s := newPiZone(t)
	addr := netip.MustParseAddr("10.0.0.2")
	if err := s.RegisterHost(NodeFQDN(0, 0), addr); err != nil {
		t.Fatal(err)
	}
	got, err := s.LookupA(NodeFQDN(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != addr {
		t.Fatalf("LookupA = %v", got)
	}
	name, err := s.LookupPTR(addr)
	if err != nil {
		t.Fatal(err)
	}
	if name != NodeFQDN(0, 0) {
		t.Fatalf("LookupPTR = %s", name)
	}
}

func TestLookupErrors(t *testing.T) {
	s := newPiZone(t)
	if _, err := s.LookupA("ghost." + DefaultZone); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("missing name = %v", err)
	}
	if _, err := s.LookupA("example.com."); !errors.Is(err, ErrNoSuchZone) {
		t.Fatalf("foreign zone = %v", err)
	}
}

func TestAddValidation(t *testing.T) {
	s := newPiZone(t)
	cases := []struct {
		name string
		r    Record
		want error
	}{
		{"empty name", Record{Type: TypeA, Value: "10.0.0.1"}, ErrBadName},
		{"empty value", Record{Name: "x." + DefaultZone, Type: TypeA}, ErrBadRecord},
		{"bad A value", Record{Name: "x." + DefaultZone, Type: TypeA, Value: "not-an-ip"}, ErrBadRecord},
		{"v6 A value", Record{Name: "x." + DefaultZone, Type: TypeA, Value: "::1"}, ErrBadRecord},
		{"foreign zone", Record{Name: "x.example.com.", Type: TypeA, Value: "10.0.0.1"}, ErrNoSuchZone},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := s.Add(c.r); !errors.Is(err, c.want) {
				t.Fatalf("Add = %v, want %v", err, c.want)
			}
		})
	}
}

func TestAddIdempotent(t *testing.T) {
	s := newPiZone(t)
	r := Record{Name: "x." + DefaultZone, Type: TypeA, Value: "10.0.0.5"}
	if err := s.Add(r); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(r); err != nil {
		t.Fatal(err)
	}
	if s.RecordCount() != 1 {
		t.Fatalf("RecordCount = %d after duplicate add", s.RecordCount())
	}
}

func TestMultipleARecords(t *testing.T) {
	s := newPiZone(t)
	name := "web.vip." + DefaultZone
	for _, ip := range []string{"10.0.0.2", "10.0.1.2"} {
		if err := s.Add(Record{Name: name, Type: TypeA, Value: ip}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.LookupA(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("LookupA = %v, want 2 addresses", got)
	}
}

func TestCNAMEChain(t *testing.T) {
	s := newPiZone(t)
	if err := s.RegisterHost(NodeFQDN(0, 0), netip.MustParseAddr("10.0.0.2")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Record{Name: "db." + DefaultZone, Type: TypeCNAME, Value: NodeFQDN(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Record{Name: "primary-db." + DefaultZone, Type: TypeCNAME, Value: "db." + DefaultZone}); err != nil {
		t.Fatal(err)
	}
	got, err := s.LookupA("primary-db." + DefaultZone)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != netip.MustParseAddr("10.0.0.2") {
		t.Fatalf("chained lookup = %v", got)
	}
}

func TestCNAMELoopDetected(t *testing.T) {
	s := newPiZone(t)
	if err := s.Add(Record{Name: "a." + DefaultZone, Type: TypeCNAME, Value: "b." + DefaultZone}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Record{Name: "b." + DefaultZone, Type: TypeCNAME, Value: "a." + DefaultZone}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LookupA("a." + DefaultZone); !errors.Is(err, ErrCNAMELoop) {
		t.Fatalf("loop = %v", err)
	}
}

func TestCNAMEExclusivity(t *testing.T) {
	s := newPiZone(t)
	name := "x." + DefaultZone
	if err := s.Add(Record{Name: name, Type: TypeA, Value: "10.0.0.9"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Record{Name: name, Type: TypeCNAME, Value: "y." + DefaultZone}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("CNAME over A = %v", err)
	}
	cname := "c." + DefaultZone
	if err := s.Add(Record{Name: cname, Type: TypeCNAME, Value: "y." + DefaultZone}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Record{Name: cname, Type: TypeA, Value: "10.0.0.9"}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("A over CNAME = %v", err)
	}
}

func TestRemoveName(t *testing.T) {
	s := newPiZone(t)
	if err := s.RegisterHost(NodeFQDN(0, 1), netip.MustParseAddr("10.0.0.3")); err != nil {
		t.Fatal(err)
	}
	if got := s.RemoveName(NodeFQDN(0, 1)); got != 1 {
		t.Fatalf("RemoveName = %d", got)
	}
	if _, err := s.LookupA(NodeFQDN(0, 1)); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("after remove = %v", err)
	}
	if got := s.RemoveName("ghost." + DefaultZone); got != 0 {
		t.Fatalf("RemoveName ghost = %d", got)
	}
}

func TestZoneManagement(t *testing.T) {
	s := NewServer()
	if err := s.AddZone(DefaultZone); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(DefaultZone); !errors.Is(err, ErrZoneExists) {
		t.Fatalf("duplicate zone = %v", err)
	}
	if err := s.AddZone(""); !errors.Is(err, ErrBadName) {
		t.Fatalf("empty zone = %v", err)
	}
	// Most-specific zone wins.
	if err := s.AddZone("sub." + DefaultZone); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Record{Name: "x.sub." + DefaultZone, Type: TypeA, Value: "10.0.0.1"}); err != nil {
		t.Fatal(err)
	}
	zs := s.Zones()
	if len(zs) != 2 {
		t.Fatalf("Zones = %v", zs)
	}
}

func TestDumpSorted(t *testing.T) {
	s := newPiZone(t)
	for i := 0; i < 4; i++ {
		addr := netip.MustParseAddr("10.0.0.2").Next()
		_ = addr
		if err := s.RegisterHost(NodeFQDN(0, 3-i), netip.AddrFrom4([4]byte{10, 0, 0, byte(10 + i)})); err != nil {
			t.Fatal(err)
		}
	}
	dump := s.Dump()
	if len(dump) != 8 {
		t.Fatalf("Dump len = %d", len(dump))
	}
	for i := 1; i < len(dump); i++ {
		if dump[i-1].Name > dump[i].Name {
			t.Fatal("Dump not sorted")
		}
	}
}

// TestDumpKeepsInsertionOrder: several A records on one name are listed
// in the order they were added, on every fresh server; an unstable sort
// over records gathered in map order would list them differently from
// server to server. The listing is also the same for a name whose
// records sit in two zones, because a more specific zone was added
// after its first record.
func TestDumpKeepsInsertionOrder(t *testing.T) {
	web := "web." + DefaultZone
	addrs := []string{"10.0.0.9", "10.0.0.3", "10.0.0.7", "10.0.0.5"}
	var first []Record
	for run := 0; run < 200; run++ {
		s := newPiZone(t)
		for i := 0; i < 6; i++ {
			if err := s.RegisterHost(NodeFQDN(1, i), netip.AddrFrom4([4]byte{10, 1, 0, byte(10 + i)})); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range addrs {
			if err := s.Add(Record{Name: web, Type: TypeA, Value: a}); err != nil {
				t.Fatal(err)
			}
		}
		split := "db.lab." + DefaultZone
		if err := s.Add(Record{Name: split, Type: TypeA, Value: "10.2.0.1"}); err != nil {
			t.Fatal(err)
		}
		if err := s.AddZone("lab." + DefaultZone); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(Record{Name: split, Type: TypeA, Value: "10.2.0.2"}); err != nil {
			t.Fatal(err)
		}
		dump := s.Dump()
		var got []string
		for _, r := range dump {
			if r.Name == web {
				got = append(got, r.Value)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(addrs) {
			t.Fatalf("run %d: Dump lists %s's A records as %v, added as %v", run, web, got, addrs)
		}
		if run == 0 {
			first = dump
		} else if fmt.Sprint(dump) != fmt.Sprint(first) {
			t.Fatalf("run %d: Dump differs from the first fresh server's:\n%v\n%v", run, dump, first)
		}
	}
}

// Property: RegisterHost always round-trips name→addr→name for distinct
// hosts.
func TestPropertyRegisterRoundTrip(t *testing.T) {
	f := func(rack, idx uint8, b3, b4 uint8) bool {
		s := newPiZone(t)
		fqdn := NodeFQDN(int(rack%4), int(idx%14))
		addr := netip.AddrFrom4([4]byte{10, 50, b3, b4})
		if err := s.RegisterHost(fqdn, addr); err != nil {
			return false
		}
		got, err := s.LookupA(fqdn)
		if err != nil || len(got) != 1 || got[0] != addr {
			return false
		}
		name, err := s.LookupPTR(addr)
		return err == nil && name == fqdn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRTypeString(t *testing.T) {
	if TypeA.String() != "A" || TypePTR.String() != "PTR" || TypeCNAME.String() != "CNAME" {
		t.Error("record type strings wrong")
	}
	if !strings.HasPrefix(RType(9).String(), "TYPE") {
		t.Error("unknown type format")
	}
}

func BenchmarkLookupA(b *testing.B) {
	s := newPiZone(b)
	for r := 0; r < 4; r++ {
		for i := 0; i < 14; i++ {
			if err := s.RegisterHost(NodeFQDN(r, i), netip.AddrFrom4([4]byte{10, byte(r), 0, byte(2 + i)})); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.LookupA(NodeFQDN(i%4, i%14)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestZoneMatchesOnLabelBoundary: a zone holds its apex and the names
// under it, never a name that merely ends in the same characters.
func TestZoneMatchesOnLabelBoundary(t *testing.T) {
	s := newPiZone(t)
	evil := "evil" + DefaultZone
	if err := s.Add(Record{Name: evil, Type: TypeA, Value: "10.6.6.6"}); !errors.Is(err, ErrNoSuchZone) {
		t.Fatalf("Add(%s) = %v, want ErrNoSuchZone", evil, err)
	}
	if _, err := s.Resolve(evil, TypeA); !errors.Is(err, ErrNoSuchZone) {
		t.Fatalf("Resolve(%s) = %v, want ErrNoSuchZone", evil, err)
	}
	if got := s.RemoveName(evil); got != 0 {
		t.Fatalf("RemoveName(%s) = %d", evil, got)
	}
	// The apex itself and names under it are inside.
	for _, name := range []string{DefaultZone, "web." + DefaultZone, "3.2.1.10.in-addr.arpa."} {
		if err := s.Add(Record{Name: name, Type: TypeCNAME, Value: "target." + DefaultZone}); err != nil {
			t.Fatalf("Add(%s): %v", name, err)
		}
	}
	// A sub-zone on a boundary wins over its parent; a look-alike does not.
	if err := s.AddZone("sub." + DefaultZone); err != nil {
		t.Fatal(err)
	}
	if z, err := s.zoneFor("a.sub." + DefaultZone); err != nil || z.apex != "sub."+DefaultZone {
		t.Fatalf("zoneFor(a.sub...) = %v, %v", z, err)
	}
	if z, err := s.zoneFor("asub." + DefaultZone); err != nil || z.apex != DefaultZone {
		t.Fatalf("zoneFor(asub...) = %v, %v", z, err)
	}
}

// TestRegisterHostValidates: registration checks the name and address
// directly and files the same records Add would.
func TestRegisterHostValidates(t *testing.T) {
	s := newPiZone(t)
	if err := s.RegisterHost("  ", netip.MustParseAddr("10.0.0.2")); !errors.Is(err, ErrBadName) {
		t.Fatalf("empty name = %v", err)
	}
	for _, addr := range []netip.Addr{{}, netip.MustParseAddr("fe80::1"), netip.MustParseAddr("::ffff:10.0.0.2")} {
		if err := s.RegisterHost(NodeFQDN(0, 0), addr); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("RegisterHost(%v) = %v, want ErrBadRecord", addr, err)
		}
	}
	if err := s.RegisterHost("evil"+DefaultZone, netip.MustParseAddr("10.0.0.2")); !errors.Is(err, ErrNoSuchZone) {
		t.Fatalf("out-of-zone host = %v", err)
	}
	if err := s.RegisterHost("Pi-R00-N00.PiCloud.dcs.gla.ac.uk", netip.MustParseAddr("10.0.0.2")); err != nil {
		t.Fatal(err)
	}
	want := newPiZone(t)
	if err := want.Add(Record{Name: NodeFQDN(0, 0), Type: TypeA, Value: "10.0.0.2"}); err != nil {
		t.Fatal(err)
	}
	if err := want.Add(Record{Name: "2.0.0.10.in-addr.arpa.", Type: TypePTR, Value: NodeFQDN(0, 0)}); err != nil {
		t.Fatal(err)
	}
	if got, exp := s.Dump(), want.Dump(); fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Fatalf("RegisterHost filed %v, Add files %v", got, exp)
	}
}
