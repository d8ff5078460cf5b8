// Package dns implements pimaster's naming service: authoritative zones
// with A, PTR and CNAME records, TTLs, and the PiCloud naming policy
// (nodes as pi-rXX-nYY.picloud..., containers as <name>.<node>...). The
// paper places "customised IP and naming policies through DHCP and DNS
// services running on the pimaster".
package dns

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultZone is the PiCloud's authoritative zone.
const DefaultZone = "picloud.dcs.gla.ac.uk."

// DefaultTTL is applied when a record carries none.
const DefaultTTL = 5 * time.Minute

// RType is a DNS record type.
type RType int

// Supported record types.
const (
	TypeA RType = iota + 1
	TypePTR
	TypeCNAME
)

// String names the type.
func (t RType) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypePTR:
		return "PTR"
	case TypeCNAME:
		return "CNAME"
	default:
		return fmt.Sprintf("TYPE%d", int(t))
	}
}

// Record is one resource record.
type Record struct {
	Name  string // fully qualified, lower case, trailing dot
	Type  RType
	Value string // address text for A, target FQDN for PTR/CNAME
	TTL   time.Duration
}

// Errors.
var (
	ErrNXDomain   = errors.New("dns: no such name")
	ErrNoSuchZone = errors.New("dns: not authoritative for zone")
	ErrZoneExists = errors.New("dns: zone already exists")
	ErrBadName    = errors.New("dns: invalid name")
	ErrBadRecord  = errors.New("dns: invalid record")
	ErrCNAMELoop  = errors.New("dns: CNAME loop")
)

// Canonical normalises a name: lower case with a trailing dot.
func Canonical(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return ""
	}
	if !strings.HasSuffix(name, ".") {
		name += "."
	}
	return name
}

// NodeFQDN returns the canonical node name, e.g. pi-r00-n03.picloud....
func NodeFQDN(rack, idx int) string {
	return fmt.Sprintf("pi-r%02d-n%02d.%s", rack, idx, DefaultZone)
}

// ContainerFQDN names a container under its node, the PiCloud policy:
// <container>.<node-short-name>.<zone>.
func ContainerFQDN(container string, rack, idx int) string {
	return fmt.Sprintf("%s.pi-r%02d-n%02d.%s", strings.ToLower(container), rack, idx, DefaultZone)
}

// ReverseName converts an IPv4 address to its in-addr.arpa name.
func ReverseName(addr netip.Addr) string {
	b := addr.As4()
	buf := make([]byte, 0, len("255.255.255.255.in-addr.arpa."))
	for i := 3; i >= 0; i-- {
		buf = strconv.AppendUint(buf, uint64(b[i]), 10)
		buf = append(buf, '.')
	}
	return string(append(buf, "in-addr.arpa."...))
}

// zone holds the records under one apex.
type zone struct {
	apex    string
	records map[string][]Record
}

// Server is the authoritative DNS service.
type Server struct {
	zones map[string]*zone
}

// NewServer returns a server with no zones.
func NewServer() *Server { return &Server{zones: make(map[string]*zone)} }

// AddZone creates an authoritative zone (e.g. the PiCloud zone and the
// reverse in-addr.arpa zone).
func (s *Server) AddZone(apex string) error {
	apex = Canonical(apex)
	if apex == "" {
		return fmt.Errorf("%w: empty apex", ErrBadName)
	}
	if _, dup := s.zones[apex]; dup {
		return fmt.Errorf("%w: %s", ErrZoneExists, apex)
	}
	s.zones[apex] = &zone{apex: apex, records: make(map[string][]Record)}
	return nil
}

// Zones lists zone apexes, sorted.
func (s *Server) Zones() []string {
	out := make([]string, 0, len(s.zones))
	for apex := range s.zones {
		out = append(out, apex)
	}
	sort.Strings(out)
	return out
}

// inZone reports whether the canonical name lies in the zone with the
// given apex: it is the apex or ends in it on a label boundary, so
// evilpicloud.example. is not inside picloud.example.
func inZone(name, apex string) bool {
	if !strings.HasSuffix(name, apex) {
		return false
	}
	rest := len(name) - len(apex)
	return rest == 0 || apex == "." || name[rest-1] == '.'
}

// zoneFor finds the most specific zone containing name.
func (s *Server) zoneFor(name string) (*zone, error) {
	best := ""
	for apex := range s.zones {
		if inZone(name, apex) && len(apex) > len(best) {
			best = apex
		}
	}
	if best == "" {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchZone, name)
	}
	return s.zones[best], nil
}

// Add inserts a record into its zone.
func (s *Server) Add(r Record) error {
	r.Name = Canonical(r.Name)
	if r.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadName)
	}
	if r.Value == "" {
		return fmt.Errorf("%w: empty value for %s", ErrBadRecord, r.Name)
	}
	if r.Type == TypeA {
		addr, err := netip.ParseAddr(r.Value)
		if err != nil || !addr.Is4() {
			return fmt.Errorf("%w: %q is not an IPv4 address", ErrBadRecord, r.Value)
		}
	}
	if r.Type == TypePTR || r.Type == TypeCNAME {
		r.Value = Canonical(r.Value)
	}
	return s.insert(r)
}

// insert files a validated record with a canonical name into its zone.
func (s *Server) insert(r Record) error {
	if r.TTL <= 0 {
		r.TTL = DefaultTTL
	}
	z, err := s.zoneFor(r.Name)
	if err != nil {
		return err
	}
	// CNAME exclusivity: a name with a CNAME has no other records.
	existing := z.records[r.Name]
	if r.Type == TypeCNAME && len(existing) > 0 {
		return fmt.Errorf("%w: %s already has records", ErrBadRecord, r.Name)
	}
	for _, have := range existing {
		if have.Type == TypeCNAME {
			return fmt.Errorf("%w: %s is a CNAME", ErrBadRecord, r.Name)
		}
		if have.Type == r.Type && have.Value == r.Value {
			return nil // idempotent
		}
	}
	z.records[r.Name] = append(existing, r)
	return nil
}

// RegisterHost adds the A record and matching PTR for a host, the usual
// pimaster registration path. It checks what Add would, but on the
// address itself rather than on its text.
func (s *Server) RegisterHost(fqdn string, addr netip.Addr) error {
	fqdn = Canonical(fqdn)
	if fqdn == "" {
		return fmt.Errorf("%w: empty name", ErrBadName)
	}
	if !addr.Is4() {
		return fmt.Errorf("%w: %q is not an IPv4 address", ErrBadRecord, addr.String())
	}
	if err := s.insert(Record{Name: fqdn, Type: TypeA, Value: addr.String()}); err != nil {
		return err
	}
	return s.insert(Record{Name: ReverseName(addr), Type: TypePTR, Value: fqdn})
}

// RemoveName deletes all records under a name (and returns how many).
func (s *Server) RemoveName(name string) int {
	name = Canonical(name)
	z, err := s.zoneFor(name)
	if err != nil {
		return 0
	}
	n := len(z.records[name])
	delete(z.records, name)
	return n
}

// Resolve answers a query, following CNAME chains for A lookups (up to 8
// links, like real resolvers).
func (s *Server) Resolve(name string, t RType) ([]Record, error) {
	name = Canonical(name)
	for depth := 0; depth < 8; depth++ {
		z, err := s.zoneFor(name)
		if err != nil {
			return nil, err
		}
		rs := z.records[name]
		if len(rs) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNXDomain, name)
		}
		var match []Record
		var cname *Record
		for i := range rs {
			switch {
			case rs[i].Type == t:
				match = append(match, rs[i])
			case rs[i].Type == TypeCNAME:
				cname = &rs[i]
			}
		}
		if len(match) > 0 {
			out := make([]Record, len(match))
			copy(out, match)
			return out, nil
		}
		if cname != nil && t != TypeCNAME {
			name = cname.Value
			continue
		}
		return nil, fmt.Errorf("%w: %s has no %s records", ErrNXDomain, name, t)
	}
	return nil, fmt.Errorf("%w: %s", ErrCNAMELoop, name)
}

// LookupA resolves a name to its IPv4 addresses.
func (s *Server) LookupA(name string) ([]netip.Addr, error) {
	rs, err := s.Resolve(name, TypeA)
	if err != nil {
		return nil, err
	}
	out := make([]netip.Addr, 0, len(rs))
	for _, r := range rs {
		addr, err := netip.ParseAddr(r.Value)
		if err != nil {
			return nil, fmt.Errorf("%w: stored A record %q", ErrBadRecord, r.Value)
		}
		out = append(out, addr)
	}
	return out, nil
}

// LookupPTR resolves an address back to its name.
func (s *Server) LookupPTR(addr netip.Addr) (string, error) {
	rs, err := s.Resolve(ReverseName(addr), TypePTR)
	if err != nil {
		return "", err
	}
	return rs[0].Value, nil
}

// RecordCount returns the total number of records served.
func (s *Server) RecordCount() int {
	total := 0
	for _, z := range s.zones {
		for _, rs := range z.records {
			total += len(rs)
		}
	}
	return total
}

// Dump lists every record, sorted by name then type, for the control
// panel. Records of one name and type keep the order they were added in
// (the order Resolve answers in), zone by zone in apex order, so every
// call lists the same records in the same order.
func (s *Server) Dump() []Record {
	var out []Record
	for _, apex := range s.Zones() {
		for _, rs := range s.zones[apex].records {
			out = append(out, rs...)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Type < out[j].Type
	})
	return out
}
