// Package dns implements pimaster's naming service: authoritative zones
// with A, PTR and CNAME records, TTLs, and the PiCloud naming policy
// (nodes as pi-rXX-nYY.picloud..., containers as <name>.<node>...). The
// paper places "customised IP and naming policies through DHCP and DNS
// services running on the pimaster".
//
// A fleet's hosts are not filed one record at a time. A server answers
// an attached HostTable in place: row i is an A record FQDN(i) → Addr(i)
// and the matching PTR, served from the zones that held those names when
// the table was attached. Only runtime records are stored: VM records
// and anything added after the table. Removing a row's name stores a
// tombstone for that row; a later record under the name is a stored
// one. Every answer, Dump order and RecordCount equals what filing each
// row through RegisterHost in row order would give.
package dns

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/topology"
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
	buf := make([]byte, 0, 16+len(DefaultZone))
	return string(AppendNodeFQDN(buf, rack, idx))
}

// AppendNodeFQDN appends NodeFQDN(rack, idx) to buf: the node's host
// name and the PiCloud zone.
func AppendNodeFQDN(buf []byte, rack, idx int) []byte {
	buf = topology.AppendHostName(buf, rack, idx)
	return append(append(buf, '.'), DefaultZone...)
}

// ContainerFQDN names a container under its node, the PiCloud policy:
// <container>.<node-short-name>.<zone>.
func ContainerFQDN(container string, rack, idx int) string {
	buf := make([]byte, 0, len(container)+17+len(DefaultZone))
	buf = append(buf, strings.ToLower(container)...)
	return string(AppendNodeFQDN(append(buf, '.'), rack, idx))
}

// ReverseName converts an IPv4 address to its in-addr.arpa name.
func ReverseName(addr netip.Addr) string {
	buf := make([]byte, 0, len("255.255.255.255.in-addr.arpa."))
	return string(appendReverseName(buf, addr))
}

// appendReverseName appends ReverseName(addr) to buf.
func appendReverseName(buf []byte, addr netip.Addr) []byte {
	b := addr.As4()
	for i := 3; i >= 0; i-- {
		buf = strconv.AppendUint(buf, uint64(b[i]), 10)
		buf = append(buf, '.')
	}
	return append(buf, "in-addr.arpa."...)
}

// parseReverse is ReverseName's inverse: it accepts exactly the names
// ReverseName returns (four decimal labels without leading zeros).
func parseReverse(name string) (netip.Addr, bool) {
	rest, ok := strings.CutSuffix(name, ".in-addr.arpa.")
	if !ok {
		return netip.Addr{}, false
	}
	var b [4]byte
	for i := 3; i >= 0; i-- {
		label := rest
		if i > 0 {
			var found bool
			label, rest, found = strings.Cut(rest, ".")
			if !found {
				return netip.Addr{}, false
			}
		}
		n, err := strconv.ParseUint(label, 10, 8)
		if err != nil || (len(label) > 1 && label[0] == '0') {
			return netip.Addr{}, false
		}
		b[i] = byte(n)
	}
	return netip.AddrFrom4(b), true
}

// HostTable is a fixed set of hosts a server answers without storing
// them: row i is an A record FQDN → Addr and the matching PTR. FQDNs
// are canonical, and FQDNs and addresses are unique across rows.
type HostTable interface {
	// Hosts returns the number of rows.
	Hosts() int
	// Host returns row i's canonical FQDN and IPv4 address.
	Host(i int) (fqdn string, addr netip.Addr)
	// RowOfName returns the row whose FQDN is name.
	RowOfName(name string) (int, bool)
	// RowOfAddr returns the row whose address is addr.
	RowOfAddr(addr netip.Addr) (int, bool)
}

// Tombstone bits: the row's A record or its PTR was removed.
const (
	goneA uint8 = 1 << iota
	gonePTR
)

// zone holds the stored records under one apex. seq numbers zones in
// the order they were added.
type zone struct {
	apex    string
	seq     int
	records map[string][]Record
}

// Server is the authoritative DNS service.
type Server struct {
	zones map[string]*zone
	// hosts is the attached host table. Its records live in hostZones,
	// the zones that existed when it was attached (zones are never
	// removed, so they are the ones numbered below len(hostZones)), and
	// a more specific zone added later shadows them just as it shadows
	// stored records. gone holds the rows' tombstones.
	hosts     HostTable
	hostZones []*zone
	gone      map[int]uint8
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
	s.zones[apex] = &zone{apex: apex, seq: len(s.zones), records: make(map[string][]Record)}
	return nil
}

// AttachHosts makes the server answer every row of t, as if each row had
// been filed through RegisterHost in row order, without storing a
// record per row. Attach once, after the zones the rows' names lie in
// and before any record is stored; a row whose name lies in no zone at
// that point is not served.
func (s *Server) AttachHosts(t HostTable) error {
	if s.hosts != nil {
		return fmt.Errorf("%w: a host table is already attached", ErrBadRecord)
	}
	for _, z := range s.zones {
		if len(z.records) > 0 {
			return fmt.Errorf("%w: attach hosts before storing records (zone %s holds some)", ErrBadRecord, z.apex)
		}
	}
	s.hosts = t
	for _, z := range s.zones {
		s.hostZones = append(s.hostZones, z)
	}
	return nil
}

// hostRows returns the rows whose live A record (a) and PTR (ptr) are
// filed under name in z, or -1. Rows live in the zones that existed at
// attach time; z answers name, so it is the name's zone among those
// exactly when it is one of them.
func (s *Server) hostRows(z *zone, name string) (a, ptr int) {
	a, ptr = -1, -1
	if s.hosts == nil || z.seq >= len(s.hostZones) {
		return a, ptr
	}
	if i, ok := s.hosts.RowOfName(name); ok && s.gone[i]&goneA == 0 {
		a = i
	}
	if addr, ok := parseReverse(name); ok {
		if i, ok := s.hosts.RowOfAddr(addr); ok && s.gone[i]&gonePTR == 0 {
			ptr = i
		}
	}
	return a, ptr
}

// hostA and hostPTR build row i's records.
func (s *Server) hostA(i int) Record {
	fqdn, addr := s.hosts.Host(i)
	return Record{Name: fqdn, Type: TypeA, Value: addr.String(), TTL: DefaultTTL}
}

func (s *Server) hostPTR(i int) Record {
	fqdn, addr := s.hosts.Host(i)
	return Record{Name: ReverseName(addr), Type: TypePTR, Value: fqdn, TTL: DefaultTTL}
}

// homeZone is the zone name had when s's host table was attached: the
// most specific of hostZones, or nil. Two zones that both hold a name
// differ in length, so the order they are visited in does not matter.
func homeZone[N string | []byte](s *Server, name N) *zone {
	var best *zone
	for _, z := range s.hostZones {
		if inZone(name, z.apex) && (best == nil || len(z.apex) > len(best.apex)) {
			best = z
		}
	}
	return best
}

// hostRecords returns the attached rows' live records, grouped by the
// zone they are filed in, in row order.
func (s *Server) hostRecords() map[*zone][]Record {
	if s.hosts == nil {
		return nil
	}
	out := make(map[*zone][]Record)
	for i, n := 0, s.hosts.Hosts(); i < n; i++ {
		for _, bit := range [...]uint8{goneA, gonePTR} {
			if s.gone[i]&bit != 0 {
				continue
			}
			var r Record
			if bit == goneA {
				r = s.hostA(i)
			} else {
				r = s.hostPTR(i)
			}
			if z := homeZone(s, r.Name); z != nil {
				out[z] = append(out[z], r)
			}
		}
	}
	return out
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
func inZone[N string | []byte](name N, apex string) bool {
	rest := len(name) - len(apex)
	if rest < 0 || string(name[rest:]) != apex {
		return false
	}
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
	// CNAME exclusivity: a name with a CNAME has no other records. An
	// attached row's records come first, and are never CNAMEs.
	existing := z.records[r.Name]
	a, ptr := s.hostRows(z, r.Name)
	if r.Type == TypeCNAME && (len(existing) > 0 || a >= 0 || ptr >= 0) {
		return fmt.Errorf("%w: %s already has records", ErrBadRecord, r.Name)
	}
	if (r.Type == TypeA && a >= 0 && r.Value == s.hostA(a).Value) ||
		(r.Type == TypePTR && ptr >= 0 && r.Value == s.hostPTR(ptr).Value) {
		return nil // idempotent
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
// An attached row's records under it become tombstones.
func (s *Server) RemoveName(name string) int {
	name = Canonical(name)
	z, err := s.zoneFor(name)
	if err != nil {
		return 0
	}
	n := len(z.records[name])
	delete(z.records, name)
	a, ptr := s.hostRows(z, name)
	if a >= 0 {
		s.bury(a, goneA)
		n++
	}
	if ptr >= 0 {
		s.bury(ptr, gonePTR)
		n++
	}
	return n
}

// bury stores a tombstone for one of row i's records.
func (s *Server) bury(i int, bit uint8) {
	if s.gone == nil {
		s.gone = make(map[int]uint8)
	}
	s.gone[i] |= bit
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
		a, ptr := s.hostRows(z, name)
		if len(rs) == 0 && a < 0 && ptr < 0 {
			return nil, fmt.Errorf("%w: %s", ErrNXDomain, name)
		}
		var match []Record
		if t == TypeA && a >= 0 {
			match = append(match, s.hostA(a))
		}
		if t == TypePTR && ptr >= 0 {
			match = append(match, s.hostPTR(ptr))
		}
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
			return match, nil
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

// RecordCount returns the total number of records served, the number
// Dump lists: an attached row's live record counts when its name has a
// home zone. The rows are counted without building their records, each
// PTR name written into one reused buffer.
func (s *Server) RecordCount() int {
	total := 0
	for _, z := range s.zones {
		for _, rs := range z.records {
			total += len(rs)
		}
	}
	if s.hosts == nil {
		return total
	}
	var buf [32]byte
	for i, n := 0, s.hosts.Hosts(); i < n; i++ {
		fqdn, addr := s.hosts.Host(i)
		if s.gone[i]&goneA == 0 && homeZone(s, fqdn) != nil {
			total++
		}
		if s.gone[i]&gonePTR == 0 && homeZone(s, appendReverseName(buf[:0], addr)) != nil {
			total++
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
	hosts := s.hostRecords()
	for _, apex := range s.Zones() {
		z := s.zones[apex]
		// A row's records were filed before any stored record.
		out = append(out, hosts[z]...)
		for _, rs := range z.records {
			out = append(out, rs...)
		}
	}
	slices.SortStableFunc(out, func(a, b Record) int {
		if c := strings.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return int(a.Type - b.Type)
	})
	return out
}
