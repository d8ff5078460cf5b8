// Package dhcp implements the address-management service running on
// pimaster: per-rack subnet pools, MAC-keyed leases with expiry and
// renewal, static reservations, and the custom IP policies the paper
// says "a system administrator can implement ... through DHCP and DNS
// services running on the pimaster".
//
// A fleet's static reservations are not stored one lease at a time. A
// server answers an attached HostTable in place: row i is a static
// lease of its address in its pool to its MAC, issued when the table
// was attached. Pools treat a row's address as in use until the row is
// released or its MAC takes another lease; either stores a tombstone for
// the row. Every answer equals what reserving each row in row order
// would give, except that a row's lease is built afresh for each
// caller: compare leases by value, not by pointer.
package dhcp

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"time"

	"repro/internal/sim"
)

// DefaultLeaseDuration matches common ISC-dhcpd deployments.
const DefaultLeaseDuration = 12 * time.Hour

// PiMACPrefix is the Raspberry Pi Foundation's OUI.
const PiMACPrefix = "b8:27:eb"

// MAC is a colon-separated hardware address.
type MAC string

// NodeMAC derives the deterministic hardware address of a PiCloud node,
// using the Pi Foundation OUI: b8:27:eb:<idx high byte>:<rack>:<idx low
// byte>, a valid and unique address for every rack and in-rack index
// the 10.<rack>.0.0/20 plan allows.
func NodeMAC(rack, idx int) MAC {
	return MAC(AppendNodeMAC(make([]byte, 0, 17), rack, idx))
}

// AppendNodeMAC appends NodeMAC(rack, idx) to buf.
func AppendNodeMAC(buf []byte, rack, idx int) []byte {
	buf = append(buf, PiMACPrefix...)
	for _, octet := range [...]int{idx >> 8, rack, idx & 0xff} {
		buf = appendHex2(append(buf, ':'), octet)
	}
	return buf
}

// NodeMACPosition inverts NodeMAC: the rack and in-rack index a node
// MAC encodes. It reports false for any other address.
func NodeMACPosition(mac MAC) (rack, idx int, ok bool) {
	if len(mac) != len(PiMACPrefix)+9 || mac[:len(PiMACPrefix)] != PiMACPrefix {
		return 0, 0, false
	}
	var octets [3]int
	for k := range octets {
		g := mac[len(PiMACPrefix)+3*k:]
		hi, lo := hexDigit(g[1]), hexDigit(g[2])
		if g[0] != ':' || hi < 0 || lo < 0 {
			return 0, 0, false
		}
		octets[k] = hi<<4 | lo
	}
	return octets[1], octets[0]<<8 | octets[2], true
}

// hexDigit decodes one lower-case hex digit, or returns -1.
func hexDigit(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}

// ContainerMAC derives a hardware address for a bridged container's veth
// (locally administered prefix).
func ContainerMAC(seq int) MAC {
	buf := make([]byte, 0, 17)
	buf = append(buf, "02:1c"...)
	for shift := 24; shift >= 0; shift -= 8 {
		buf = appendHex2(append(buf, ':'), (seq>>shift)&0xff)
	}
	return MAC(buf)
}

// appendHex2 appends n in lower-case hex with at least two digits, like
// %02x.
func appendHex2(buf []byte, n int) []byte {
	if n >= 0 && n < 16 {
		return append(buf, '0', "0123456789abcdef"[n])
	}
	return strconv.AppendInt(buf, int64(n), 16)
}

// Errors.
var (
	ErrNoSuchPool    = errors.New("dhcp: no such pool")
	ErrPoolExists    = errors.New("dhcp: pool already exists")
	ErrPoolExhausted = errors.New("dhcp: pool exhausted")
	ErrNoLease       = errors.New("dhcp: no lease for client")
	ErrReserved      = errors.New("dhcp: address reserved")
	ErrBadPrefix     = errors.New("dhcp: invalid prefix")
)

// Lease binds a MAC to an address until expiry.
type Lease struct {
	MAC      MAC
	Addr     netip.Addr
	Pool     string
	IssuedAt sim.Time
	Expires  sim.Time
	Static   bool
}

// pool is one subnet's allocation state.
type pool struct {
	name     string
	prefix   netip.Prefix
	first    netip.Addr // first assignable address
	capacity int        // number of assignable addresses
	next     netip.Addr
	inUse    map[netip.Addr]MAC
}

// HostTable is a fixed set of static reservations a server answers
// without storing them: row i reserves Addr in Pool for MAC. MACs and
// addresses are unique across rows.
type HostTable interface {
	// Hosts returns the number of rows.
	Hosts() int
	// Reservation returns row i's MAC, address and pool name.
	Reservation(i int) (mac MAC, addr netip.Addr, pool string)
	// RowOfMAC returns the row whose MAC is mac.
	RowOfMAC(mac MAC) (int, bool)
	// RowOfAddr returns the row whose address is addr.
	RowOfAddr(addr netip.Addr) (int, bool)
}

// Server is the DHCP service.
type Server struct {
	engine   *sim.Engine
	duration time.Duration
	pools    map[string]*pool
	// leases holds the stored leases. An attached row's lease is not in
	// it: hosts answers it, issued at hostsAt, until moved holds the row.
	leases  map[MAC]*Lease
	hosts   HostTable
	hostsAt sim.Time
	moved   map[int]bool
}

// NewServer creates a DHCP server issuing leases of the given duration
// (zero = DefaultLeaseDuration).
func NewServer(engine *sim.Engine, leaseDuration time.Duration) *Server {
	if leaseDuration <= 0 {
		leaseDuration = DefaultLeaseDuration
	}
	return &Server{
		engine:   engine,
		duration: leaseDuration,
		pools:    make(map[string]*pool),
		leases:   make(map[MAC]*Lease),
	}
}

// AddPool registers a subnet, e.g. AddPool("rack0", "10.0.0.0/24"). The
// network address and the first host address (reserved for the gateway)
// are never leased.
func (s *Server) AddPool(name, cidr string) error {
	pfx, err := netip.ParsePrefix(cidr)
	if err != nil {
		return fmt.Errorf("%w: %q: %v", ErrBadPrefix, cidr, err)
	}
	return s.AddPoolPrefix(name, pfx)
}

// AddPoolPrefix is AddPool for a prefix the caller already holds, so it
// is not formatted and parsed back.
func (s *Server) AddPoolPrefix(name string, pfx netip.Prefix) error {
	if _, dup := s.pools[name]; dup {
		return fmt.Errorf("%w: %s", ErrPoolExists, name)
	}
	if !pfx.IsValid() {
		return fmt.Errorf("%w: %v", ErrBadPrefix, pfx)
	}
	given := pfx
	pfx = pfx.Masked()
	first := pfx.Addr().Next().Next() // skip network + gateway
	// Every address after the network and gateway ones is assignable
	// (a pool wider than 2⁶² is held to that many).
	capacity := 0
	if hostBits := pfx.Addr().BitLen() - pfx.Bits(); hostBits > 1 {
		capacity = 1<<min(hostBits, 62) - 2
	}
	if capacity == 0 {
		return fmt.Errorf("%w: %q has no assignable addresses", ErrBadPrefix, given.String())
	}
	s.pools[name] = &pool{
		name:     name,
		prefix:   pfx,
		first:    first,
		capacity: capacity,
		next:     first,
		inUse:    make(map[netip.Addr]MAC),
	}
	return nil
}

// AttachHosts makes the server answer every row of t as a static lease
// issued now, as if each row had been reserved in row order, without
// storing a lease per row. Attach once, after every row's pool exists
// and before any lease.
func (s *Server) AttachHosts(t HostTable) error {
	if s.hosts != nil {
		return fmt.Errorf("%w: a host table is already attached", ErrReserved)
	}
	if len(s.leases) > 0 {
		return fmt.Errorf("%w: attach hosts before any lease", ErrReserved)
	}
	var p *pool
	for i, n := 0, t.Hosts(); i < n; i++ {
		_, addr, name := t.Reservation(i)
		if p == nil || p.name != name {
			if p = s.pools[name]; p == nil {
				return fmt.Errorf("%w: %s", ErrNoSuchPool, name)
			}
		}
		if !p.prefix.Contains(addr) || addr.Less(p.first) {
			return fmt.Errorf("%w: row %d's %s is not assignable in %s", ErrBadPrefix, i, addr, p.prefix)
		}
	}
	s.hosts, s.hostsAt = t, s.engine.Now()
	return nil
}

// rowLease builds row i's static lease.
func (s *Server) rowLease(i int) Lease {
	mac, addr, pool := s.hosts.Reservation(i)
	return Lease{MAC: mac, Addr: addr, Pool: pool, IssuedAt: s.hostsAt, Static: true}
}

// leaseOf returns mac's lease, stored or an attached row's unless the
// row was moved, and that row (or -1).
func (s *Server) leaseOf(mac MAC) (*Lease, int) {
	if l, ok := s.leases[mac]; ok {
		return l, -1
	}
	if s.hosts != nil {
		if i, ok := s.hosts.RowOfMAC(mac); ok && !s.moved[i] {
			l := s.rowLease(i)
			return &l, i
		}
	}
	return nil, -1
}

// holder returns the MAC holding addr in p: a stored lease's, or a live
// row's whose reservation lies in p.
func (s *Server) holder(p *pool, addr netip.Addr) (MAC, bool) {
	if mac, ok := p.inUse[addr]; ok {
		return mac, true
	}
	if s.hosts == nil {
		return "", false
	}
	i, ok := s.hosts.RowOfAddr(addr)
	if !ok || s.moved[i] {
		return "", false
	}
	mac, _, pool := s.hosts.Reservation(i)
	if pool != p.name {
		return "", false
	}
	return mac, true
}

// free returns the address old holds to its pool, if its MAC still holds
// it; row is old's attached row, or -1.
func (s *Server) free(old *Lease, row int) {
	if row >= 0 {
		if s.moved == nil {
			s.moved = make(map[int]bool)
		}
		s.moved[row] = true
		return
	}
	if op := s.pools[old.Pool]; op != nil && op.inUse[old.Addr] == old.MAC {
		delete(op.inUse, old.Addr)
	}
}

// Pool reports whether a pool exists, returning its prefix.
func (s *Server) Pool(name string) (netip.Prefix, bool) {
	p, ok := s.pools[name]
	if !ok {
		return netip.Prefix{}, false
	}
	return p.prefix, true
}

// Pools lists pool names, sorted.
func (s *Server) Pools() []string {
	out := make([]string, 0, len(s.pools))
	for n := range s.pools {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GatewayAddr returns the conventional gateway (first host) address of a
// pool.
func (s *Server) GatewayAddr(poolName string) (netip.Addr, error) {
	p, ok := s.pools[poolName]
	if !ok {
		return netip.Addr{}, fmt.Errorf("%w: %s", ErrNoSuchPool, poolName)
	}
	return p.prefix.Addr().Next(), nil
}

// Reserve pins a static address for a MAC (e.g. pimaster itself). The
// address must lie in the pool, at or above its first assignable
// address (the network and gateway addresses are never leased), and be
// free. A MAC holds one address: re-reserving it frees the previous one.
func (s *Server) Reserve(poolName string, mac MAC, addr netip.Addr) (*Lease, error) {
	p, ok := s.pools[poolName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchPool, poolName)
	}
	if !p.prefix.Contains(addr) {
		return nil, fmt.Errorf("%w: %s outside %s", ErrBadPrefix, addr, p.prefix)
	}
	if addr.Less(p.first) {
		return nil, fmt.Errorf("%w: %s is below the first assignable address %s of %s", ErrReserved, addr, p.first, p.prefix)
	}
	if holder, busy := s.holder(p, addr); busy && holder != mac {
		return nil, fmt.Errorf("%w: %s held by %s", ErrReserved, addr, holder)
	}
	if old, row := s.leaseOf(mac); old != nil {
		s.free(old, row)
	}
	l := &Lease{MAC: mac, Addr: addr, Pool: poolName, IssuedAt: s.engine.Now(), Static: true}
	p.inUse[addr] = mac
	s.leases[mac] = l
	return l, nil
}

// Request implements DISCOVER/REQUEST: it returns the client's existing
// lease renewed, or allocates the next free address in the pool. A
// client that moves to another pool gives its previous address back.
func (s *Server) Request(poolName string, mac MAC) (*Lease, error) {
	p, ok := s.pools[poolName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchPool, poolName)
	}
	now := s.engine.Now()
	old, row := s.leaseOf(mac)
	if l := old; l != nil && l.Pool == poolName {
		if l.Static || l.Expires > now {
			// Renewal.
			if !l.Static {
				l.Expires = now.Add(s.duration)
			}
			return l, nil
		}
		// Expired but address still free for this client: re-issue.
		if p.inUse[l.Addr] == mac {
			l.IssuedAt = now
			l.Expires = now.Add(s.duration)
			return l, nil
		}
	}
	addr, err := s.allocate(p)
	if err != nil {
		return nil, err
	}
	if old != nil {
		s.free(old, row)
	}
	l := &Lease{
		MAC:      mac,
		Addr:     addr,
		Pool:     poolName,
		IssuedAt: now,
		Expires:  now.Add(s.duration),
	}
	p.inUse[addr] = mac
	s.leases[mac] = l
	return l, nil
}

// allocate scans at most one full cycle from the pool cursor for a free
// address.
func (s *Server) allocate(p *pool) (netip.Addr, error) {
	addr := p.next
	for tried := 0; tried < p.capacity; tried++ {
		if !p.prefix.Contains(addr) {
			addr = p.first // wrap
		}
		if _, busy := s.holder(p, addr); !busy {
			p.next = addr.Next()
			return addr, nil
		}
		addr = addr.Next()
	}
	return netip.Addr{}, fmt.Errorf("%w: %s", ErrPoolExhausted, p.name)
}

// Release returns a client's address to the pool.
func (s *Server) Release(mac MAC) error {
	l, row := s.leaseOf(mac)
	if l == nil {
		return fmt.Errorf("%w: %s", ErrNoLease, mac)
	}
	if row >= 0 {
		s.free(l, row)
		return nil
	}
	if p, ok := s.pools[l.Pool]; ok {
		delete(p.inUse, l.Addr)
	}
	delete(s.leases, mac)
	return nil
}

// LeaseOf returns the current lease for a client, if any (expired leases
// are reported until swept or re-requested).
func (s *Server) LeaseOf(mac MAC) (*Lease, bool) {
	l, _ := s.leaseOf(mac)
	return l, l != nil
}

// Leases returns all leases sorted by address.
func (s *Server) Leases() []*Lease {
	var rows []Lease
	if s.hosts != nil {
		rows = make([]Lease, 0, s.hosts.Hosts()-len(s.moved))
		for i, n := 0, s.hosts.Hosts(); i < n; i++ {
			if !s.moved[i] {
				rows = append(rows, s.rowLease(i))
			}
		}
	}
	out := make([]*Lease, 0, len(rows)+len(s.leases))
	for i := range rows {
		out = append(out, &rows[i])
	}
	for _, l := range s.leases {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr.Less(out[j].Addr) })
	return out
}

// SweepExpired reclaims addresses of leases that have expired by now.
// It returns the number reclaimed.
func (s *Server) SweepExpired() int {
	now := s.engine.Now()
	n := 0
	for mac, l := range s.leases {
		if l.Static || l.Expires > now {
			continue
		}
		if p, ok := s.pools[l.Pool]; ok {
			delete(p.inUse, l.Addr)
		}
		delete(s.leases, mac)
		n++
	}
	return n
}

// FreeCount returns how many addresses remain assignable in a pool.
func (s *Server) FreeCount(poolName string) (int, error) {
	p, ok := s.pools[poolName]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNoSuchPool, poolName)
	}
	total := 0
	for addr := p.prefix.Addr().Next().Next(); p.prefix.Contains(addr); addr = addr.Next() {
		if _, busy := s.holder(p, addr); !busy {
			total++
		}
	}
	return total, nil
}
