// Package dhcp implements the address-management service running on
// pimaster: per-rack subnet pools, MAC-keyed leases with expiry and
// renewal, static reservations, and the custom IP policies the paper
// says "a system administrator can implement ... through DHCP and DNS
// services running on the pimaster".
package dhcp

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
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
// using the Pi Foundation OUI.
func NodeMAC(rack, idx int) MAC {
	return MAC(fmt.Sprintf("%s:%02x:%02x:%02x", PiMACPrefix, 0, rack, idx))
}

// ContainerMAC derives a hardware address for a bridged container's veth
// (locally administered prefix).
func ContainerMAC(seq int) MAC {
	return MAC(fmt.Sprintf("02:1c:%02x:%02x:%02x:%02x",
		(seq>>24)&0xff, (seq>>16)&0xff, (seq>>8)&0xff, seq&0xff))
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

// Server is the DHCP service.
type Server struct {
	engine   *sim.Engine
	duration time.Duration
	pools    map[string]*pool
	leases   map[MAC]*Lease
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
	capacity := 0
	for a := first; pfx.Contains(a); a = a.Next() {
		capacity++
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
	if holder, busy := p.inUse[addr]; busy && holder != mac {
		return nil, fmt.Errorf("%w: %s held by %s", ErrReserved, addr, holder)
	}
	if old, have := s.leases[mac]; have {
		if op := s.pools[old.Pool]; op != nil && op.inUse[old.Addr] == mac {
			delete(op.inUse, old.Addr)
		}
	}
	l := &Lease{MAC: mac, Addr: addr, Pool: poolName, IssuedAt: s.engine.Now(), Static: true}
	p.inUse[addr] = mac
	s.leases[mac] = l
	return l, nil
}

// Request implements DISCOVER/REQUEST: it returns the client's existing
// lease renewed, or allocates the next free address in the pool.
func (s *Server) Request(poolName string, mac MAC) (*Lease, error) {
	p, ok := s.pools[poolName]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchPool, poolName)
	}
	now := s.engine.Now()
	if l, have := s.leases[mac]; have && l.Pool == poolName {
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
		if _, busy := p.inUse[addr]; !busy {
			p.next = addr.Next()
			return addr, nil
		}
		addr = addr.Next()
	}
	return netip.Addr{}, fmt.Errorf("%w: %s", ErrPoolExhausted, p.name)
}

// Release returns a client's address to the pool.
func (s *Server) Release(mac MAC) error {
	l, ok := s.leases[mac]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoLease, mac)
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
	l, ok := s.leases[mac]
	return l, ok
}

// Leases returns all leases sorted by address.
func (s *Server) Leases() []*Lease {
	out := make([]*Lease, 0, len(s.leases))
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
		if _, busy := p.inUse[addr]; !busy {
			total++
		}
	}
	return total, nil
}
