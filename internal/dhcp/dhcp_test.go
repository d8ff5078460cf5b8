package dhcp

import (
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func newServer(t testing.TB, d time.Duration) (*sim.Engine, *Server) {
	if h, ok := t.(interface{ Helper() }); ok {
		h.Helper()
	}
	e := sim.NewEngine(1)
	return e, NewServer(e, d)
}

func TestAddPoolAndGateway(t *testing.T) {
	_, s := newServer(t, 0)
	if err := s.AddPool("rack0", "10.0.0.0/24"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPool("rack0", "10.0.1.0/24"); !errors.Is(err, ErrPoolExists) {
		t.Fatalf("duplicate pool = %v", err)
	}
	if err := s.AddPool("bad", "not-a-cidr"); !errors.Is(err, ErrBadPrefix) {
		t.Fatalf("bad cidr = %v", err)
	}
	gw, err := s.GatewayAddr("rack0")
	if err != nil {
		t.Fatal(err)
	}
	if gw != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("gateway = %s", gw)
	}
	if _, err := s.GatewayAddr("nope"); !errors.Is(err, ErrNoSuchPool) {
		t.Fatalf("gateway of missing pool = %v", err)
	}
	pools := s.Pools()
	if len(pools) != 1 || pools[0] != "rack0" {
		t.Fatalf("Pools = %v", pools)
	}
}

func TestRequestAllocatesSequentially(t *testing.T) {
	_, s := newServer(t, 0)
	if err := s.AddPool("r", "10.1.0.0/24"); err != nil {
		t.Fatal(err)
	}
	l1, err := s.Request("r", NodeMAC(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr != netip.MustParseAddr("10.1.0.2") {
		t.Fatalf("first lease = %s, want 10.1.0.2 (skip net+gw)", l1.Addr)
	}
	l2, err := s.Request("r", NodeMAC(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if l2.Addr != netip.MustParseAddr("10.1.0.3") {
		t.Fatalf("second lease = %s", l2.Addr)
	}
}

func TestRenewalKeepsAddress(t *testing.T) {
	e, s := newServer(t, time.Hour)
	if err := s.AddPool("r", "10.1.0.0/24"); err != nil {
		t.Fatal(err)
	}
	mac := NodeMAC(0, 0)
	l1, err := s.Request("r", mac)
	if err != nil {
		t.Fatal(err)
	}
	first := l1.Addr
	if err := e.RunFor(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	l2, err := s.Request("r", mac)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Addr != first {
		t.Fatalf("renewal moved address %s -> %s", first, l2.Addr)
	}
	if l2.Expires.Sub(e.Now()) != time.Hour {
		t.Fatalf("renewal expiry = %v", l2.Expires)
	}
}

func TestReRequestAfterExpiryKeepsAddressIfFree(t *testing.T) {
	e, s := newServer(t, time.Hour)
	if err := s.AddPool("r", "10.1.0.0/24"); err != nil {
		t.Fatal(err)
	}
	mac := NodeMAC(0, 0)
	l1, err := s.Request("r", mac)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	l2, err := s.Request("r", mac)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Addr != l1.Addr {
		t.Fatalf("expired re-request moved %s -> %s", l1.Addr, l2.Addr)
	}
}

func TestPoolExhaustion(t *testing.T) {
	_, s := newServer(t, 0)
	// /29: 8 addrs, minus network+gateway = 6 assignable.
	if err := s.AddPool("tiny", "10.9.0.0/29"); err != nil {
		t.Fatal(err)
	}
	free, err := s.FreeCount("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if free != 6 {
		t.Fatalf("FreeCount = %d, want 6", free)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Request("tiny", ContainerMAC(i)); err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
	}
	if _, err := s.Request("tiny", ContainerMAC(99)); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("exhausted pool = %v", err)
	}
	// Release one → next request succeeds.
	if err := s.Release(ContainerMAC(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Request("tiny", ContainerMAC(99)); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestReleaseUnknown(t *testing.T) {
	_, s := newServer(t, 0)
	if err := s.Release("de:ad:be:ef:00:00"); !errors.Is(err, ErrNoLease) {
		t.Fatalf("release unknown = %v", err)
	}
}

func TestReservation(t *testing.T) {
	_, s := newServer(t, 0)
	if err := s.AddPool("r", "10.1.0.0/24"); err != nil {
		t.Fatal(err)
	}
	pimaster := MAC("b8:27:eb:ff:ff:01")
	addr := netip.MustParseAddr("10.1.0.250")
	l, err := s.Reserve("r", pimaster, addr)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Static || l.Addr != addr {
		t.Fatalf("reservation = %+v", l)
	}
	// The static address is never handed to dynamic clients.
	for i := 0; i < 252; i++ {
		got, err := s.Request("r", ContainerMAC(i))
		if err != nil {
			break
		}
		if got.Addr == addr {
			t.Fatal("reserved address leased dynamically")
		}
	}
	// Double reservation fails.
	if _, err := s.Reserve("r", "aa:aa:aa:aa:aa:aa", addr); !errors.Is(err, ErrReserved) {
		t.Fatalf("double reserve = %v", err)
	}
	// Out-of-subnet reservation fails.
	if _, err := s.Reserve("r", "bb:bb:bb:bb:bb:bb", netip.MustParseAddr("192.168.0.1")); !errors.Is(err, ErrBadPrefix) {
		t.Fatalf("foreign reserve = %v", err)
	}
	if _, err := s.Reserve("nope", pimaster, addr); !errors.Is(err, ErrNoSuchPool) {
		t.Fatalf("reserve in missing pool = %v", err)
	}
}

// TestReserveRefusesNetworkAndGateway: the addresses AddPool never
// leases cannot be pinned either.
func TestReserveRefusesNetworkAndGateway(t *testing.T) {
	_, s := newServer(t, 0)
	if err := s.AddPool("r", "10.1.0.0/24"); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"10.1.0.0", "10.1.0.1"} {
		if _, err := s.Reserve("r", "aa:aa:aa:aa:aa:aa", netip.MustParseAddr(a)); !errors.Is(err, ErrReserved) {
			t.Fatalf("Reserve(%s) = %v, want ErrReserved", a, err)
		}
	}
	if _, ok := s.LeaseOf("aa:aa:aa:aa:aa:aa"); ok {
		t.Fatal("refused reservation left a lease")
	}
	if free, _ := s.FreeCount("r"); free != 254 {
		t.Fatalf("free = %d after refused reservations, want 254", free)
	}
	if _, err := s.Reserve("r", "aa:aa:aa:aa:aa:aa", netip.MustParseAddr("10.1.0.2")); err != nil {
		t.Fatalf("first assignable address refused: %v", err)
	}
}

// TestReReserveFreesPreviousAddress: a MAC holds one address, so moving
// its reservation returns the old address to the pool, including across
// pools; re-reserving the same address is a no-op.
func TestReReserveFreesPreviousAddress(t *testing.T) {
	_, s := newServer(t, 0)
	for _, p := range [][2]string{{"r", "10.1.0.0/24"}, {"q", "10.2.0.0/24"}} {
		if err := s.AddPool(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
	mac := MAC("b8:27:eb:00:00:01")
	moves := []struct{ pool, addr string }{
		{"r", "10.1.0.10"}, {"r", "10.1.0.20"}, {"r", "10.1.0.20"}, {"q", "10.2.0.30"},
	}
	for _, m := range moves {
		l, err := s.Reserve(m.pool, mac, netip.MustParseAddr(m.addr))
		if err != nil {
			t.Fatalf("reserve %s in %s: %v", m.addr, m.pool, err)
		}
		if got, _ := s.LeaseOf(mac); got != l || got.Addr.String() != m.addr {
			t.Fatalf("lease after reserving %s = %+v", m.addr, got)
		}
	}
	if free, _ := s.FreeCount("r"); free != 254 {
		t.Fatalf("pool r has %d free addresses after the MAC moved out, want 254", free)
	}
	if free, _ := s.FreeCount("q"); free != 253 {
		t.Fatalf("pool q has %d free addresses, want 253", free)
	}
	// The old addresses are really free: another client can pin them.
	for _, a := range []string{"10.1.0.10", "10.1.0.20"} {
		if _, err := s.Reserve("r", "cc:cc:cc:cc:cc:cc", netip.MustParseAddr(a)); err != nil {
			t.Fatalf("freed address %s not reusable: %v", a, err)
		}
	}
	// A failed move keeps the existing reservation.
	if _, err := s.Reserve("r", mac, netip.MustParseAddr("10.1.0.20")); !errors.Is(err, ErrReserved) {
		t.Fatalf("move onto a held address = %v", err)
	}
	if l, _ := s.LeaseOf(mac); l.Addr.String() != "10.2.0.30" {
		t.Fatalf("failed move changed the lease to %v", l.Addr)
	}
	if free, _ := s.FreeCount("q"); free != 253 {
		t.Fatalf("failed move freed the held address: pool q has %d free", free)
	}
}

func TestSweepExpired(t *testing.T) {
	e, s := newServer(t, time.Hour)
	if err := s.AddPool("r", "10.1.0.0/24"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Request("r", ContainerMAC(1)); err != nil {
		t.Fatal(err)
	}
	static := netip.MustParseAddr("10.1.0.200")
	if _, err := s.Reserve("r", ContainerMAC(2), static); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := s.SweepExpired(); got != 1 {
		t.Fatalf("swept %d, want 1 (static lease must survive)", got)
	}
	if _, ok := s.LeaseOf(ContainerMAC(2)); !ok {
		t.Fatal("static lease swept")
	}
	if _, ok := s.LeaseOf(ContainerMAC(1)); ok {
		t.Fatal("expired lease survived sweep")
	}
}

func TestLeasesSorted(t *testing.T) {
	_, s := newServer(t, 0)
	if err := s.AddPool("r", "10.1.0.0/24"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Request("r", ContainerMAC(i)); err != nil {
			t.Fatal(err)
		}
	}
	leases := s.Leases()
	for i := 1; i < len(leases); i++ {
		if !leases[i-1].Addr.Less(leases[i].Addr) {
			t.Fatal("leases not sorted by address")
		}
	}
}

func TestNodeMACUsesPiOUI(t *testing.T) {
	m := NodeMAC(2, 13)
	if m != "b8:27:eb:00:02:0d" {
		t.Fatalf("NodeMAC = %s", m)
	}
}

func TestRequestUnknownPool(t *testing.T) {
	_, s := newServer(t, 0)
	if _, err := s.Request("nope", "aa:bb:cc:dd:ee:ff"); !errors.Is(err, ErrNoSuchPool) {
		t.Fatalf("err = %v", err)
	}
}

// Property: no two live leases ever share an address.
func TestPropertyLeaseUniqueness(t *testing.T) {
	f := func(ops []uint8) bool {
		_, s := newServer(t, 0)
		if err := s.AddPool("r", "10.2.0.0/26"); err != nil {
			return false
		}
		for i, op := range ops {
			mac := ContainerMAC(int(op) % 20)
			if i%3 == 2 {
				_ = s.Release(mac)
			} else {
				_, _ = s.Request("r", mac)
			}
		}
		seen := make(map[netip.Addr]MAC)
		for _, l := range s.Leases() {
			if prev, dup := seen[l.Addr]; dup && prev != l.MAC {
				return false
			}
			seen[l.Addr] = l.MAC
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRequestRenew(b *testing.B) {
	_, s := newServer(b, 0)
	if err := s.AddPool("r", "10.0.0.0/16"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := s.Request("r", ContainerMAC(i%500)); err != nil {
			b.Fatal(err)
		}
	}
}
