package dhcp

import (
	"errors"
	"fmt"
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

// TestPoolCapacity: a pool can lease every address of its prefix but
// the network and gateway ones, whatever its size; a prefix with none
// left is refused.
func TestPoolCapacity(t *testing.T) {
	for _, c := range []struct {
		cidr string
		want int
	}{
		{"10.0.0.0/16", 65534}, {"10.0.0.0/20", 4094}, {"10.0.0.0/29", 6},
		{"10.0.0.0/30", 2}, {"10.0.0.0/31", 0}, {"10.0.0.0/32", 0}, {"fd00::/124", 14},
	} {
		_, s := newServer(t, 0)
		err := s.AddPool("p", c.cidr)
		if c.want == 0 {
			if !errors.Is(err, ErrBadPrefix) {
				t.Fatalf("AddPool(%s) = %v, want ErrBadPrefix", c.cidr, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		leased := 0
		for ; ; leased++ {
			if _, err := s.Request("p", ContainerMAC(leased)); err != nil {
				break
			}
		}
		if leased != c.want {
			t.Fatalf("%s leased %d addresses, want %d", c.cidr, leased, c.want)
		}
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

// TestIdentitiesMatchFmt: the strconv encoders print exactly what the
// fmt forms they replaced printed, for every node index below 256 (the
// only ones the old node MAC encoded validly) and racks of three hex
// digits.
func TestIdentitiesMatchFmt(t *testing.T) {
	for rack := 0; rack < 300; rack += 7 {
		for idx := 0; idx < 256; idx++ {
			if got, want := NodeMAC(rack, idx), MAC(fmt.Sprintf("%s:%02x:%02x:%02x", PiMACPrefix, 0, rack, idx)); got != want {
				t.Fatalf("NodeMAC(%d, %d) = %s, want %s", rack, idx, got, want)
			}
		}
	}
	for _, seq := range []int{0, 1, 15, 16, 255, 256, 4095, 65536, 1<<24 + 3, 1<<31 - 1} {
		want := MAC(fmt.Sprintf("02:1c:%02x:%02x:%02x:%02x", (seq>>24)&0xff, (seq>>16)&0xff, (seq>>8)&0xff, seq&0xff))
		if got := ContainerMAC(seq); got != want {
			t.Fatalf("ContainerMAC(%d) = %s, want %s", seq, got, want)
		}
	}
}

// TestNodeMACEncodesHighIndices: an in-rack index of 256 or more puts
// its high byte in the fourth octet, where the old encoding printed a
// three-digit last group (b8:27:eb:00:05:559).
func TestNodeMACEncodesHighIndices(t *testing.T) {
	if got := NodeMAC(5, 0x559); got != "b8:27:eb:05:05:59" {
		t.Fatalf("NodeMAC(5, 0x559) = %s", got)
	}
	if rack, idx, ok := NodeMACPosition("b8:27:eb:05:05:59"); !ok || rack != 5 || idx != 0x559 {
		t.Fatalf("NodeMACPosition = %d %d %v", rack, idx, ok)
	}
	for _, m := range []MAC{"", "b8:27:eb:00:05", "B8:27:EB:00:05:59", "b8:27:eb:00:05:5g", "b8:27:eb-00:05:59", "02:1c:00:00:00:01"} {
		if _, _, ok := NodeMACPosition(m); ok {
			t.Fatalf("NodeMACPosition accepted %q", m)
		}
	}
}

// scanTable is a HostTable over a slice, looked up by scanning.
type scanTable []struct {
	mac  MAC
	addr netip.Addr
	pool string
}

func (r scanTable) Hosts() int { return len(r) }

func (r scanTable) Reservation(i int) (MAC, netip.Addr, string) {
	return r[i].mac, r[i].addr, r[i].pool
}

func (r scanTable) RowOfMAC(mac MAC) (int, bool) {
	for i := range r {
		if r[i].mac == mac {
			return i, true
		}
	}
	return 0, false
}

func (r scanTable) RowOfAddr(addr netip.Addr) (int, bool) {
	for i := range r {
		if r[i].addr == addr {
			return i, true
		}
	}
	return 0, false
}

// TestRequestInAnotherPoolFreesPreviousAddress: a client holds one
// address, so requesting in a second pool gives the first one back,
// whether it was a dynamic lease, a stored static reservation or an
// attached host row (which becomes a tombstone).
func TestRequestInAnotherPoolFreesPreviousAddress(t *testing.T) {
	mac := NodeMAC(1, 0)
	first := netip.MustParseAddr("10.1.0.2")
	for _, how := range []string{"dynamic", "reserved", "attached"} {
		t.Run(how, func(t *testing.T) {
			_, s := newServer(t, 0)
			if err := s.AddPool("a", "10.1.0.0/29"); err != nil {
				t.Fatal(err)
			}
			if err := s.AddPool("b", "10.2.0.0/24"); err != nil {
				t.Fatal(err)
			}
			var err error
			switch how {
			case "dynamic":
				_, err = s.Request("a", mac)
			case "reserved":
				_, err = s.Reserve("a", mac, first)
			default:
				err = s.AttachHosts(scanTable{{mac, first, "a"}})
			}
			if err != nil {
				t.Fatal(err)
			}
			if l, ok := s.LeaseOf(mac); !ok || l.Addr != first {
				t.Fatalf("lease before the move = %+v", l)
			}
			l, err := s.Request("b", mac)
			if err != nil {
				t.Fatal(err)
			}
			if l.Pool != "b" {
				t.Fatalf("lease after the move = %+v", l)
			}
			if free, _ := s.FreeCount("a"); free != 6 {
				t.Fatalf("pool a has %d of 6 addresses free after its client moved to pool b", free)
			}
			if err := s.Release(mac); err != nil {
				t.Fatal(err)
			}
			if free, _ := s.FreeCount("a"); free != 6 {
				t.Fatalf("pool a has %d of 6 addresses free after the client released", free)
			}
			for i := 0; i < 6; i++ {
				if _, err := s.Request("a", ContainerMAC(i)); err != nil {
					t.Fatalf("client %d of 6 refused: %v", i, err)
				}
			}
			if n := len(s.Leases()); n != 6 {
				t.Fatalf("%d leases, want the 6 clients of pool a", n)
			}
		})
	}
}

// TestAttachedRowsServeLikeReservations: an attached row is a static
// lease issued at attach time whose address no other client gets, and
// reserving, releasing or requesting through its MAC moves it as it
// would move a stored reservation.
func TestAttachedRowsServeLikeReservations(t *testing.T) {
	e, s := newServer(t, 0)
	if err := s.AddPool("r", "10.1.0.0/29"); err != nil {
		t.Fatal(err)
	}
	row := scanTable{{NodeMAC(1, 0), netip.MustParseAddr("10.1.0.2"), "r"}}
	if err := e.RunFor(sim.Duration(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachHosts(row); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachHosts(row); err == nil {
		t.Fatal("a second table attached")
	}
	want := Lease{MAC: row[0].mac, Addr: row[0].addr, Pool: "r", IssuedAt: e.Now(), Static: true}
	if l, ok := s.LeaseOf(row[0].mac); !ok || *l != want {
		t.Fatalf("row lease = %+v, want %+v", l, want)
	}
	if l, _ := s.Request("r", ContainerMAC(1)); l.Addr == row[0].addr {
		t.Fatal("a row's address leased dynamically")
	}
	if _, err := s.Reserve("r", ContainerMAC(2), row[0].addr); !errors.Is(err, ErrReserved) {
		t.Fatalf("reserve over a row = %v", err)
	}
	if err := s.Release(row[0].mac); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LeaseOf(row[0].mac); ok {
		t.Fatal("released row still leased")
	}
	if _, err := s.Reserve("r", ContainerMAC(2), row[0].addr); err != nil {
		t.Fatalf("released row's address not reusable: %v", err)
	}
	_, fresh := newServer(t, 0)
	if err := fresh.AttachHosts(row); !errors.Is(err, ErrNoSuchPool) {
		t.Fatalf("attach without the row's pool = %v", err)
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
