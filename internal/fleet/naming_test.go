package fleet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dhcp"
	"repro/internal/dns"
	"repro/internal/netsim"
	"repro/internal/pimaster"
	"repro/internal/sim"
	"repro/internal/topology"
)

// testPlan wires a shape on a throwaway network and derives its plan.
func testPlan(t testing.TB, cfg Config) *Plan {
	t.Helper()
	cfg.FillDefaults()
	topo, w, err := buildTopology(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := topology.HostIndices(topo, netsim.Wire(sim.NewEngine(0), w))
	if err != nil {
		t.Fatal(err)
	}
	p, err := planFor(topo, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// namingStack is pimaster's naming services over one plan: the PiCloud
// zone and the reverse zone, one pool per rack, and a pool of six
// addresses that runs out. The rack pools are /23s rather than
// pimaster's /20s (room for 510 hosts), so that free counts scan fewer
// addresses.
type namingStack struct {
	dns  *dns.Server
	dhcp *dhcp.Server
}

// newNamingStack builds a stack whose rows are either attached as a
// table or each filed through Reserve and RegisterHost, in row order.
func newNamingStack(t testing.TB, engine *sim.Engine, p *Plan, attach bool) *namingStack {
	t.Helper()
	s := &namingStack{dns: dns.NewServer(), dhcp: dhcp.NewServer(engine, 0)}
	for _, apex := range []string{dns.DefaultZone, "in-addr.arpa."} {
		if err := s.dns.AddZone(apex); err != nil {
			t.Fatal(err)
		}
	}
	for r := range p.racks {
		subnet := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(r), 0, 0}), 23)
		if err := s.dhcp.AddPoolPrefix(pimaster.RackPool(r), subnet); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.dhcp.AddPool("tiny", "192.168.0.0/29"); err != nil {
		t.Fatal(err)
	}
	if attach {
		if err := s.dhcp.AttachHosts(p); err != nil {
			t.Fatal(err)
		}
		if err := s.dns.AttachHosts(p); err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i := 0; i < p.Hosts(); i++ {
		mac, addr, pool := p.Reservation(i)
		if _, err := s.dhcp.Reserve(pool, mac, addr); err != nil {
			t.Fatal(err)
		}
		fqdn, _ := p.Host(i)
		if err := s.dns.RegisterHost(fqdn, addr); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// namingOps decodes a byte stream into naming operations. Every
// argument is drawn from values that hit the plan: its names, reverse
// names, MACs, addresses and pools, next to VM-like values and
// malformed ones.
type namingOps struct {
	p    *Plan
	data []byte
}

func (o *namingOps) byte() int {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return int(b)
}

func (o *namingOps) row() int { return (o.byte()<<8 | o.byte()) % o.p.Hosts() }

func (o *namingOps) name() string {
	i := o.row()
	fqdn, addr := o.p.Host(i)
	switch o.byte() % 7 {
	case 0, 1:
		return fqdn
	case 2:
		return dns.ReverseName(addr)
	case 3:
		return "vm" + fmt.Sprint(i%5) + "." + fqdn
	case 4:
		return dns.ReverseName(netip.AddrFrom4([4]byte{10, byte(i % 3), 0, byte(200 + i%9)}))
	case 5:
		return fmt.Sprintf("Alias%d.PiCloud.dcs.gla.ac.uk", i%4) // not canonical yet
	default:
		return "x.example.org."
	}
}

func (o *namingOps) zone() string {
	i := o.row()
	fqdn, addr := o.p.Host(i)
	b := addr.As4()
	return []string{
		fqdn,
		dns.DefaultZone,
		"dcs.gla.ac.uk.",
		fmt.Sprintf("%d.%d.in-addr.arpa.", b[1], b[0]),
		"10.in-addr.arpa.",
		dns.ReverseName(addr),
		"example.org.",
	}[o.byte()%7]
}

func (o *namingOps) addr() netip.Addr {
	i := o.row()
	_, addr := o.p.Host(i)
	switch o.byte() % 5 {
	case 0, 1:
		return addr
	case 2:
		return netip.AddrFrom4([4]byte{10, byte(i % 3), byte(o.byte() % 3), byte(o.byte())})
	case 3:
		return netip.AddrFrom4([4]byte{10, 0, 0, byte(o.byte() % 4)}) // network, gateway
	default:
		return netip.AddrFrom4([4]byte{192, 168, 0, byte(i)})
	}
}

func (o *namingOps) value(t dns.RType) string {
	switch t {
	case dns.TypeA:
		if o.byte()%8 == 0 {
			return "not-an-ip"
		}
		return o.addr().String()
	default:
		return o.name()
	}
}

func (o *namingOps) mac() dhcp.MAC {
	i := o.row()
	mac, _, _ := o.p.Reservation(i)
	switch o.byte() % 4 {
	case 0, 1:
		return mac
	case 2:
		return dhcp.ContainerMAC(i % 3)
	default:
		return dhcp.MAC("B8:27:EB" + string(mac[8:])) // upper case: another client
	}
}

// pool picks one of three rack pools (the shapes with two racks have no
// third) or the small pool.
func (o *namingOps) pool() string {
	if k := o.byte() % 4; k < 3 {
		return pimaster.RackPool(k)
	}
	return "tiny"
}

// Operation codes: step runs every code but opAdvance, which advances
// the engine both stacks share. opCodes maps a decoded byte to a code;
// the listing operations (Dump, FreeCount) and the sweep are drawn half
// as often as the others.
const opAdvance = 14

var opCodes = func() []int {
	var codes []int
	for op := 0; op <= opAdvance; op++ {
		codes = append(codes, op)
		if op != 7 && op != 12 && op != 13 {
			codes = append(codes, op)
		}
	}
	return codes
}()

// result is what one operation returned.
type result struct {
	v   any
	err string
}

func opResult(v any, err error) result {
	if err != nil {
		return result{v, err.Error()}
	}
	return result{v, ""}
}

func leaseResult(l *dhcp.Lease, err error) result {
	if l == nil {
		return opResult(nil, err)
	}
	return opResult(*l, err)
}

// step decodes op's arguments, runs it on a stack and returns what it
// returned. It reads the same bytes whichever stack it runs on, so call
// it on a copy of the decoder for each stack.
func (o *namingOps) step(op int, s *namingStack) result {
	switch op {
	case 0:
		return opResult(nil, s.dns.AddZone(o.zone()))
	case 1:
		typ := dns.RType(o.byte() % 4)
		return opResult(nil, s.dns.Add(dns.Record{Name: o.name(), Type: typ, Value: o.value(typ), TTL: time.Duration(o.byte()%3) * time.Minute}))
	case 2:
		return opResult(nil, s.dns.RegisterHost(o.name(), o.addr()))
	case 3:
		return opResult(s.dns.RemoveName(o.name()), nil)
	case 4:
		return opResult(s.dns.Resolve(o.name(), dns.RType(1+o.byte()%3)))
	case 5:
		return opResult(s.dns.LookupA(o.name()))
	case 6:
		return opResult(s.dns.LookupPTR(o.addr()))
	case 7:
		return opResult(s.dns.Dump(), nil)
	case 8:
		return leaseResult(s.dhcp.Reserve(o.pool(), o.mac(), o.addr()))
	case 9:
		return leaseResult(s.dhcp.Request(o.pool(), o.mac()))
	case 10:
		return opResult(nil, s.dhcp.Release(o.mac()))
	case 11:
		l, ok := s.dhcp.LeaseOf(o.mac())
		if !ok {
			return opResult(false, nil)
		}
		return opResult(*l, nil)
	case 12:
		return opResult(s.dhcp.FreeCount(o.pool()))
	default:
		return opResult(s.dhcp.SweepExpired(), nil)
	}
}

// servedState is everything a stack serves: every record, the record
// count, every lease and, when asked, each pool's free count.
type servedState struct {
	Records []dns.Record
	Count   int
	Leases  []dhcp.Lease
	Free    []int
}

func (s *namingStack) state(p *Plan, free bool) servedState {
	st := servedState{Records: s.dns.Dump(), Count: s.dns.RecordCount()}
	for _, l := range s.dhcp.Leases() {
		st.Leases = append(st.Leases, *l)
	}
	for r := 0; free && r <= len(p.racks); r++ {
		pool := "tiny"
		if r < len(p.racks) {
			pool = pimaster.RackPool(r)
		}
		n, _ := s.dhcp.FreeCount(pool)
		st.Free = append(st.Free, n)
	}
	return st
}

// sameState fails the test when the stacks serve different state. Free
// counts scan whole pools, so only the final check compares them.
func sameState(t testing.TB, step int, p *Plan, attached, registered *namingStack, free bool) {
	a, r := attached.state(p, free), registered.state(p, free)
	if a.Count != r.Count || !slices.Equal(a.Records, r.Records) || !slices.Equal(a.Leases, r.Leases) || !slices.Equal(a.Free, r.Free) {
		t.Fatalf("step %d: served state differs:\nattached:   %+v\nregistered: %+v", step, a, r)
	}
}

// runNaming drives an attached and a registered stack through the same
// decoded operations and fails on the first step whose results differ,
// or whose served state differs: the whole state is compared every
// `every` steps and at the end.
func runNaming(t testing.TB, p *Plan, every int, data []byte) {
	engine := sim.NewEngine(0)
	attached := newNamingStack(t, engine, p, true)
	registered := newNamingStack(t, engine, p, false)
	sameState(t, 0, p, attached, registered, true)
	ops := &namingOps{p: p, data: data}
	for step := 0; len(ops.data) > 0; step++ {
		op := opCodes[ops.byte()%len(opCodes)]
		if op == opAdvance {
			// Mostly minutes, so leases renew; now and then past the
			// 12 h lease, so they expire.
			d := time.Duration(1+ops.byte()%40) * time.Minute
			if d > 32*time.Minute {
				d = 13 * time.Hour
			}
			if err := engine.RunFor(sim.Duration(d)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		mirror := *ops
		a := ops.step(op, attached)
		r := mirror.step(op, registered)
		if !reflect.DeepEqual(a, r) {
			t.Fatalf("step %d (op %d): attached table answered\n%+v\nregistered rows answered\n%+v", step, op, a, r)
		}
		if (step+1)%every == 0 {
			sameState(t, step+1, p, attached, registered, false)
		}
	}
	sameState(t, -1, p, attached, registered, true)
}

// namingShape is a plan the differential runs over, and how often its
// whole served state is compared.
type namingShape struct {
	p     *Plan
	every int
}

// namingShapes are the published tree, checked after every step, and
// racks deep enough that node MACs use their high index byte, whose 600
// rows are listed every 16 steps.
func namingShapes(t testing.TB) []namingShape {
	return []namingShape{
		{testPlan(t, Config{}), 1},
		{testPlan(t, Config{Racks: 2, HostsPerRack: 300}), 16},
	}
}

// namingSeeds are the seeded operation streams of the differential and
// the fuzz target's seed corpus.
func namingSeeds(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// TestPlanNamingMatchesRegistered holds the naming services' attached
// host table to the path it replaced: the same rows filed one at a time
// through Reserve and RegisterHost. Seeded random operation streams hit
// plan names, reverse names, MACs, addresses and pools (zones added
// over plan names, CNAMEs onto them, removals and re-additions,
// reservations that move a row, requests in another pool, releases,
// sweeps and engine advances). Every result and error must be equal
// after every step, and the whole served state too (every 16 steps on
// the 600-row plan) and at the end.
func TestPlanNamingMatchesRegistered(t *testing.T) {
	for _, shape := range namingShapes(t) {
		for i, data := range namingSeeds(24, 1200) {
			t.Run(fmt.Sprintf("%dhosts/seed%d", shape.p.Hosts(), i+1), func(t *testing.T) {
				runNaming(t, shape.p, shape.every, data)
			})
		}
	}
}

// FuzzNamingTables runs the differential on arbitrary operation streams
// of at most 1 KiB, seeded with the test's streams, over the published
// tree: results are compared after every step and the whole state every
// 16 steps, which keeps an execution to a few milliseconds. The deep
// racks' high MAC byte is covered by the seeded test and
// TestPlanLookups.
//
//	go test -run '^$' -fuzz FuzzNamingTables -fuzztime 30s -fuzzminimizetime 10x ./internal/fleet
func FuzzNamingTables(f *testing.F) {
	for _, data := range namingSeeds(8, 1024) {
		f.Add(data)
	}
	shape := namingShapes(f)[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		runNaming(t, shape.p, 16, data)
	})
}

// TestPlanLookups checks the table's arithmetic lookups against its
// rows on every fabric, and that they refuse what no row holds.
func TestPlanLookups(t *testing.T) {
	for _, cfg := range []Config{
		{Racks: 3, HostsPerRack: 5},
		{Racks: 2, HostsPerRack: 300},
		{Racks: 4, HostsPerRack: 3, Fabric: topology.FabricLeafSpine},
		{Racks: 8, HostsPerRack: 10, Fabric: topology.FabricFatTree, FatTreeK: 8},
	} {
		p := testPlan(t, cfg)
		for i := 0; i < p.Hosts(); i++ {
			fqdn, addr := p.Host(i)
			mac, addr2, pool := p.Reservation(i)
			h := &p.hosts[i]
			if addr != addr2 || pool != pimaster.RackPool(h.rack) {
				t.Fatalf("row %d: addr %v/%v pool %s", i, addr, addr2, pool)
			}
			if r, ok := p.RowOfName(fqdn); !ok || r != i {
				t.Fatalf("RowOfName(%s) = %d %v, want %d", fqdn, r, ok, i)
			}
			if r, ok := p.RowOfAddr(addr); !ok || r != i {
				t.Fatalf("RowOfAddr(%s) = %d %v, want %d", addr, r, ok, i)
			}
			if r, ok := p.RowOfMAC(mac); !ok || r != i {
				t.Fatalf("RowOfMAC(%s) = %d %v, want %d", mac, r, ok, i)
			}
		}
		for _, a := range []string{"10.0.0.0", "10.0.0.1", "10.0.15.255", "10.200.0.2", "11.0.0.2", "::1"} {
			if r, ok := p.RowOfAddr(netip.MustParseAddr(a)); ok {
				t.Fatalf("RowOfAddr(%s) = row %d", a, r)
			}
		}
		for _, m := range []dhcp.MAC{"", "b8:27:eb:00:00", "b8:27:eb:00:c8:00", "B8:27:EB:00:00:00", "02:1c:00:00:00:01", "b8:27:eb:0g:00:00"} {
			if r, ok := p.RowOfMAC(m); ok {
				t.Fatalf("RowOfMAC(%s) = row %d", m, r)
			}
		}
		if r, ok := p.RowOfName("pi-r00-n00"); ok {
			t.Fatalf("RowOfName of a bare host name = row %d", r)
		}
	}
}

// TestPlanNameIndexShared: forks of one shape share its plan, so the
// name index may be first asked for from several goroutines at once;
// every one of them must see it whole.
func TestPlanNameIndexShared(t *testing.T) {
	p := testPlan(t, Config{Racks: 4, HostsPerRack: 50})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < p.Hosts(); i++ {
				fqdn, _ := p.Host(i)
				if r, ok := p.RowOfName(fqdn); !ok || r != i {
					t.Errorf("RowOfName(%s) = %d %v, want %d", fqdn, r, ok, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanNamingServesFleet checks a built fleet end to end: pimaster
// answers every host from the plan, stores no naming record for it, and
// a VM's records are the only stored ones.
func TestPlanNamingServesFleet(t *testing.T) {
	r := assembleFleet(t, Config{Racks: 2, HostsPerRack: 3, Seed: 1})
	if got, want := r.Master.DNS().RecordCount(), 2*len(r.Nodes); got != want {
		t.Fatalf("RecordCount = %d, want %d", got, want)
	}
	if got := len(r.Master.DHCP().Leases()); got != len(r.Nodes) {
		t.Fatalf("%d leases for %d nodes", got, len(r.Nodes))
	}
	vm, err := r.Master.SpawnVM(pimaster.SpawnVMRequest{Name: "web", Image: "raspbian"})
	if err != nil {
		t.Fatal(err)
	}
	if addrs, err := r.Master.DNS().LookupA(vm.FQDN); err != nil || addrs[0].String() != vm.IP {
		t.Fatalf("VM %s resolves to %v (%v), leased %s", vm.FQDN, addrs, err, vm.IP)
	}
	if got, want := r.Master.DNS().RecordCount(), 2*len(r.Nodes)+2; got != want {
		t.Fatalf("RecordCount with a VM = %d, want %d", got, want)
	}
	if err := r.Master.DestroyVM("web"); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Master.DNS().RecordCount(), 2*len(r.Nodes); got != want {
		t.Fatalf("RecordCount after destroy = %d, want %d", got, want)
	}
}

// TestRecordCountMatchesDump: pimaster's DNS counts the records Dump
// lists, the plan's rows counted without building theirs, across
// tombstoned rows, runtime records, VMs and a zone added after the
// rows; and the count's allocations do not grow with the fleet.
func TestRecordCountMatchesDump(t *testing.T) {
	r := assembleFleet(t, Config{Racks: 3, HostsPerRack: 5, Seed: 1})
	s := r.Master.DNS()
	check := func(what string) {
		t.Helper()
		if got, want := s.RecordCount(), len(s.Dump()); got != want {
			t.Fatalf("%s: RecordCount = %d, Dump lists %d", what, got, want)
		}
	}
	check("attached rows")
	for i := 0; i < 2; i++ {
		if _, err := r.Master.SpawnVM(pimaster.SpawnVMRequest{Name: fmt.Sprintf("vm%d", i), Image: "raspbian"}); err != nil {
			t.Fatal(err)
		}
	}
	check("two VMs")
	fqdn, addr := r.plan.Host(3)
	if s.RemoveName(fqdn) != 1 {
		t.Fatalf("removing %s did not bury its A record", fqdn)
	}
	_, addr7 := r.plan.Host(7)
	if s.RemoveName(dns.ReverseName(addr7)) != 1 {
		t.Fatalf("removing %s's PTR did not bury it", addr7)
	}
	check("tombstoned rows")
	for _, rec := range []dns.Record{
		{Name: fqdn, Type: dns.TypeA, Value: addr.String()},
		{Name: "www." + dns.DefaultZone, Type: dns.TypeCNAME, Value: fqdn},
		{Name: "extra." + dns.DefaultZone, Type: dns.TypeA, Value: "10.9.9.9"},
	} {
		if err := s.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	check("runtime records")
	if err := s.AddZone("0.10.in-addr.arpa."); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(dns.Record{Name: "9.9.0.10.in-addr.arpa.", Type: dns.TypePTR, Value: "extra." + dns.DefaultZone}); err != nil {
		t.Fatal(err)
	}
	check("a zone added after the rows")
	if err := r.Master.DestroyVM("vm0"); err != nil {
		t.Fatal(err)
	}
	check("a destroyed VM")

	if raceEnabled {
		return // allocation counts differ under the race detector
	}
	big := assembleFleet(t, Config{Racks: 16, HostsPerRack: 64, Fabric: topology.FabricFatTree, FatTreeK: 16, Seed: 1})
	count := func(s *dns.Server) float64 {
		return testing.AllocsPerRun(5, func() { s.RecordCount() })
	}
	if small, large := count(s), count(big.Master.DNS()); large > small {
		t.Fatalf("RecordCount makes %v objects for %d hosts and %v for %d", small, len(r.Nodes), large, len(big.Nodes))
	}
}
