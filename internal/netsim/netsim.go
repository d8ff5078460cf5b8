// Package netsim is the flow-level network simulator underneath the
// PiCloud fabric. Links have capacity and latency; concurrent flows on a
// link share bandwidth by progressive-filling max-min fairness (with
// optional per-flow rate caps for application-limited traffic). The
// simulator reproduces the contention phenomena — shared ToR uplinks,
// cross-rack hotspots — that the paper's Section III research directions
// are about, without modelling individual packets.
//
// Paths are supplied by the routing layer (the OpenFlow/SDN packages);
// netsim only simulates what happens on the chosen path. Re-pointing a
// live flow onto a new path (SetPath) models the paper's IP-less routing,
// where established transport connections survive a VM migration.
package netsim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// NodeID names a network-attached device (host NIC or switch).
type NodeID string

// NodeKind distinguishes end hosts from fabric switches. It is one byte
// so that a hop entry (see Hop) packs into 16.
type NodeKind uint8

// Node kinds.
const (
	KindHost NodeKind = iota + 1
	KindSwitch
)

// String returns "host" or "switch".
func (k NodeKind) String() string {
	switch k {
	case KindHost:
		return "host"
	case KindSwitch:
		return "switch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is a network-attached device. Besides its name every node has a
// dense index: its position in creation order (0, 1, 2, ...). Nodes are
// never removed, so an index is stable for the network's lifetime, and
// the routing layer keys its per-node scratch arrays and route DAGs on
// it instead of hashing names.
type Node struct {
	ID   NodeID
	Kind NodeKind
	idx  int32
}

// Index returns the node's dense creation-order index.
func (nd *Node) Index() int32 { return nd.idx }

// Link is one direction of a cable: a fixed-capacity, fixed-latency pipe.
// Capacity and Latency are the effective values after any Shaping; the
// nominal cable parameters are retained so shaping can be cleared.
//
// Links are created and removed only as duplex pairs, both legs in one
// allocation, so every link has a reverse leg (To→From) for as long as
// it exists. The pair shares its up/down state: the cable's flag, which
// both legs and both legs' hop entries carry and SetLinkUp writes
// together.
type Link struct {
	From NodeID
	To   NodeID
	// up is the cable's state; shaped fills the padding after it. to is
	// the destination node's index and rev the reverse leg of the pair.
	up       bool
	shaped   bool
	to       int32
	rev      *Link
	Capacity float64 // bits per second (effective)
	Latency  time.Duration
	net      *Network
	// flows is the set of live flows routed over the link, made when the
	// first one arrives: most links of a large fabric never carry one.
	flows map[*Flow]struct{}
	// Nominal (unshaped) cable parameters.
	baseCapacity float64
	baseLatency  time.Duration
	// BitsCarried accumulates the total traffic volume for utilisation
	// reporting and the congestion experiments.
	bitsCarried float64
	// grp is the telemetry group this link reports under (nil until
	// tagged): the per-rack traffic sub-total, mirroring the energy
	// layer's per-rack sub-meters.
	grp *linkGroup
	// dom resolves to the congestion domain of this link's flows; only
	// meaningful while the link carries at least one live flow.
	dom *domain
	// pass is the solver's visited marker (see Network.passSeq).
	pass uint64
	// allocated is the deterministic bits-per-second currently assigned
	// across this link's flows, maintained by the per-domain solver.
	allocated float64
	// Allocation scratch, valid only inside a domain solve.
	remaining   float64
	activeCount int
}

// Up reports whether the link is in service.
func (l *Link) Up() bool { return l.up }

// addFlow routes f over the link, making the flow set on first use.
func (l *Link) addFlow(f *Flow) {
	if l.flows == nil {
		l.flows = make(map[*Flow]struct{})
	}
	l.flows[f] = struct{}{}
	linkGainedFlow(l)
}

// FlowCount returns the number of flows currently routed over the link.
func (l *Link) FlowCount() int { return len(l.flows) }

// BitsCarried returns the cumulative traffic that has crossed the link,
// materialised to the current virtual time: the committed volume plus
// the pending span of every live flow routed over it. Pending spans are
// summed in flow-admission order so the float result is independent of
// map iteration (identical runs report identical volumes).
func (l *Link) BitsCarried() float64 {
	if l.net == nil || len(l.flows) == 0 {
		return l.bitsCarried
	}
	now := l.net.engine.Now()
	pend := make([]*Flow, 0, len(l.flows))
	for f := range l.flows {
		pend = append(pend, f)
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].ID < pend[j].ID })
	total := l.bitsCarried
	for _, f := range pend {
		total += f.pendingBits(now)
	}
	return total
}

// Shaped reports whether tc-style impairment is applied to the link.
func (l *Link) Shaped() bool { return l.shaped }

// Utilisation returns the instantaneous fraction of capacity in use.
// It reads the solver-maintained allocation, so it is O(1) and — unlike
// summing the flow map — independent of map iteration order.
func (l *Link) Utilisation() float64 {
	if l.net != nil {
		l.net.flush()
	}
	if l.Capacity <= 0 {
		return 0
	}
	return l.allocated / l.Capacity
}

// EndReason explains why a flow stopped.
type EndReason int

// Flow end reasons.
const (
	EndCompleted EndReason = iota + 1 // finite flow transferred all bits
	EndCanceled                       // caller cancelled it
	EndLinkDown                       // a link on its path failed
)

// String names the reason.
func (r EndReason) String() string {
	switch r {
	case EndCompleted:
		return "completed"
	case EndCanceled:
		return "canceled"
	case EndLinkDown:
		return "link-down"
	default:
		return fmt.Sprintf("reason(%d)", int(r))
	}
}

// FlowSpec describes a transfer to start.
type FlowSpec struct {
	Src, Dst NodeID
	// Path is the hop sequence from Src to Dst inclusive.
	Path []NodeID
	// SizeBits is the transfer volume; zero or negative means an
	// unbounded stream that runs until cancelled.
	SizeBits float64
	// RateCapBps optionally caps the flow below its fair share
	// (application-limited traffic). Zero means no cap.
	RateCapBps float64
	// OnEnd is invoked when the flow stops for any reason.
	OnEnd func(*Flow, EndReason)
	// Label optionally tags the flow for the experiments.
	Label string
}

// Flow is a live transfer.
type Flow struct {
	ID   int64
	Spec FlowSpec
	net  *Network
	path []*Link
	rate float64 // current allocation, bps
	// remaining and bitsDone are the committed accounting state as of
	// lastCalc — the start of the flow's current constant-rate span.
	// They move only at commit points (rate change, path change, flow
	// end); between commits, readers materialise the pending span on
	// demand (see commitFlow for the invariant).
	remaining float64 // bits left (finite flows)
	bitsDone  float64
	started   sim.Time
	lastCalc  sim.Time
	// sweepBits is the eager-advance mode's last materialised total, used
	// to detect a rate change that slipped past a commit (see advanceAll).
	sweepBits float64
	ended     bool
	endAt     sim.Time
	endReason EndReason
	complete  sim.Event
	// dom is the flow's congestion-domain handle (union-find node).
	dom *domain
	// pass is the solver's visited/dedup marker.
	pass uint64
	// fillRate is the progressive fill's scratch allocation; f.rate (and
	// the flow's accounting span) is only touched when the two differ at
	// the end of a solve.
	fillRate float64
	// schedRate is the rate the armed completion event was computed
	// from; comparing fresh solves against it (not against the previous
	// solve) bounds sub-epsilon drift at one epsilon total. rateDirty
	// gates the rescheduling pass (see rescheduleChanged).
	schedRate float64
	rateDirty bool
}

// Rate returns the current max-min allocation in bits per second.
func (f *Flow) Rate() float64 {
	f.net.flush()
	return f.rate
}

// pendingBits materialises the bits the flow has moved since its last
// commit — a pure read: the committed state does not move. The clamp to
// the committed remaining mirrors commitFlow's, so a materialised read
// and a later commit over the same span agree exactly.
func (f *Flow) pendingBits(now sim.Time) float64 {
	dt := now.Sub(f.lastCalc).Seconds()
	if dt <= 0 || f.rate <= 0 {
		return 0
	}
	moved := f.rate * dt
	if f.Spec.SizeBits > 0 && moved > f.remaining {
		moved = f.remaining
	}
	return moved
}

// BitsTransferred returns the bits moved up to the current virtual time
// (committed bits plus the materialised pending span).
func (f *Flow) BitsTransferred() float64 {
	return f.bitsDone + f.pendingBits(f.net.engine.Now())
}

// Remaining returns the bits left for a finite flow (0 for unbounded),
// materialised to the current virtual time.
func (f *Flow) Remaining() float64 {
	if f.Spec.SizeBits <= 0 {
		return 0
	}
	return f.remaining - f.pendingBits(f.net.engine.Now())
}

// Ended reports whether the flow has stopped, and why.
func (f *Flow) Ended() (bool, EndReason) { return f.ended, f.endReason }

// Duration returns how long the flow ran (to now if still running).
func (f *Flow) Duration() time.Duration {
	end := f.net.engine.Now()
	if f.ended {
		end = f.endAt
	}
	return end.Sub(f.started)
}

// PathLatency returns the one-way propagation latency along the current
// path.
func (f *Flow) PathLatency() time.Duration {
	var total time.Duration
	for _, l := range f.path {
		total += l.Latency
	}
	return total
}

// Hop is one entry of a node's hop array, the node's outgoing links in
// creation order. Beside the link it holds what a routing walk reads:
// the destination node's index and kind and the cable's up flag. An
// entry is 16 bytes, so a walk over a switch's ports reads one
// contiguous array instead of chasing a pointer per port. The network
// writes the up flag wherever the cable's state changes (wiring and
// SetLinkUp), in both legs' entries.
type Hop struct {
	to   int32
	kind NodeKind
	up   bool
	link *Link
}

// To returns the destination node's dense index.
func (h Hop) To() int32 { return h.to }

// Kind returns the destination node's kind.
func (h Hop) Kind() NodeKind { return h.kind }

// Up reports whether the cable is in service. Both legs of a cable share
// the flag, so it also answers whether the link back is up.
func (h Hop) Up() bool { return h.up }

// Link returns the directed link.
func (h Hop) Link() *Link { return h.link }

// Network is the flow simulator. It is single-threaded on the simulation
// engine; callers integrating with real goroutines must serialise access
// externally (the cloud facade does).
//
// The graph is stored by dense node index (see Node): the nodes live in
// a slice indexed by it, and so do their hop arrays (see Hop), which
// are also the link table. There is no second index of links: Link(a,
// b) scans the hop array of whichever endpoint has fewer links, so a
// lookup costs at most the smaller degree and a host's uplink is found
// in one step even when its switch has thousands of ports. The
// name-keyed accessors (Node, Link, NeighborLinks, Neighbors, flow
// paths) resolve a name once and then read those.
//
// Rate recomputation is batched and incremental: mutations (flow
// start/end, link events, shaping) mark the affected congestion
// domain(s) dirty, and a single flush runs once per virtual instant —
// either via a zero-delay engine event or lazily when a rate-dependent
// query arrives — re-solving only the dirty domains (see domains.go). A
// burst of N rack-local mutations at one instant therefore costs a few
// rack-sized max-min fills instead of N whole-fabric passes, which is
// what makes 10,000-node fleets feasible.
type Network struct {
	engine *sim.Engine
	nodes  map[NodeID]*Node
	// nodeList holds the nodes by index; out holds each node's hop array,
	// by the same index.
	nodeList []*Node
	out      [][]Hop
	// linkList iterates links in creation order (deterministic, no map
	// ranging on the hot path). Removed links are filtered out in place.
	linkList []*Link
	// flowOrder iterates live flows in admission order; ended flows are
	// compacted out lazily. Determinism of completion-event sequence
	// numbers depends on this ordering.
	flowOrder []*Flow
	// endedInOrder counts ended flows still occupying flowOrder slots;
	// when they outnumber the live ones the list is compacted (amortised
	// O(1) per ended flow — the lazy replacement for the per-instant
	// sweep that used to compact as a side effect).
	endedInOrder int
	active       int
	nextID       int64
	dirty        bool
	// eagerAdvance restores the seed kernel's O(live flows) sweep at
	// every time-advancing mutation — the KernelMode.EagerAdvance
	// reference mode. The sweep materialises every flow (recreating the
	// old cost model for benchmarks) and cross-checks the lazy
	// accounting, but never commits, so both modes are byte-identical.
	eagerAdvance bool
	// lastAdvance dedupes the eager sweep within one virtual instant
	// (initialised to -1 so the epoch instant is not skipped).
	lastAdvance sim.Time
	// topoEpoch counts topology/link-state mutations; the SDN layer
	// keys its route cache on it.
	topoEpoch uint64
	// passSeq issues visited-markers for solver passes.
	passSeq uint64
	// fullRecompute forces every domain to re-solve at each flush —
	// the "full solver" the incremental path is byte-compared against.
	fullRecompute bool
	// flushFn is the pre-bound flush closure (no per-instant alloc).
	flushFn func()
	// dirtyDomains is the flush worklist: every dirty root appears here
	// (possibly more than once; dedup is the dirty flag itself).
	dirtyDomains []*domain
	// changedFlows collects flows whose rate moved this flush, for the
	// admission-ordered completion rescheduling pass.
	changedFlows []*Flow
	// scratch is the domain solver's reusable buffers.
	scratch solveScratch
	// groups are the hierarchical traffic-telemetry sub-totals (see
	// groups.go); groupOrder caches the stable ascending-id iteration
	// order the grand total sums in. removedTags remembers the group of
	// removed tagged links so a re-wired cable rejoins it.
	groups      map[int]*linkGroup
	groupOrder  []int
	groupStale  bool
	removedTags map[linkKey]int
	// stats and tracer are the observability taps (see stats.go):
	// telemetry counters outside every digest, an optional dual-clock
	// span per flush, and opt-in phase profiling.
	stats  netStats
	tracer *obs.Tracer
}

// solveScratch holds the domain solver's buffers, reused across domain
// solves to keep the hot path allocation-free.
type solveScratch struct {
	flows  []*Flow
	links  []*Link
	active []*Flow
}

// linkKey names a directed link by its endpoints' dense node indices.
type linkKey struct{ from, to int32 }

// Errors returned by Network operations.
var (
	ErrNodeExists   = errors.New("netsim: node already exists")
	ErrNoSuchNode   = errors.New("netsim: no such node")
	ErrLinkExists   = errors.New("netsim: link already exists")
	ErrNoSuchLink   = errors.New("netsim: no such link")
	ErrBadPath      = errors.New("netsim: invalid path")
	ErrFlowEnded    = errors.New("netsim: flow already ended")
	ErrLinkDownPath = errors.New("netsim: path traverses a failed link")
)

// New returns an empty network on the given engine.
func New(engine *sim.Engine) *Network {
	n := &Network{
		engine:      engine,
		nodes:       make(map[NodeID]*Node),
		lastAdvance: -1,
	}
	n.flushFn = n.flush
	return n
}

// markDirty defers rate recomputation to the end of the current virtual
// instant. The zero-delay event fires before time can advance, so no flow
// ever accrues bits at a stale rate.
func (n *Network) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	n.engine.Schedule(0, n.flushFn)
}

// flush re-solves dirty congestion domains if a mutation is pending.
// Queries that depend on rates call it so reads are always consistent
// even before the engine runs the deferred event.
func (n *Network) flush() {
	if !n.dirty {
		return
	}
	n.dirty = false
	n.solveDirty()
}

// TopoEpoch returns the topology/link-state epoch: it advances on every
// wiring or link-state mutation (add/remove link, up/down, shaping), and
// route caches keyed on it are thereby invalidated. Rate-only changes do
// not advance it. Shaping bumps are deliberately conservative — hop-count
// routes survive shaping, but the epoch contract promises any cached
// answer derived from link state (capacity, latency) dies with it, so
// future weight-aware policies can cache safely.
func (n *Network) TopoEpoch() uint64 { return n.topoEpoch }

// BumpTopoEpoch advances the epoch explicitly — the hook the topology
// builders and fault injectors use to force route-cache invalidation
// beyond the automatic bumps netsim's own mutators perform.
func (n *Network) BumpTopoEpoch() { n.topoEpoch++ }

// KernelMode bundles the network kernel's reference modes: every mode is
// byte-identical to the defaults, and the determinism gates prove it by
// running each against the production kernel. They are verification
// oracles, set on a built network by tests and kernel benchmarks; no
// production configuration selects them. The zero value is the
// production kernel: lazy accounting and incremental solving.
type KernelMode struct {
	// EagerAdvance restores the seed kernel's whole-fleet accounting
	// sweep at every time-advancing mutation. The sweep materialises
	// every live flow (the old O(live flows)-per-instant cost model,
	// kept for benchmarks and the differential gate) and panics if the
	// lazy accounting ever regressed a flow's materialised total — the
	// symptom of a rate change that slipped past a commit. It never
	// commits, so eager and lazy runs are byte-identical by
	// construction.
	EagerAdvance bool
	// FullRecompute switches the allocator from incremental (default,
	// dirty domains only) to a full re-solve of every domain at each
	// flush — the "full solver" the incremental path is byte-compared
	// against.
	FullRecompute bool
}

// SetKernelMode applies the whole mode set in one step, so a network can
// never run with a half-applied mix of reference modes. Call it before
// the run starts (on a freshly built cloud) or between run slices.
func (n *Network) SetKernelMode(m KernelMode) {
	n.eagerAdvance = m.EagerAdvance
	n.fullRecompute = m.FullRecompute
}

// AddNode registers a device.
func (n *Network) AddNode(id NodeID, kind NodeKind) error {
	if _, dup := n.nodes[id]; dup {
		return fmt.Errorf("%w: %s", ErrNodeExists, id)
	}
	nd := &Node{ID: id, Kind: kind, idx: int32(len(n.nodeList))}
	n.nodes[id] = nd
	n.nodeList = append(n.nodeList, nd)
	n.out = append(n.out, nil)
	n.topoEpoch++
	return nil
}

// Node returns the named device, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// NodeAt returns the node with dense index i (see Node.Index).
func (n *Network) NodeAt(i int32) *Node { return n.nodeList[i] }

// NodeCount returns the number of registered devices.
func (n *Network) NodeCount() int { return len(n.nodes) }

// AddDuplexLink wires a full-duplex cable between a and b: two directed
// links, each with the given capacity and latency. A node cannot be
// cabled to itself.
func (n *Network) AddDuplexLink(a, b NodeID, capacityBps float64, latency time.Duration) error {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, a)
	}
	if nb == nil {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, b)
	}
	if na == nb {
		return fmt.Errorf("netsim: self-loop link on %s", a)
	}
	if capacityBps <= 0 {
		return fmt.Errorf("netsim: non-positive capacity on link %s-%s", a, b)
	}
	// Legs exist only in pairs, so one probe covers both directions.
	if n.link(na.idx, nb.idx) != nil {
		return fmt.Errorf("%w: %s->%s", ErrLinkExists, a, b)
	}
	pair := &[2]Link{
		{From: a, To: b, to: nb.idx},
		{From: b, To: a, to: na.idx},
	}
	pair[0].rev, pair[1].rev = &pair[1], &pair[0]
	ends := [2]*Node{na, nb}
	for i, from := range ends {
		l := &pair[i]
		l.up, l.net = true, n
		l.Capacity, l.Latency = capacityBps, latency
		l.baseCapacity, l.baseLatency = capacityBps, latency
		k := linkKey{from.idx, l.to}
		n.linkList = append(n.linkList, l)
		n.out[from.idx] = append(n.out[from.idx], Hop{to: l.to, kind: ends[1-i].Kind, up: true, link: l})
		if id, ok := n.removedTags[k]; ok {
			delete(n.removedTags, k)
			n.tagLink(l, id)
		}
	}
	n.topoEpoch++
	return nil
}

// Shaping models tc-style impairment of a duplex cable: a capacity
// multiplier, additional one-way latency, and a packet-loss fraction that
// degrades goodput (modelled as a further capacity reduction, the
// steady-state effect of loss on congestion-controlled transfers).
type Shaping struct {
	// CapacityScale multiplies the nominal capacity; values ≤ 0 or ≥ 1
	// leave capacity at nominal.
	CapacityScale float64
	// ExtraLatency is added to the nominal propagation latency.
	ExtraLatency time.Duration
	// Loss is the packet-loss fraction in [0, 1).
	Loss float64
}

// ShapeLink applies shaping to both directions of the cable between a and
// b, replacing any previous shaping. Live flows re-share immediately.
func (n *Network) ShapeLink(a, b NodeID, s Shaping) error {
	la := n.Link(a, b)
	if la == nil {
		return fmt.Errorf("%w: %s-%s", ErrNoSuchLink, a, b)
	}
	if s.Loss < 0 || s.Loss >= 1 {
		return fmt.Errorf("netsim: loss %v outside [0,1)", s.Loss)
	}
	scale := s.CapacityScale
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	n.advance()
	for _, l := range [2]*Link{la, la.rev} {
		l.Capacity = l.baseCapacity * scale * (1 - s.Loss)
		l.Latency = l.baseLatency + s.ExtraLatency
		l.shaped = true
		if len(l.flows) > 0 {
			n.markDomainDirty(l.dom)
		}
	}
	n.topoEpoch++
	return nil
}

// ClearShaping restores the nominal parameters of the cable between a and
// b.
func (n *Network) ClearShaping(a, b NodeID) error {
	la := n.Link(a, b)
	if la == nil {
		return fmt.Errorf("%w: %s-%s", ErrNoSuchLink, a, b)
	}
	n.advance()
	for _, l := range [2]*Link{la, la.rev} {
		l.Capacity = l.baseCapacity
		l.Latency = l.baseLatency
		l.shaped = false
		if len(l.flows) > 0 {
			n.markDomainDirty(l.dom)
		}
	}
	n.topoEpoch++
	return nil
}

// RemoveDuplexLink deletes the cable between a and b in both directions,
// ending any flows that traversed it ("re-cabling" the testbed). It is an
// error if no such cable exists.
func (n *Network) RemoveDuplexLink(a, b NodeID) error {
	la := n.Link(a, b)
	if la == nil {
		return fmt.Errorf("%w: %s->%s", ErrNoSuchLink, a, b)
	}
	n.advance()
	pair := [2]*Link{la, la.rev}
	for _, l := range pair {
		n.endLinkFlows(l, EndLinkDown)
		// The reverse leg ends where this one starts.
		from := l.rev.to
		k := linkKey{from, l.to}
		if l.grp != nil {
			// A removed link takes its carried volume out of the
			// telemetry, exactly as it leaves the direct link walk; the
			// tag is remembered so a re-wired cable rejoins its group.
			if n.removedTags == nil {
				n.removedTags = make(map[linkKey]int)
			}
			n.removedTags[k] = l.grp.id
			n.untagLink(l)
		}
		i := n.hopAt(from, l.to)
		n.out[from] = slices.Delete(n.out[from], i, i+1)
	}
	kept := n.linkList[:0]
	for _, l := range n.linkList {
		if l != pair[0] && l != pair[1] {
			kept = append(kept, l)
		}
	}
	for i := len(kept); i < len(n.linkList); i++ {
		n.linkList[i] = nil
	}
	n.linkList = kept
	n.topoEpoch++
	n.markDirty()
	return nil
}

// endLinkFlows terminates every flow routed over l in deterministic
// flow-ID order (map ranging would end them — and fire their OnEnd
// callbacks — in random order).
func (n *Network) endLinkFlows(l *Link, reason EndReason) {
	if len(l.flows) == 0 {
		return
	}
	victims := make([]*Flow, 0, len(l.flows))
	for f := range l.flows {
		victims = append(victims, f)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	for _, f := range victims {
		n.endFlow(f, reason)
	}
}

// Link returns the directed link from a to b, or nil.
func (n *Network) Link(a, b NodeID) *Link {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return nil
	}
	return n.link(na.idx, nb.idx)
}

// link returns the directed link from node a to node b, or nil. It scans
// the hop array of whichever endpoint has fewer links: legs exist only
// in pairs, so b's entry for a holds the reverse leg.
func (n *Network) link(a, b int32) *Link {
	if len(n.out[b]) < len(n.out[a]) {
		if i := n.hopAt(b, a); i >= 0 {
			return n.out[b][i].link.rev
		}
		return nil
	}
	if i := n.hopAt(a, b); i >= 0 {
		return n.out[a][i].link
	}
	return nil
}

// hopAt returns the position of the link from→to in from's hop array,
// or -1.
func (n *Network) hopAt(from, to int32) int {
	for i, h := range n.out[from] {
		if h.to == to {
			return i
		}
	}
	return -1
}

// Neighbors returns the IDs reachable over one up link from id, in link
// creation order (deterministic).
func (n *Network) Neighbors(id NodeID) []NodeID {
	var out []NodeID
	for _, h := range n.NeighborLinks(id) {
		if h.up {
			out = append(out, h.link.To)
		}
	}
	return out
}

// NeighborLinks returns id's hop array: its outgoing links in creation
// order, including down ones (callers filter with Up). The slice is
// shared — read-only. Routing uses it to walk the graph with zero
// per-node allocation.
func (n *Network) NeighborLinks(id NodeID) []Hop {
	nd := n.nodes[id]
	if nd == nil {
		return nil
	}
	return n.out[nd.idx]
}

// LinksFrom is NeighborLinks by dense node index: the hop array of the
// node with index i. The slice is shared — read-only.
func (n *Network) LinksFrom(i int32) []Hop { return n.out[i] }

// SetLinkUp raises or fails the duplex cable between a and b. Failing a
// link ends every flow that traverses either direction with EndLinkDown —
// the "link down" failure-injection hook.
func (n *Network) SetLinkUp(a, b NodeID, up bool) error {
	la := n.Link(a, b)
	if la == nil {
		return fmt.Errorf("%w: %s-%s", ErrNoSuchLink, a, b)
	}
	lb := la.rev
	n.advance()
	for _, l := range [2]*Link{la, lb} {
		// The reverse leg ends where this one starts.
		from := l.rev.to
		l.up = up
		n.out[from][n.hopAt(from, l.to)].up = up
	}
	if !up {
		n.endLinkFlows(la, EndLinkDown)
		n.endLinkFlows(lb, EndLinkDown)
	}
	n.topoEpoch++
	n.markDirty()
	return nil
}

// StartFlow admits a transfer along spec.Path. The path must start at
// spec.Src, end at spec.Dst, traverse existing up links, and not repeat
// hops.
func (n *Network) StartFlow(spec FlowSpec) (*Flow, error) {
	links, err := n.resolvePath(spec.Path)
	if err != nil {
		return nil, err
	}
	if len(spec.Path) > 0 {
		if spec.Path[0] != spec.Src || spec.Path[len(spec.Path)-1] != spec.Dst {
			return nil, fmt.Errorf("%w: path endpoints %s..%s do not match src/dst %s..%s",
				ErrBadPath, spec.Path[0], spec.Path[len(spec.Path)-1], spec.Src, spec.Dst)
		}
	}
	n.advance()
	n.nextID++
	// Copy the hop list: callers may hand us a shared slice (the SDN
	// route cache does), and Spec.Path is exported for the flow's
	// lifetime.
	spec.Path = append([]NodeID(nil), spec.Path...)
	f := &Flow{
		ID:        n.nextID,
		Spec:      spec,
		net:       n,
		path:      links,
		remaining: spec.SizeBits,
		started:   n.engine.Now(),
		lastCalc:  n.engine.Now(),
	}
	for _, l := range links {
		l.addFlow(f)
	}
	n.flowOrder = append(n.flowOrder, f)
	n.active++
	n.adoptFlow(f, links)
	return f, nil
}

// resolvePath maps a hop sequence to directed links, validating it. A
// path is a handful of hops, so a repeat is found by comparing each hop
// with the ones before it rather than by building a set per call.
func (n *Network) resolvePath(path []NodeID) ([]*Link, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 hops, got %d", ErrBadPath, len(path))
	}
	first := n.nodes[path[0]]
	if first == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, path[0])
	}
	links := make([]*Link, 0, len(path)-1)
	from := first
	for _, hop := range path[1:] {
		nd := n.nodes[hop]
		if nd == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, hop)
		}
		// The hops so far are the first node and the heads of the links
		// resolved before this one.
		repeat := nd == first
		for _, l := range links {
			repeat = repeat || l.to == nd.idx
		}
		if repeat {
			return nil, fmt.Errorf("%w: hop %s repeats", ErrBadPath, hop)
		}
		l := n.link(from.idx, nd.idx)
		if l == nil {
			return nil, fmt.Errorf("%w: %s->%s", ErrNoSuchLink, from.ID, hop)
		}
		if !l.up {
			return nil, fmt.Errorf("%w: %s->%s", ErrLinkDownPath, from.ID, hop)
		}
		links = append(links, l)
		from = nd
	}
	return links, nil
}

// SetPath re-points a live flow onto a new path without resetting its
// transfer state — the IP-less (label-routed) migration model, where the
// transport connection survives because forwarding follows the label,
// not the address.
func (n *Network) SetPath(f *Flow, path []NodeID) error {
	if f.ended {
		return ErrFlowEnded
	}
	links, err := n.resolvePath(path)
	if err != nil {
		return err
	}
	n.advance()
	// Commit the span travelled on the old path at the old rate before
	// the path (and the per-link volume attribution) changes.
	n.commitFlow(f, n.engine.Now())
	// The old domain loses a member: flag it for component rebuild. The
	// flow's entry in its flows list goes stale and is compacted there.
	if f.dom != nil {
		r := f.dom.find()
		r.rebuild = true
		n.markDomainDirty(r)
	}
	for _, l := range f.path {
		delete(l.flows, f)
		linkLostFlow(l)
		if len(l.flows) == 0 {
			// Abandoned links are never re-solved; zero the allocation
			// so utilisation reads don't see a phantom load.
			l.allocated = 0
		}
	}
	f.path = links
	f.Spec.Path = append([]NodeID(nil), path...)
	for _, l := range links {
		l.addFlow(f)
	}
	n.adoptFlow(f, links)
	return nil
}

// CancelFlow stops a flow before completion.
func (n *Network) CancelFlow(f *Flow) error {
	if f.ended {
		return ErrFlowEnded
	}
	n.advance()
	n.endFlow(f, EndCanceled)
	n.markDirty()
	return nil
}

// ActiveFlows returns the number of live flows.
func (n *Network) ActiveFlows() int { return n.active }

// endFlow finalises a flow — committing its last accounting span,
// dirtying its congestion domain for rebuild — and fires its callback.
func (n *Network) endFlow(f *Flow, reason EndReason) {
	if f.ended {
		return
	}
	n.commitFlow(f, n.engine.Now())
	f.ended = true
	f.endReason = reason
	f.endAt = n.engine.Now()
	f.rate = 0
	f.rateDirty = false
	f.complete.Cancel()
	f.complete = sim.Event{}
	for _, l := range f.path {
		delete(l.flows, f)
		linkLostFlow(l)
		if len(l.flows) == 0 {
			// No solver pass will visit this link again until a new
			// flow claims it; zero its allocation for utilisation reads.
			l.allocated = 0
		}
	}
	n.active--
	n.endedInOrder++
	n.compactFlowOrder()
	if f.dom != nil {
		r := f.dom.find()
		r.rebuild = true
		n.markDomainDirty(r)
	}
	if f.Spec.OnEnd != nil {
		f.Spec.OnEnd(f, reason)
	}
}

// commitFlow credits the flow with the bits moved over its current
// constant-rate span and re-anchors the span at now.
//
// Commit points are the heart of the lazy accounting contract: a flow
// is committed exactly when its rate is about to change (its domain is
// being re-solved), its path changes, or it ends — never at unrelated
// instants. Because the span arithmetic is one multiply per span, the
// committed state is a pure function of the flow's rate-change history,
// independent of how many mutations elsewhere in the fabric advanced
// time in between. That independence is what makes lazy and eager runs
// byte-identical; the seed kernel's per-instant sweep instead chunked
// each span at every fleet-wide mutation, making its float rounding
// (and occasionally a completion event's nanosecond) depend on
// unrelated traffic.
func (n *Network) commitFlow(f *Flow, now sim.Time) {
	n.stats.commits++
	dt := now.Sub(f.lastCalc).Seconds()
	if dt > 0 && f.rate > 0 {
		moved := f.rate * dt
		if f.Spec.SizeBits > 0 && moved > f.remaining {
			moved = f.remaining
		}
		f.bitsDone += moved
		if f.Spec.SizeBits > 0 {
			f.remaining -= moved
		}
		for _, l := range f.path {
			l.bitsCarried += moved
			if l.grp != nil {
				l.grp.dirty = true
			}
		}
	}
	f.lastCalc = now
}

// advance is the mutation-time accounting hook. In the default lazy
// mode it does nothing — idle flows cost nothing per instant, and each
// flow is committed when its own rate changes. In eager mode it runs
// the seed kernel's whole-fleet sweep (advanceAll).
func (n *Network) advance() {
	if n.eagerAdvance {
		n.advanceAll()
	}
}

// advanceAll is the eager sweep: once per time-advancing instant it
// materialises every live flow, verifies the lazy accounting invariant
// (a flow's materialised total never decreases — a decrease means a
// rate change was applied without committing the preceding span), and
// compacts ended flows eagerly. It exists as the EagerAdvance reference
// mode; the lazy path compacts on a counter instead.
func (n *Network) advanceAll() {
	now := n.engine.Now()
	if now == n.lastAdvance {
		return
	}
	n.lastAdvance = now
	live := n.flowOrder[:0]
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		live = append(live, f)
		total := f.bitsDone + f.pendingBits(now)
		if total < f.sweepBits-1e-6 {
			panic(fmt.Sprintf("netsim: flow %d materialised total regressed %v -> %v (rate change without a span commit?)",
				f.ID, f.sweepBits, total))
		}
		f.sweepBits = total
	}
	for i := len(live); i < len(n.flowOrder); i++ {
		n.flowOrder[i] = nil
	}
	n.flowOrder = live
	n.endedInOrder = 0
}

// compactFlowOrder drops ended flows from the admission-order list once
// they outnumber the live ones. Triggered from endFlow, so the lazy
// mode's bookkeeping stays O(1) amortised per flow without any
// per-instant sweep.
func (n *Network) compactFlowOrder() {
	if n.endedInOrder < 64 || n.endedInOrder*2 < len(n.flowOrder) {
		return
	}
	live := n.flowOrder[:0]
	for _, f := range n.flowOrder {
		if !f.ended {
			live = append(live, f)
		}
	}
	for i := len(live); i < len(n.flowOrder); i++ {
		n.flowOrder[i] = nil
	}
	n.flowOrder = live
	n.endedInOrder = 0
}

// reallocate forces a full re-solve of every congestion domain now. The
// steady-state path is flush → solveDirty (dirty domains only); this
// entry point exists for white-box tests and benchmarks that want the
// whole-fabric cost.
func (n *Network) reallocate() {
	n.dirty = false
	n.enqueueAllDomains()
	n.solveDirty()
}

// TransferOnce is a convenience: start a finite flow and return its
// eventual stats through the OnEnd callback already set in spec.
func (n *Network) TransferOnce(spec FlowSpec) (*Flow, error) {
	if spec.SizeBits <= 0 {
		return nil, fmt.Errorf("netsim: TransferOnce needs a positive size")
	}
	return n.StartFlow(spec)
}

// MaxLinkUtilisation returns the highest instantaneous utilisation across
// all up links — the congestion metric used by experiment R4 and the
// scenario sampler. Only a link that carries a live flow can have a
// non-zero utilisation (the last flow to leave a link zeroes its
// allocation), so the maximum is taken over the path links of the live
// flows: the cost follows the traffic, not the fabric's size, and a
// maximum does not depend on the order it is taken in.
func (n *Network) MaxLinkUtilisation() float64 {
	n.flush()
	max := 0.0
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		for _, l := range f.path {
			if !l.up || l.Capacity <= 0 {
				continue
			}
			if u := l.allocated / l.Capacity; u > max {
				max = u
			}
		}
	}
	return max
}
