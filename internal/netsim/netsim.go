// Package netsim is the flow-level network simulator underneath the
// PiCloud fabric. Links have capacity and latency; concurrent flows on a
// link share bandwidth by progressive-filling max-min fairness (with
// optional per-flow rate caps for application-limited traffic). The
// simulator reproduces the contention phenomena — shared ToR uplinks,
// cross-rack hotspots — that the paper's Section III research directions
// are about, without modelling individual packets.
//
// Paths are supplied by the routing layer (the OpenFlow/SDN packages) as
// node indices (see Node.Index), the representation routing computes
// them in; netsim only simulates what happens on the chosen path, and a
// flow keeps its path as links, not hops. Re-pointing a live flow onto a
// new path (SetPath) models the paper's IP-less routing, where
// established transport connections survive a VM migration. Indices
// resolves a path spelled by name.
//
// A fabric is described once, by index, in a WiringBuilder: its nodes
// in one slab with their name index, its cables as 12-byte entries. The
// finished, immutable Wiring is the only description of a fabric and
// Wire the only way to make a network of it: networks wired from one
// Wiring share its nodes and own their links, one cable-pair slab each.
// The topology builders emit one, and a fleet's cold build and its
// forks are all wired from it. A wired network's cabling is fixed; what
// changes at run time is link state (SetLinkUp, ShapeLink).
//
// A link leg is the cable alone, 64 bytes: its ends, state and
// parameters. Its flow set, carried bits and solver scratch are its
// load, which the leg's first flow makes and which stays from then on,
// so a fabric whose links mostly never carry a flow holds flow state
// only where traffic went. The flow set is a slice in flow-ID order.
package netsim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
// A network's links are its cable-pair slab: each cable's two legs sit
// side by side, so every link has a reverse leg (To→From). The pair
// shares its up/down state: the cable's flag, which both legs and both
// legs' hop entries carry and SetLinkUp writes together. A leg holds no
// names: From and To read them through the node indices it holds.
//
// A leg is the cable alone, 64 bytes; what only a loaded link uses is
// its load (see linkLoad).
type Link struct {
	// up is the cable's state; shaped fills the padding after it. to is
	// the destination node's index and rev the reverse leg of the pair,
	// whose to is this leg's source.
	up       bool
	shaped   bool
	to       int32
	rev      *Link
	Capacity float64 // bits per second (effective)
	Latency  time.Duration
	net      *Network
	// load is nil until the leg's first flow.
	load *linkLoad
	// Nominal (unshaped) cable parameters.
	baseCapacity float64
	baseLatency  time.Duration
}

// linkLoad is a link's flow state: its flow set, the traffic it has
// carried and the solver's bookkeeping. A link has one from its first
// flow on; it outlives the flows, since the carried bits are cumulative
// and the kernel state renders them.
type linkLoad struct {
	// flows holds the live flows routed over the link in flow-ID order,
	// the order every walk over them takes.
	flows []*Flow
	// bitsCarried accumulates the total traffic volume for utilisation
	// reporting and the congestion experiments.
	bitsCarried float64
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

// From returns the name of the node the link leaves.
func (l *Link) From() NodeID { return l.net.nodeList[l.rev.to].ID }

// To returns the name of the node the link enters.
func (l *Link) To() NodeID { return l.net.nodeList[l.to].ID }

// Up reports whether the link is in service.
func (l *Link) Up() bool { return l.up }

// addFlow routes f over the link, making its load on the first flow. A
// started flow has the highest ID yet and goes last; only a re-pathed
// one is inserted before the tail.
func (l *Link) addFlow(f *Flow) {
	if l.load == nil {
		l.load = &linkLoad{}
	}
	ld := l.load
	i := len(ld.flows)
	if i > 0 && ld.flows[i-1].ID > f.ID {
		i, _ = slices.BinarySearchFunc(ld.flows, f.ID, byFlowID)
	}
	ld.flows = slices.Insert(ld.flows, i, f)
}

// removeFlow takes f off the link. The last flow to leave zeroes the
// link's allocation: no solver pass visits the link again until a new
// flow claims it, and utilisation reads must not see a phantom load.
func (l *Link) removeFlow(f *Flow) {
	ld := l.load
	i, _ := slices.BinarySearchFunc(ld.flows, f.ID, byFlowID)
	ld.flows = slices.Delete(ld.flows, i, i+1)
	if len(ld.flows) == 0 {
		ld.allocated = 0
	}
}

// byFlowID orders a flow against a flow ID.
func byFlowID(f *Flow, id int64) int { return cmp.Compare(f.ID, id) }

// loaded reports whether any live flow is routed over the link.
func (l *Link) loaded() bool { return l.load != nil && len(l.load.flows) > 0 }

// FlowCount returns the number of flows currently routed over the link.
func (l *Link) FlowCount() int {
	if l.load == nil {
		return 0
	}
	return len(l.load.flows)
}

// BitsCarried returns the cumulative traffic that has crossed the link,
// materialised to the current virtual time: the committed volume plus
// the pending span of every live flow routed over it. Pending spans are
// summed in flow-ID order, the flow set's own, so identical runs report
// identical volumes.
func (l *Link) BitsCarried() float64 {
	ld := l.load
	if ld == nil {
		return 0
	}
	if l.net == nil || len(ld.flows) == 0 {
		return ld.bitsCarried
	}
	now := l.net.engine.Now()
	total := ld.bitsCarried
	for _, f := range ld.flows {
		total += f.pendingBits(now)
	}
	return total
}

// Shaped reports whether tc-style impairment is applied to the link.
func (l *Link) Shaped() bool { return l.shaped }

// Utilisation returns the instantaneous fraction of capacity in use.
// It reads the solver-maintained allocation, so it is O(1).
func (l *Link) Utilisation() float64 {
	if l.net != nil {
		l.net.flush()
	}
	if l.Capacity <= 0 || l.load == nil {
		return 0
	}
	return l.load.allocated / l.Capacity
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
	// Path is the hop sequence from Src to Dst inclusive, as node
	// indices. StartFlow reads it and keeps the path's links instead, so
	// a started flow's Spec.Path is nil and the caller may reuse the
	// slice.
	Path []int32
	// SizeBits is the transfer volume; zero or negative means an
	// unbounded stream that runs until cancelled.
	SizeBits float64
	// RateCapBps optionally caps the flow below its fair share
	// (application-limited traffic). Zero means no cap.
	RateCapBps float64
	// OnEnd is invoked when the flow stops for any reason.
	OnEnd func(*Flow, EndReason)
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
	// complete is the armed completion event and finishFn its callback,
	// bound to the flow at its first arm and reused by every re-arm.
	complete sim.Event
	finishFn func()
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
// contiguous array instead of chasing a pointer per port. Wire sets the
// up flag and SetLinkUp rewrites it, in both legs' entries.
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
// name-keyed accessors (Node, Link, NeighborLinks, Neighbors, Indices)
// resolve a name once and then read those; flow paths are indices.
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
	// pairs is the cable-pair slab, in the wiring's cable order: each
	// cable's a→b leg, then its b→a leg. It is the network's link order,
	// the one every walk over all links takes.
	pairs [][2]Link
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

// Errors returned by Network and WiringBuilder operations.
var (
	ErrNodeExists   = errors.New("netsim: node already exists")
	ErrNoSuchNode   = errors.New("netsim: no such node")
	ErrLinkExists   = errors.New("netsim: link already exists")
	ErrNoSuchLink   = errors.New("netsim: no such link")
	ErrBadPath      = errors.New("netsim: invalid path")
	ErrFlowEnded    = errors.New("netsim: flow already ended")
	ErrLinkDownPath = errors.New("netsim: path traverses a failed link")
)

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

// TopoEpoch returns the topology/link-state epoch: a network starts at
// its wiring's epoch (see WiringBuilder.Finish), the epoch advances on
// every link-state mutation (up/down, shaping), and route caches keyed
// on it are thereby invalidated. Rate-only changes do not advance it.
// Shaping bumps are deliberately conservative — hop-count routes survive
// shaping, but the epoch contract promises any cached answer derived
// from link state (capacity, latency) dies with it, so future
// weight-aware policies can cache safely.
func (n *Network) TopoEpoch() uint64 { return n.topoEpoch }

// BumpTopoEpoch advances the epoch explicitly, forcing route-cache
// invalidation beyond the automatic bumps netsim's own mutators
// perform.
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

// Node returns the named device, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// NodeAt returns the node with dense index i (see Node.Index).
func (n *Network) NodeAt(i int32) *Node { return n.nodeList[i] }

// NodeCount returns the number of registered devices.
func (n *Network) NodeCount() int { return len(n.nodes) }

// Indices resolves node names to the dense indices a flow path is
// spelled in (see FlowSpec.Path), -1 for a name the network does not
// know, which a path refuses as ErrNoSuchNode.
func (n *Network) Indices(ids ...NodeID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = -1
		if nd := n.nodes[id]; nd != nil {
			out[i] = nd.idx
		}
	}
	return out
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
		if l.loaded() {
			n.markDomainDirty(l.load.dom)
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
		if l.loaded() {
			n.markDomainDirty(l.load.dom)
		}
	}
	n.topoEpoch++
	return nil
}

// endLinkFlows terminates every flow routed over l in flow-ID order, so
// their OnEnd callbacks fire in that order. It walks a copy: each end
// takes its flow off the set.
func (n *Network) endLinkFlows(l *Link, reason EndReason) {
	if !l.loaded() {
		return
	}
	for _, f := range slices.Clone(l.load.flows) {
		n.endFlow(f, reason)
	}
}

// Link returns the directed link from a to b, or nil.
func (n *Network) Link(a, b NodeID) *Link {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return nil
	}
	return n.LinkAt(na.idx, nb.idx)
}

// LinkAt is Link by dense node index: the directed link from the node
// with index a to the node with index b, or nil. It scans the hop array
// of whichever endpoint has fewer links: legs exist only in pairs, so
// b's entry for a holds the reverse leg.
func (n *Network) LinkAt(a, b int32) *Link {
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
			out = append(out, n.nodeList[h.to].ID)
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
// hops. The flow keeps the path's links, not the hop slice.
func (n *Network) StartFlow(spec FlowSpec) (*Flow, error) {
	links, err := n.resolvePath(spec.Path)
	if err != nil {
		return nil, err
	}
	first, last := n.nodeList[spec.Path[0]].ID, n.nodeList[spec.Path[len(spec.Path)-1]].ID
	if first != spec.Src || last != spec.Dst {
		return nil, fmt.Errorf("%w: path endpoints %s..%s do not match src/dst %s..%s",
			ErrBadPath, first, last, spec.Src, spec.Dst)
	}
	n.advance()
	n.nextID++
	spec.Path = nil
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

// resolvePath maps a hop sequence of node indices to directed links,
// validating it hop by hop: each hop must be a node, must not repeat an
// earlier one, and must be cabled to the hop before it by an up link.
// A path is a handful of hops, so a repeat is found by comparing each
// hop with the ones before it rather than by building a set per call.
func (n *Network) resolvePath(path []int32) ([]*Link, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 hops, got %d", ErrBadPath, len(path))
	}
	first := path[0]
	if !n.hasNode(first) {
		return nil, fmt.Errorf("%w: node index %d", ErrNoSuchNode, first)
	}
	links := make([]*Link, 0, len(path)-1)
	from := first
	for _, hop := range path[1:] {
		if !n.hasNode(hop) {
			return nil, fmt.Errorf("%w: node index %d", ErrNoSuchNode, hop)
		}
		// The hops so far are the first node and the heads of the links
		// resolved before this one.
		repeat := hop == first
		for _, l := range links {
			repeat = repeat || l.to == hop
		}
		if repeat {
			return nil, fmt.Errorf("%w: hop %s repeats", ErrBadPath, n.nodeList[hop].ID)
		}
		l := n.LinkAt(from, hop)
		if l == nil {
			return nil, fmt.Errorf("%w: %s->%s", ErrNoSuchLink, n.nodeList[from].ID, n.nodeList[hop].ID)
		}
		if !l.up {
			return nil, fmt.Errorf("%w: %s->%s", ErrLinkDownPath, n.nodeList[from].ID, n.nodeList[hop].ID)
		}
		links = append(links, l)
		from = hop
	}
	return links, nil
}

// hasNode reports whether i is a node's index.
func (n *Network) hasNode(i int32) bool { return i >= 0 && int(i) < len(n.nodeList) }

// SetPath re-points a live flow onto a new path of node indices without
// resetting its transfer state — the IP-less (label-routed) migration
// model, where the transport connection survives because forwarding
// follows the label, not the address. The path is checked as StartFlow
// checks it, endpoints aside.
func (n *Network) SetPath(f *Flow, path []int32) error {
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
		l.removeFlow(f)
	}
	f.path = links
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
		l.removeFlow(f)
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

// finish is a finite flow's completion event: it commits the final
// span, clamps the float drift left by the event-time truncation, and
// ends the flow.
func (f *Flow) finish() {
	n := f.net
	n.advance()
	n.commitFlow(f, n.engine.Now())
	f.remaining = 0
	n.endFlow(f, EndCompleted)
	n.markDirty()
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
			l.load.bitsCarried += moved
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
			if u := l.load.allocated / l.Capacity; u > max {
				max = u
			}
		}
	}
	return max
}
