package netsim

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/sim"
)

// Wiring is a fabric's construction state, immutable and safe to share
// between goroutines: the node set and its name index, each node's
// degree, every cable in creation order with its nominal capacity and
// latency, and the topology epoch a network wired from it starts at. A
// WiringBuilder records it; Wire instantiates networks from it that
// share the nodes and the index and own their links, so a fabric is
// described once and every network of it, a fleet's cold build and its
// forks alike, is wired in bulk; Wire is the only way to make a network.
type Wiring struct {
	nodes  []*Node
	index  map[NodeID]*Node
	degree []int32
	cables []cable
	// params holds the distinct nominal cable parameters, which a
	// fabric has a handful of (host links and uplinks), so a cable
	// costs 12 bytes.
	params []cableParams
	epoch  uint64
}

// cable is one duplex cable of a Wiring: its ends by node index, in the
// order WiringBuilder.AddDuplexLink named them, and its nominal
// parameters' position in the wiring's params.
type cable struct {
	a, b, param int32
}

// cableParams is a cable's nominal capacity and latency.
type cableParams struct {
	capacity float64
	latency  time.Duration
}

// NodeCount returns the number of nodes.
func (w *Wiring) NodeCount() int { return len(w.nodes) }

// NodeAt returns the node with dense index i.
func (w *Wiring) NodeAt(i int32) *Node { return w.nodes[i] }

// CableCount returns the number of cables.
func (w *Wiring) CableCount() int { return len(w.cables) }

// Cable returns cable i: its ends by node index, in the order they were
// added, and its nominal capacity and latency.
func (w *Wiring) Cable(i int) (a, b int32, capacityBps float64, latency time.Duration) {
	c := w.cables[i]
	p := w.params[c.param]
	return c.a, c.b, p.capacity, p.latency
}

// Epoch returns the topology epoch a network wired from w starts at.
func (w *Wiring) Epoch() uint64 { return w.epoch }

// A WiringBuilder records a fabric by index: nodes in one slab with a
// name index, and cables as 12-byte entries, with each node's degree
// counted as they are added. Size it with the fabric's node and cable
// counts and no slice or map grows. Finish returns the Wiring.
type WiringBuilder struct {
	w    *Wiring
	slab []Node
}

// NewWiringBuilder returns an empty builder sized for the given number
// of nodes and cables.
func NewWiringBuilder(nodes, cables int) *WiringBuilder {
	return &WiringBuilder{
		w: &Wiring{
			nodes:  make([]*Node, 0, nodes),
			index:  make(map[NodeID]*Node, nodes),
			degree: make([]int32, 0, nodes),
			cables: make([]cable, 0, cables),
		},
		slab: make([]Node, 0, nodes),
	}
}

// AddNode records a device and returns its dense index, the next in
// creation order. A name already recorded is refused with ErrNodeExists.
func (wb *WiringBuilder) AddNode(id NodeID, kind NodeKind) (int32, error) {
	if _, dup := wb.w.index[id]; dup {
		return -1, fmt.Errorf("%w: %s", ErrNodeExists, id)
	}
	i := int32(len(wb.w.nodes))
	wb.slab = append(wb.slab, Node{ID: id, Kind: kind, idx: i})
	nd := &wb.slab[len(wb.slab)-1]
	wb.w.index[id] = nd
	wb.w.nodes = append(wb.w.nodes, nd)
	wb.w.degree = append(wb.w.degree, 0)
	return i, nil
}

// AddDuplexLink records a full-duplex cable between the nodes with
// indices a and b. It refuses an unknown node with ErrNoSuchNode, and a
// self-loop and a non-positive capacity. A cable recorded twice is
// refused by Finish.
func (wb *WiringBuilder) AddDuplexLink(a, b int32, capacityBps float64, latency time.Duration) error {
	for _, end := range [2]int32{a, b} {
		if end < 0 || int(end) >= len(wb.w.nodes) {
			return fmt.Errorf("%w: index %d", ErrNoSuchNode, end)
		}
	}
	if a == b {
		return fmt.Errorf("netsim: self-loop link on %s", wb.w.nodes[a].ID)
	}
	if capacityBps <= 0 {
		return fmt.Errorf("netsim: non-positive capacity on link %s-%s", wb.w.nodes[a].ID, wb.w.nodes[b].ID)
	}
	wb.w.cables = append(wb.w.cables, cable{a: a, b: b, param: wb.param(cableParams{capacityBps, latency})})
	wb.w.degree[a]++
	wb.w.degree[b]++
	return nil
}

// param returns p's position in the wiring's params, adding it if new.
// A fabric has a handful of distinct parameters, so a scan finds them.
func (wb *WiringBuilder) param(p cableParams) int32 {
	w := wb.w
	if i := slices.Index(w.params, p); i >= 0 {
		return int32(i)
	}
	w.params = append(w.params, p)
	return int32(len(w.params) - 1)
}

// Finish refuses a cable recorded twice, in either direction, with
// ErrLinkExists, and returns the wiring; the builder must not be used
// afterwards. The check visits each node's cables once with one stamp
// per node, so it is linear in the cables, and the networks Wire builds
// from the result never repeat it. The wiring's epoch counts one bump
// per node, one per cable and one for the finished build, so no route
// cache keyed on the epoch survives a build.
func (wb *WiringBuilder) Finish() (*Wiring, error) {
	w := wb.w
	wb.w, wb.slab = nil, nil
	// Each node's cables, by position, cut from one array at offsets
	// given by the degrees.
	off := make([]int32, len(w.nodes)+1)
	for i, d := range w.degree {
		off[i+1] = off[i] + d
	}
	next := slices.Clone(off[:len(w.nodes)])
	at := make([]int32, 2*len(w.cables))
	for ci, c := range w.cables {
		at[next[c.a]] = int32(ci)
		next[c.a]++
		at[next[c.b]] = int32(ci)
		next[c.b]++
	}
	// stamp[v] is u+1 once node u has seen a cable to v.
	stamp := next
	clear(stamp)
	for u := range w.nodes {
		mark := int32(u) + 1
		for _, ci := range at[off[u]:off[u+1]] {
			c := w.cables[ci]
			v := c.a
			if v == int32(u) {
				v = c.b
			}
			if stamp[v] == mark {
				return nil, fmt.Errorf("%w: %s->%s", ErrLinkExists, w.nodes[c.a].ID, w.nodes[c.b].ID)
			}
			stamp[v] = mark
		}
	}
	w.epoch = uint64(len(w.nodes)+len(w.cables)) + 1
	return w, nil
}

// Wire builds a network on engine that shares w's nodes and name index
// and allocates its own link state in bulk: one slab of cable pairs in
// w's cable order, which is the network's link order, and one slab of
// hop entries cut into per-node arrays capped at each node's degree,
// each filled in cable order. The network starts at w's epoch.
func Wire(engine *sim.Engine, w *Wiring) *Network {
	n := &Network{engine: engine, nodes: w.index, nodeList: w.nodes, lastAdvance: -1, topoEpoch: w.epoch}
	n.flushFn = n.flush
	n.out = make([][]Hop, len(w.nodes))
	hops := make([]Hop, 2*len(w.cables))
	off := 0
	for i, d := range w.degree {
		end := off + int(d)
		n.out[i] = hops[off:off:end]
		off = end
	}
	n.pairs = make([][2]Link, len(w.cables))
	for i, c := range w.cables {
		p := w.params[c.param]
		ends := [2]int32{c.a, c.b}
		for j, from := range ends {
			to := ends[1-j]
			l := &n.pairs[i][j]
			l.to, l.rev = to, &n.pairs[i][1-j]
			l.up, l.net = true, n
			l.Capacity, l.Latency = p.capacity, p.latency
			l.baseCapacity, l.baseLatency = p.capacity, p.latency
			n.out[from] = append(n.out[from], Hop{to: to, kind: w.nodes[to].Kind, up: true, link: l})
		}
	}
	return n
}
