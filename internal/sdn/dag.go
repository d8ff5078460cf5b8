package sdn

// Index-keyed routing state. Route computation works on netsim's dense
// node indices: per-call membership sets are epoch-stamped arrays the
// controller owns (emptying one is a counter increment), a finished
// equal-cost predecessor DAG is one int32 allocation the route cache
// keeps, and node names are read only where they decide an order — the
// parent runs and Dijkstra's settle order — or reach the caller.

import (
	"slices"
	"strings"

	"repro/internal/netsim"
)

// routeDAG is an equal-cost predecessor DAG over node indices. For each
// node that has parents it holds a run of them in ascending name order:
// the order walkBack's ECMP hash indexes into, so it decides
// every routed path, trace and digest. nodes is ascending by index, and
// nodes[i]'s run is runs[ends[i-1]:ends[i]] (from 0 for i = 0). The
// three slices share one allocation.
type routeDAG struct {
	nodes, ends, runs []int32
}

// parents returns x's equal-cost predecessors in name order, or nil.
func (d *routeDAG) parents(x int32) []int32 {
	i, ok := slices.BinarySearch(d.nodes, x)
	if !ok {
		return nil
	}
	lo := int32(0)
	if i > 0 {
		lo = d.ends[i-1]
	}
	return d.runs[lo:d.ends[i]]
}

// dagBuilder collects a DAG's parent edges in reusable scratch and packs
// them into a routeDAG.
type dagBuilder struct {
	edges []uint64 // node<<32 | parent
}

func (b *dagBuilder) reset() { b.edges = b.edges[:0] }

// add records parent as an equal-cost predecessor of node. Callers add
// each edge once.
func (b *dagBuilder) add(node, parent int32) {
	b.edges = append(b.edges, uint64(node)<<32|uint64(parent))
}

// build packs the collected edges into a routeDAG, grouping them by
// node and sorting every parent run by name.
func (b *dagBuilder) build(net *netsim.Network) routeDAG {
	slices.Sort(b.edges)
	m := 0
	for i, e := range b.edges {
		if i == 0 || e>>32 != b.edges[i-1]>>32 {
			m++
		}
	}
	buf := make([]int32, 2*m+len(b.edges))
	d := routeDAG{nodes: buf[:m], ends: buf[m : 2*m], runs: buf[2*m:]}
	k := -1
	for i, e := range b.edges {
		if node := int32(e >> 32); k < 0 || d.nodes[k] != node {
			k++
			d.nodes[k] = node
		}
		d.runs[i] = int32(uint32(e))
		d.ends[k] = int32(i + 1)
	}
	byName := func(x, y int32) int {
		return strings.Compare(string(net.NodeAt(x).ID), string(net.NodeAt(y).ID))
	}
	lo := int32(0)
	for _, hi := range d.ends {
		slices.SortFunc(d.runs[lo:hi], byName)
		lo = hi
	}
	return d
}

// stampSet is a membership set over node indices that empties in O(1):
// a node is a member while its stamp equals the set's generation.
type stampSet struct {
	stamp []uint32
	gen   uint32
}

// reset empties the set and sizes it for n nodes.
func (s *stampSet) reset(n int) {
	if len(s.stamp) < n {
		s.stamp = append(s.stamp, make([]uint32, n-len(s.stamp))...)
	}
	s.gen++
	if s.gen == 0 {
		// Wrapped: stamps from 2³² generations ago would read as members.
		clear(s.stamp)
		s.gen = 1
	}
}

func (s *stampSet) add(i int32)      { s.stamp[i] = s.gen }
func (s *stampSet) has(i int32) bool { return s.stamp[i] == s.gen }

// distItem is a Dijkstra frontier entry.
type distItem struct {
	dist float64
	node int32
}

// distHeap is Dijkstra's frontier: a binary min-heap ordered by
// (distance, node name), so nodes at equal distance settle in name
// order. The order is total up to identical entries, so the pop
// sequence — and with it every equal-cost parent set the float
// tolerance admits — does not depend on the heap's internals.
type distHeap struct {
	items []distItem
	net   *netsim.Network
}

func (h *distHeap) less(a, b distItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return h.net.NodeAt(a.node).ID < h.net.NodeAt(b.node).ID
}

func (h *distHeap) push(it distItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.items[i], h.items[p]) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *distHeap) pop() distItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		m := l
		if r := l + 1; r < last && h.less(h.items[r], h.items[l]) {
			m = r
		}
		if !h.less(h.items[m], h.items[i]) {
			break
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
	return top
}
