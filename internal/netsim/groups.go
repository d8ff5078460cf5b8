// Hierarchical flow telemetry: per-group traffic sub-totals, the
// traffic mirror of the energy layer's per-rack sub-meters. The
// topology builders tag each rack's ToR→aggregation uplinks into a
// group keyed by the rack (edge/leaf) index, and queries like the
// cross-rack traffic matrix then cost O(groups + members of disturbed
// groups) instead of walking every link in the fabric — on a 10⁶-node
// fleet that is 256 cached sub-totals against ~2 million host links.
//
// Caching contract: a group's committed sub-total is valid while the
// group is undisturbed — no member link carries a live flow (live
// flows accrue a continuously growing pending span) and no commit has
// touched a member since the cache was taken. Disturbed groups re-read
// their members in link-creation order, so the float summation order —
// and therefore the reported total — is identical run over run.
package netsim

import (
	"fmt"
	"sort"
)

// linkGroup is one telemetry sub-total: the set of links tagged with
// the same group id.
type linkGroup struct {
	id    int
	links []*Link // tag order (deterministic summation order)
	// committed caches Σ member BitsCarried as of the last clean read.
	committed float64
	// dirty is set whenever a member link's committed volume moves.
	dirty bool
	// live counts member links currently carrying at least one flow;
	// while non-zero the group total includes growing pending spans and
	// the cache stands down.
	live int
}

// TagLinkGroup assigns the directed link from→to to telemetry group id
// (re-tagging moves it). The topology builders use it to group each
// rack's uplinks under the rack index. A tag survives re-cabling: when
// a tagged link is removed and the same directed cable is wired again,
// the new link rejoins its group, so the grouped totals keep agreeing
// with the direct walk.
func (n *Network) TagLinkGroup(from, to NodeID, id int) error {
	l := n.Link(from, to)
	if l == nil {
		return fmt.Errorf("%w: %s->%s", ErrNoSuchLink, from, to)
	}
	n.tagLink(l, id)
	return nil
}

// tagLink files a link under a group id.
func (n *Network) tagLink(l *Link, id int) {
	if l.grp != nil {
		n.untagLink(l)
	}
	if n.groups == nil {
		n.groups = make(map[int]*linkGroup)
	}
	g := n.groups[id]
	if g == nil {
		g = &linkGroup{id: id}
		n.groups[id] = g
		n.groupOrder = append(n.groupOrder, id)
		n.groupStale = true
	}
	g.links = append(g.links, l)
	g.dirty = true
	if len(l.flows) > 0 {
		g.live++
	}
	l.grp = g
}

// LinkGroupCount returns the number of registered telemetry groups.
func (n *Network) LinkGroupCount() int { return len(n.groups) }

// untagLink removes a link from its group (re-tagging, link removal).
func (n *Network) untagLink(l *Link) {
	g := l.grp
	kept := g.links[:0]
	for _, m := range g.links {
		if m != l {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(g.links); i++ {
		g.links[i] = nil
	}
	g.links = kept
	if len(l.flows) > 0 {
		g.live--
	}
	g.dirty = true
	l.grp = nil
}

// linkGainedFlow / linkLostFlow maintain the live-member count on the
// 0↔1 flow transitions (admission, re-path, end).
func linkGainedFlow(l *Link) {
	if l.grp != nil && len(l.flows) == 1 {
		l.grp.live++
	}
}

func linkLostFlow(l *Link) {
	if l.grp != nil && len(l.flows) == 0 {
		l.grp.live--
		// The flow's final span was committed as it left: refresh the
		// cache lazily on the next read.
		l.grp.dirty = true
	}
}

// bits returns the group's cumulative traffic, materialised to now.
// Undisturbed groups answer from the cache; disturbed ones re-read
// their members (BitsCarried materialises live pending spans exactly)
// and re-cache once no member carries a live flow.
func (g *linkGroup) bits() float64 {
	if g.live == 0 && !g.dirty {
		return g.committed
	}
	total := 0.0
	for _, l := range g.links {
		total += l.BitsCarried()
	}
	if g.live == 0 {
		g.dirty = false
		g.committed = total
	}
	return total
}

// GroupBitsCarried returns the cumulative bits carried across the links
// of one telemetry group, up to the current virtual time.
func (n *Network) GroupBitsCarried(id int) float64 {
	g := n.groups[id]
	if g == nil {
		return 0
	}
	return g.bits()
}

// GroupedBitsCarried sums every telemetry group — with the uplink
// tagging convention, the fabric-wide cross-rack traffic volume — in
// stable ascending group order, costing O(groups + members of disturbed
// groups). ok is false when no link has been tagged (untagged fabrics
// fall back to the direct walk).
func (n *Network) GroupedBitsCarried() (total float64, ok bool) {
	if len(n.groups) == 0 {
		return 0, false
	}
	if n.groupStale {
		sort.Ints(n.groupOrder)
		n.groupStale = false
	}
	for _, id := range n.groupOrder {
		total += n.groups[id].bits()
	}
	return total, true
}

// LinkGroupIDs returns the registered telemetry group ids in ascending
// order.
func (n *Network) LinkGroupIDs() []int {
	if n.groupStale {
		sort.Ints(n.groupOrder)
		n.groupStale = false
	}
	return append([]int(nil), n.groupOrder...)
}
