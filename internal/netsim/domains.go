// Congestion domains: the incremental, locality-aware half of the rate
// allocator. Max-min fairness couples two flows only when they share a
// link, so the live flows partition into connected components over the
// link↔flow incidence graph — "congestion domains". A mutation (flow
// start/end, link up/down, shaping change, re-path) dirties only the
// domain(s) it touches, and flush re-solves exactly those, leaving the
// rest of the fabric untouched. On the paper's mostly-rack-local gravity
// workloads this turns the former whole-fabric progressive fill into a
// handful of rack-sized solves per virtual instant.
//
// Invariants:
//
//   - Every live flow belongs to exactly one domain, reachable through
//     f.dom (a union-find node; find() resolves the root).
//   - For every link with at least one live flow, l.load.dom resolves to
//     the domain all of that link's flows belong to. Links with no live
//     flows carry a stale pointer that is never consulted, or no load.
//   - The partition always equals the true connected components at
//     flush time: merges happen eagerly (StartFlow/SetPath union the
//     domains of every path link), splits lazily (a flow ending flags
//     its root `rebuild`, and flush recomputes components inside that
//     domain only).
//
// Determinism contract: domains are rebuilt and solved in admission
// order of their first live flow, the per-domain fill arithmetic is a
// pure function of the domain's own links and flows, and completion
// events are (re)armed in one global admission-order pass gated on the
// flow's rate actually changing. A full re-solve of every domain
// (KernelMode.FullRecompute) therefore produces byte-identical traces
// to the incremental path — the property TestIncrementalMatchesFullSolver
// pins across the whole canned-scenario catalog.
package netsim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/sim"
)

// domain is a union-find node for one congestion domain. Only the root
// of a set carries meaningful flags and membership; find() resolves it.
type domain struct {
	parent *domain
	rank   int
	// flows lists member flows. It may transiently hold ended flows,
	// duplicate entries, and flows re-pathed into another domain; solve
	// and rebuild skip and compact those lazily.
	flows []*Flow
	// dirty marks the domain for re-solving at the next flush.
	dirty bool
	// rebuild marks that membership may have shrunk (a flow ended or
	// was re-pathed away), so the domain's connected components must be
	// recomputed before solving.
	rebuild bool
}

// newDomain returns a fresh singleton set.
func newDomain() *domain {
	d := &domain{}
	d.parent = d
	return d
}

// find resolves the set root with path compression.
func (d *domain) find() *domain {
	root := d
	for root.parent != root {
		root = root.parent
	}
	for d != root {
		d.parent, d = root, d.parent
	}
	return root
}

// unionDomains merges the sets holding a and b and returns the new
// root. Flow membership and the dirty/rebuild flags migrate to the
// winning root, which joins the dirty worklist if it picks dirtiness up
// from the loser (every dirty root must be listed exactly while dirty).
func (n *Network) unionDomains(a, b *domain) *domain {
	a, b = a.find(), b.find()
	if a == b {
		return a
	}
	if a.rank < b.rank {
		a, b = b, a
	}
	if a.rank == b.rank {
		a.rank++
	}
	b.parent = a
	a.flows = append(a.flows, b.flows...)
	b.flows = nil
	if b.dirty && !a.dirty {
		a.dirty = true
		n.dirtyDomains = append(n.dirtyDomains, a)
	}
	a.rebuild = a.rebuild || b.rebuild
	b.dirty, b.rebuild = false, false
	return a
}

// markDomainDirty queues d's root for re-solving and arms the
// end-of-instant flush.
func (n *Network) markDomainDirty(d *domain) {
	if r := d.find(); !r.dirty {
		r.dirty = true
		n.dirtyDomains = append(n.dirtyDomains, r)
	}
	n.markDirty()
}

// adoptFlow places a newly admitted (or re-pathed) flow into the domain
// structure: the domains of every path link that already carries live
// flows are merged, the flow joins the result, and every path link is
// re-pointed at it. Callers must add f to the links' flow sets first.
func (n *Network) adoptFlow(f *Flow, links []*Link) {
	var dom *domain
	for _, l := range links {
		// The flow set already contains f; another entry means live
		// company.
		if ld := l.load; len(ld.flows) > 1 {
			if dom == nil {
				dom = ld.dom.find()
			} else {
				dom = n.unionDomains(dom, ld.dom)
			}
		}
	}
	if dom == nil {
		dom = newDomain()
	}
	dom.flows = append(dom.flows, f)
	f.dom = dom
	for _, l := range links {
		l.load.dom = dom
	}
	n.markDomainDirty(dom)
}

// solveDirty is the flush body: rebuild split-suspect domains, solve
// each unique dirty root as the claim pass reaches it, then re-arm
// completion events for flows whose rate moved, in admission order.
//
// The worklist makes one virtual instant cost O(dirty domains), not
// O(live flows) — the incremental contract. Determinism rests on three
// facts: the claim pass visits the worklist in admission order, deduped
// by the dirty flag; each domain's fill is a pure function of its own
// links and flows; and completion events are re-armed in one
// admission-ordered pass, so the engine's event sequence does not depend
// on the order domains were solved in.
func (n *Network) solveDirty() {
	span, profStart := n.beginFlushObs()
	if n.fullRecompute {
		n.enqueueAllDomains()
	}
	// Rebuilds append their fresh components to the worklist, so the
	// loop indexes rather than ranges.
	for i := 0; i < len(n.dirtyDomains); i++ {
		if r := n.dirtyDomains[i].find(); r.dirty && r.rebuild {
			n.rebuildDomain(r)
		}
	}

	now := n.engine.Now()
	var solveStart time.Time
	if n.stats.profEnabled {
		solveStart = time.Now()
	}
	// Claim pass: a solve never dirties a domain or moves a root, so each
	// unique dirty root is solved the moment the pass reaches it.
	for i, d := range n.dirtyDomains {
		if r := d.find(); r.dirty {
			r.dirty = false
			n.passSeq++
			n.solveDomain(r, now, n.passSeq)
			n.stats.domains++
		}
		n.dirtyDomains[i] = nil
	}
	n.dirtyDomains = n.dirtyDomains[:0]
	var solveWall time.Duration
	if n.stats.profEnabled {
		solveWall = time.Since(solveStart)
	}
	n.stats.flushes++
	n.rescheduleChanged()
	n.endFlushObs(span, profStart, solveWall)
}

// enqueueAllDomains marks every live domain dirty and lists it on the
// flush worklist (the full-recompute sweep, also behind reallocate()).
func (n *Network) enqueueAllDomains() {
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		if r := f.dom.find(); !r.dirty {
			r.dirty = true
			n.dirtyDomains = append(n.dirtyDomains, r)
		}
	}
}

// rebuildDomain recomputes the connected components among r's surviving
// flows after membership shrank, producing one fresh dirty domain per
// component (each joins the worklist). Links are re-pointed as they are
// claimed; links whose flows all ended are simply never claimed again.
func (n *Network) rebuildDomain(r *domain) {
	n.passSeq++
	pass := n.passSeq
	for _, f := range r.flows {
		if f.ended || f.dom.find() != r {
			continue // ended, duplicate, or re-pathed into another domain
		}
		nd := newDomain()
		nd.dirty = true
		n.dirtyDomains = append(n.dirtyDomains, nd)
		nd.flows = append(nd.flows, f)
		f.dom = nd
		for _, l := range f.path {
			if ld := l.load; ld.pass == pass {
				ld.dom = n.unionDomains(f.dom, ld.dom)
			} else {
				ld.pass = pass
				ld.dom = nd
			}
		}
	}
	r.flows = nil
	r.dirty, r.rebuild = false, false
}

// rateReschedEps is the relative rate change below which a flow's
// pending completion event is left armed rather than re-pushed: the
// event time is still correct to within the same tolerance, and
// skipping the cancel+push pair is what keeps a virtual instant from
// costing O(live flows) heap operations.
const rateReschedEps = 1e-9

// solveDomain runs the progressive-filling max-min fill over one
// domain's flows and links only, after committing each member flow's
// accounting span (the rates are about to be overwritten). The
// arithmetic is a pure function of the domain's own state, so solving a
// clean domain again yields bit-identical rates — the property the
// incremental/full equivalence rests on.
func (n *Network) solveDomain(d *domain, now sim.Time, pass uint64) {
	s := &n.scratch
	flows := s.flows[:0]
	for _, f := range d.flows {
		if f.ended {
			continue
		}
		// Membership check before the pass marker: a stale entry now owned
		// by another domain must not be touched at all.
		if f.dom.find() != d {
			continue
		}
		if f.pass == pass {
			continue
		}
		f.pass = pass
		flows = append(flows, f)
	}
	// Compact the membership list while we have it in hand.
	d.flows = append(d.flows[:0], flows...)

	links := s.links[:0]
	for _, f := range flows {
		for _, l := range f.path {
			if ld := l.load; ld.pass != pass {
				ld.pass = pass
				ld.remaining = l.Capacity
				ld.activeCount = 0
				links = append(links, l)
			}
		}
	}

	// The fill runs on fillRate scratch; committed state (f.rate, the
	// flow's accounting span) is only touched afterwards, and only for
	// flows whose allocation actually moved. Re-solving a clean domain
	// therefore commits nothing — which is what keeps full-recompute and
	// incremental runs byte-identical: commit points depend on real rate
	// changes, never on how often a domain happened to be re-solved.
	active := s.active[:0]
	for _, f := range flows {
		f.fillRate = 0
		onDownLink := false
		for _, l := range f.path {
			if !l.up {
				onDownLink = true
				break
			}
		}
		if !onDownLink {
			active = append(active, f)
			for _, l := range f.path {
				l.load.activeCount++
			}
		}
	}

	for len(active) > 0 {
		inc := math.Inf(1)
		for _, l := range links {
			if ld := l.load; l.up && ld.activeCount > 0 {
				if share := ld.remaining / float64(ld.activeCount); share < inc {
					inc = share
				}
			}
		}
		for _, f := range active {
			if f.Spec.RateCapBps > 0 {
				if room := f.Spec.RateCapBps - f.fillRate; room < inc {
					inc = room
				}
			}
		}
		if math.IsInf(inc, 1) {
			// Active flows with no links and no caps cannot occur
			// (paths have ≥1 link), but guard against livelock.
			break
		}
		if inc < 0 {
			inc = 0
		}
		for _, f := range active {
			f.fillRate += inc
		}
		for _, l := range links {
			if ld := l.load; l.up {
				ld.remaining -= inc * float64(ld.activeCount)
			}
		}
		// Freeze flows at saturated links or at their cap.
		kept := active[:0]
		for _, f := range active {
			frozen := false
			if f.Spec.RateCapBps > 0 && f.fillRate >= f.Spec.RateCapBps-1e-9 {
				frozen = true
			}
			if !frozen {
				for _, l := range f.path {
					if l.load.remaining <= 1e-9 {
						frozen = true
						break
					}
				}
			}
			if frozen {
				for _, l := range f.path {
					l.load.activeCount--
				}
			} else {
				kept = append(kept, f)
			}
		}
		if len(kept) == len(active) {
			// No flow froze despite a finite increment; avoid livelock.
			break
		}
		active = kept
	}

	// Record the deterministic per-link allocation (capacity minus
	// unfilled remainder) and flag flows whose rate moved enough to
	// need their completion event re-armed.
	for _, l := range links {
		if alloc := l.Capacity - l.load.remaining; alloc > 0 {
			l.load.allocated = alloc
		} else {
			l.load.allocated = 0
		}
	}
	for _, f := range flows {
		if f.fillRate != f.rate {
			// The allocation moved: close the span travelled at the old
			// rate, then switch. This bitwise comparison is the commit
			// gate — sub-ulp "changes" cannot occur (the fill is exact
			// arithmetic over the same inputs), so a clean re-solve
			// never commits.
			n.commitFlow(f, now)
			f.rate = f.fillRate
		}
		if rateChanged(f.schedRate, f.rate) && !f.rateDirty {
			f.rateDirty = true
			n.changedFlows = append(n.changedFlows, f)
		}
	}

	s.flows = flows[:0]
	s.links = links[:0]
	s.active = active[:0]
}

// rateChanged reports whether a flow's allocation moved beyond the
// rescheduling epsilon (relative to the larger of the two rates).
func rateChanged(old, new float64) bool {
	diff := new - old
	if diff < 0 {
		diff = -diff
	}
	limit := old
	if new > limit {
		limit = new
	}
	return diff > rateReschedEps*limit
}

// rescheduleChanged re-arms the completion event of every finite flow
// whose rate actually changed, in admission (flow-ID) order so the
// engine's event sequence — and with it whole-run determinism — is
// independent of which domains were solved, and in what order.
//
// Completion-time invariant: a flow is only ever re-armed at the
// instant its rate changed, so f.remaining is span-committed to now and
// now + remaining/rate is the exact finish estimate. Arming at any
// other instant would compute now + stale_remaining/rate — and even
// with materialised state, re-deriving the division from a different
// anchor point shifts the nanosecond truncation by one ulp now and
// then. That anchor sensitivity is the root cause of the 1 ns
// migration-storm trace drift PR 2 observed: the seed's global solver
// re-armed every finite flow at every recompute (anchoring completions
// at arbitrary mutation instants), the domain solver re-arms only on
// rate changes, and one pre-copy transfer's completion rounded to the
// neighbouring nanosecond. The span-anchored kernel pins the anchor to
// the rate-change instant by construction — the assertion below keeps
// it that way.
func (n *Network) rescheduleChanged() {
	if len(n.changedFlows) == 0 {
		return
	}
	now := n.engine.Now()
	sort.Slice(n.changedFlows, func(i, j int) bool {
		return n.changedFlows[i].ID < n.changedFlows[j].ID
	})
	for _, f := range n.changedFlows {
		if f.ended || !f.rateDirty {
			continue
		}
		f.rateDirty = false
		n.stats.rescheduled++
		f.schedRate = f.rate
		f.complete.Cancel()
		f.complete = sim.Event{}
		if f.Spec.SizeBits <= 0 || f.rate <= 0 {
			continue
		}
		if f.lastCalc != now {
			panic(fmt.Sprintf("netsim: flow %d re-armed with a stale span anchor (%v != %v): completion times must be computed at the rate-change instant",
				f.ID, f.lastCalc, now))
		}
		seconds := f.remaining / f.rate
		d := time.Duration(seconds * float64(time.Second))
		if f.finishFn == nil {
			f.finishFn = f.finish
		}
		f.complete = n.engine.Schedule(d, f.finishFn)
	}
	for i := range n.changedFlows {
		n.changedFlows[i] = nil
	}
	n.changedFlows = n.changedFlows[:0]
}
