package netsim

import (
	"time"

	"repro/internal/sim"
)

// Wiring is a sealed network's construction state, immutable and safe
// to share between goroutines: the node set and its name index, each
// node's degree, every cable in creation order with its nominal
// capacity and latency, and the topology epoch at sealing. Wire
// instantiates networks from it that share the nodes and the index and
// own their links, so a fabric that never changes its node set is
// built once and instantiated in bulk (a fleet's forks).
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
// order AddDuplexLink named them, and its nominal parameters' position
// in the wiring's params.
type cable struct {
	a, b, param int32
}

// cableParams is a cable's nominal capacity and latency.
type cableParams struct {
	capacity float64
	latency  time.Duration
}

// Seal freezes the network's node set and returns its wiring. From then
// on AddNode is refused with ErrSealed, and the nodes and name index are
// shared read-only with every network Wire builds from the result.
// Links stay the network's own: shaping, link state and runtime
// AddDuplexLink/RemoveDuplexLink behave as before. The wiring records
// each cable's nominal parameters, so networks wired from it start with
// every cable up and unshaped; seal a network before running it.
func (n *Network) Seal() *Wiring {
	n.sealed = true
	w := &Wiring{
		nodes:  n.nodeList,
		index:  n.nodes,
		degree: make([]int32, len(n.out)),
		cables: make([]cable, 0, len(n.linkList)/2),
		epoch:  n.topoEpoch,
	}
	for i, hops := range n.out {
		w.degree[i] = int32(len(hops))
	}
	// Both legs of a cable are listed together, the AddDuplexLink leg
	// first, and RemoveDuplexLink drops them together. A builder wires
	// cables of one kind in runs, so the previous cable's parameters
	// are tried before the index.
	index := map[cableParams]int32{}
	param := int32(-1)
	for i := 0; i < len(n.linkList); i += 2 {
		l := n.linkList[i]
		p := cableParams{l.baseCapacity, l.baseLatency}
		if param < 0 || w.params[param] != p {
			var known bool
			if param, known = index[p]; !known {
				param = int32(len(w.params))
				index[p] = param
				w.params = append(w.params, p)
			}
		}
		w.cables = append(w.cables, cable{a: l.rev.to, b: l.to, param: param})
	}
	return w
}

// Wire builds a network on engine that shares w's nodes and name index
// and allocates its own link state in bulk: one slab of cable pairs,
// one slab of hop entries cut into per-node arrays capped at each
// node's degree, and one link list. Every cable goes through the
// routine AddDuplexLink uses, so node indices, hop order, link order
// and the topology epoch equal those of the network w was sealed from.
// The node set is sealed; a runtime AddDuplexLink outgrows a node's
// capped array into a fresh one and leaves its neighbours' intact.
func Wire(engine *sim.Engine, w *Wiring) *Network {
	n := newNetwork(engine)
	n.nodes, n.nodeList, n.sealed = w.index, w.nodes, true
	n.out = make([][]Hop, len(w.nodes))
	hops := make([]Hop, 2*len(w.cables))
	off := 0
	for i, d := range w.degree {
		end := off + int(d)
		n.out[i] = hops[off:off:end]
		off = end
	}
	pairs := make([][2]Link, len(w.cables))
	n.linkList = make([]*Link, 0, 2*len(w.cables))
	for i, c := range w.cables {
		p := w.params[c.param]
		n.wire(&pairs[i], w.nodes[c.a], w.nodes[c.b], p.capacity, p.latency)
	}
	n.topoEpoch = w.epoch
	return n
}
