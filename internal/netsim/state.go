// Kernel state capture for checkpointing: a deterministic, byte-exact
// rendering of the network layer's simulated state. Two networks that
// executed the same mutation history append the same bytes — floats are
// written as raw IEEE-754 bit patterns, every walk follows the cable
// slab or an admission-order list, and the capture is read-only apart
// from an idempotent flush of pending rate work (which a settled
// instant has already performed).
package netsim

import (
	"math"
	"strconv"

	"repro/internal/sim"
)

// AppendState appends the span-anchored flow accounting and link state
// to buf in a deterministic text form — one layer of the cross-layer
// fingerprint core.KernelState hashes. Links are listed in
// cable-slab order (each cable's a→b leg, then its b→a leg) and skipped
// while pristine (up, unshaped, never carried a bit, no flows), so
// megafleet captures scale with activity, not fabric size; a link no
// flow ever reached has no load and renders as an empty one. Flows are
// listed in admission order, committed state only (the pending span is
// a pure function of rate, anchor and the clock, all of which are
// captured). Numbers are appended with strconv, floats as the sixteen
// hex digits of their bits. The buffer is handed to spill after each
// line (nil keeps it all).
func (n *Network) AppendState(buf []byte, spill *sim.StateHash) []byte {
	n.flush()
	buf = append(buf, "netsim nodes="...)
	buf = strconv.AppendInt(buf, int64(len(n.nodes)), 10)
	buf = append(buf, " links="...)
	buf = strconv.AppendInt(buf, int64(2*len(n.pairs)), 10)
	buf = append(buf, " active="...)
	buf = strconv.AppendInt(buf, int64(n.active), 10)
	buf = append(buf, " nextID="...)
	buf = strconv.AppendInt(buf, n.nextID, 10)
	buf = append(buf, " topoEpoch="...)
	buf = strconv.AppendUint(buf, n.topoEpoch, 10)
	buf = append(buf, '\n')
	var none linkLoad
	for i := range n.pairs {
		for j := range n.pairs[i] {
			l := &n.pairs[i][j]
			ld := l.load
			if ld == nil {
				ld = &none
			}
			if l.up && !l.shaped && ld.bitsCarried == 0 && len(ld.flows) == 0 {
				continue
			}
			buf = append(buf, "link "...)
			buf = append(buf, n.nodeList[l.rev.to].ID...)
			buf = append(buf, '>')
			buf = append(buf, n.nodeList[l.to].ID...)
			buf = append(buf, " up="...)
			buf = strconv.AppendBool(buf, l.up)
			buf = append(buf, " shaped="...)
			buf = strconv.AppendBool(buf, l.shaped)
			buf = appendBits(buf, " cap=", l.Capacity)
			buf = append(buf, " lat="...)
			buf = strconv.AppendInt(buf, int64(l.Latency), 10)
			buf = appendBits(buf, " bits=", ld.bitsCarried)
			buf = appendBits(buf, " alloc=", ld.allocated)
			buf = append(buf, " flows="...)
			buf = strconv.AppendInt(buf, int64(len(ld.flows)), 10)
			buf = append(buf, '\n')
			buf = spill.Spill(buf)
		}
	}
	for _, f := range n.flowOrder {
		if f.ended {
			continue
		}
		buf = append(buf, "flow "...)
		buf = strconv.AppendInt(buf, f.ID, 10)
		buf = append(buf, ' ')
		buf = append(buf, f.Spec.Src...)
		buf = append(buf, '>')
		buf = append(buf, f.Spec.Dst...)
		buf = appendBits(buf, " rate=", f.rate)
		buf = appendBits(buf, " done=", f.bitsDone)
		buf = appendBits(buf, " rem=", f.remaining)
		buf = append(buf, " anchor="...)
		buf = strconv.AppendInt(buf, int64(f.lastCalc), 10)
		buf = append(buf, " started="...)
		buf = strconv.AppendInt(buf, int64(f.started), 10)
		buf = appendBits(buf, " sched=", f.schedRate)
		buf = appendBits(buf, " cap=", f.Spec.RateCapBps)
		buf = append(buf, " hops="...)
		buf = strconv.AppendInt(buf, int64(len(f.path)), 10)
		buf = append(buf, '\n')
		buf = spill.Spill(buf)
	}
	return buf
}

// appendBits appends key and the hex of v's IEEE-754 bits.
func appendBits(buf []byte, key string, v float64) []byte {
	return sim.AppendHex64(append(buf, key...), math.Float64bits(v))
}
