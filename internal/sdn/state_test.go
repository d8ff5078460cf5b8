package sdn

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/openflow"
)

// writeStateFmt is the fmt rendering AppendState replaced, kept as its
// oracle: the same bytes, one Fprintf per line.
func writeStateFmt(c *Controller, w io.Writer) {
	fmt.Fprintf(w, "sdn switches=%d packetIns=%d rules=%d epoch=%d cache=%d hits=%d misses=%d evictions=%d synth=%d nextLabel=%d\n",
		len(c.registered), c.packetIns, c.rulesInstalled, c.net.TopoEpoch(),
		len(c.routeCache), c.cacheHits, c.cacheMisses, c.cacheEvictions, c.synthHits, c.nextLabel)
	names := make([]string, 0, len(c.labelName))
	for name := range c.labelName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := c.labelName[name]
		fmt.Fprintf(w, "label %s=%d@%s\n", name, l, c.labels[l])
	}
}

// TestStateRenderMatchesFmt: the controller's strconv rendering writes
// the fmt oracle's bytes as labels are bound and moved, flows admitted
// (packet-ins, rule installs, route-cache misses) and links failed,
// into one reused buffer.
func TestStateRenderMatchesFmt(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(9))
	var labels []openflow.Label
	var buf []byte
	for step := 0; step < 300; step++ {
		rack, idx := rng.Intn(len(r.topo.Racks)), rng.Intn(len(r.topo.Racks[0]))
		switch op := rng.Intn(10); {
		case op < 3:
			labels = append(labels, r.ctrl.AssignLabel(fmt.Sprintf("vm-%d", rng.Intn(40)), r.host(rack, idx)))
		case op < 4 && len(labels) > 0:
			if err := r.ctrl.MoveLabel(labels[rng.Intn(len(labels))], r.host(rack, idx)); err != nil {
				t.Fatal(err)
			}
		case op < 8:
			dst := r.host(rng.Intn(len(r.topo.Racks)), rng.Intn(len(r.topo.Racks[0])))
			if dst == r.host(rack, idx) {
				continue
			}
			_, _, _ = r.ctrl.Admit(openflow.PacketInfo{Src: r.host(rack, idx), Dst: dst, Proto: "tcp", DstPort: 80}, PolicyECMP)
		case op < 9:
			tor, agg := r.topo.Edge[rng.Intn(len(r.topo.Edge))], r.topo.Agg[rng.Intn(len(r.topo.Agg))]
			if err := r.net.SetLinkUp(tor, agg, !r.net.Link(tor, agg).Up()); err != nil {
				t.Fatal(err)
			}
		default:
			if err := r.engine.RunFor(time.Duration(rng.Intn(30)) * time.Second); err != nil {
				t.Fatal(err)
			}
		}
		var want bytes.Buffer
		writeStateFmt(r.ctrl, &want)
		buf = r.ctrl.AppendState(buf[:0], nil)
		if !bytes.Equal(buf, want.Bytes()) {
			t.Fatalf("step %d:\n%s\nwant\n%s", step, buf, want.Bytes())
		}
	}
	if len(r.ctrl.labelName) == 0 || r.ctrl.packetIns == 0 {
		t.Fatalf("script degenerated: %d labels, %d packet-ins", len(r.ctrl.labelName), r.ctrl.packetIns)
	}
}
