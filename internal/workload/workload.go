// Package workload implements the Cloud applications the paper runs on
// the PiCloud — "lightweight httpd servers, hadoop etc." (Section IV) and
// the web server / database / Hadoop containers of Fig. 3 — plus the
// traffic-pattern generators behind the realism argument of Section I
// (ON/OFF heavy-tail sources and a time-varying gravity traffic matrix).
//
// Workloads execute on real simulated resources: CPU work in container
// cgroups, reads/writes on the SD-card queue, and transfers as netsim
// flows admitted through the OpenFlow/SDN pipeline. Cross-layer effects
// (a congested uplink slowing a shuffle; a noisy neighbour stealing CPU)
// come out of the models rather than being assumed.
package workload

import (
	"errors"
	"fmt"

	"repro/internal/lxc"
	"repro/internal/netsim"
	"repro/internal/openflow"
	"repro/internal/sdn"
	"repro/internal/sim"
)

// Errors.
var (
	ErrNoServers = errors.New("workload: no servers")
	ErrStopped   = errors.New("workload: generator stopped")
)

// Endpoint locates a container in the cloud.
type Endpoint struct {
	Host      netsim.NodeID
	Suite     *lxc.Suite
	Container string
}

// Validate checks the endpoint is complete.
func (e Endpoint) Validate() error {
	if e.Host == "" || e.Suite == nil || e.Container == "" {
		return fmt.Errorf("workload: incomplete endpoint %+v", e)
	}
	return nil
}

// Fabric bundles the network-side plumbing every workload needs: flows
// admitted through the SDN pipeline under a chosen routing policy.
type Fabric struct {
	Engine *sim.Engine
	Net    *netsim.Network
	Ctrl   *sdn.Controller
	Policy sdn.Policy
}

// Send admits a transfer of bytes from src to dst (TCP to port) and
// invokes onDone with nil on completion or the failure otherwise.
func (f *Fabric) Send(src, dst netsim.NodeID, bytes int64, port uint16, onDone func(error)) error {
	if bytes <= 0 {
		return fmt.Errorf("workload: non-positive transfer size %d", bytes)
	}
	pkt := openflow.PacketInfo{Src: src, Dst: dst, Proto: "tcp", DstPort: port}
	path, _, err := f.Ctrl.Admit(pkt, f.Policy)
	if err != nil {
		return fmt.Errorf("workload: admitting %s->%s: %w", src, dst, err)
	}
	_, err = f.Net.StartFlow(netsim.FlowSpec{
		Src: src, Dst: dst, Path: path,
		SizeBits: float64(bytes) * 8,
		Label:    fmt.Sprintf("app/%s->%s:%d", src, dst, port),
		OnEnd: func(_ *netsim.Flow, reason netsim.EndReason) {
			if onDone == nil {
				return
			}
			if reason == netsim.EndCompleted {
				onDone(nil)
			} else {
				onDone(fmt.Errorf("workload: flow %s", reason))
			}
		},
	})
	return err
}

// CrossRackBytes sums traffic that crossed any ToR uplink — the metric
// the network-aware placement experiment compares.
//
// On a fabric built by the topology package the answer comes from the
// hierarchical telemetry groups (each rack's uplinks are tagged at
// build time), costing O(racks + members of disturbed racks) instead of
// O(edges × links); idle racks are one cached read each. The direct
// walk remains for hand-wired networks and accumulates per-edge
// subtotals in the same order the grouped path does (float addition is
// not associative, so the summation *shape* — per-rack partials, then
// the rack totals in edge order — must match for the two paths to
// report identical bytes).
// The grouped fast path answers for the whole fabric, so it only
// engages when the caller asked for every edge; a subset query takes
// the walk.
func CrossRackBytes(net *netsim.Network, edges []netsim.NodeID) float64 {
	if len(edges) == net.LinkGroupCount() {
		if bits, ok := net.GroupedBitsCarried(); ok {
			return bits / 8
		}
	}
	total := 0.0
	for _, e := range edges {
		sub := 0.0
		for _, h := range net.NeighborLinks(e) {
			if h.Kind() == netsim.KindSwitch {
				sub += h.Link().BitsCarried()
			}
		}
		total += sub
	}
	return total / 8
}
