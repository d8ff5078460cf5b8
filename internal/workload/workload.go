// Package workload implements the Cloud applications the paper runs on
// the PiCloud — "lightweight httpd servers, hadoop etc." (Section IV) and
// the web server and Hadoop containers of Fig. 3 — plus the
// traffic-pattern generators behind the realism argument of Section I
// (ON/OFF heavy-tail sources and a time-varying gravity traffic matrix).
// Fig. 3's database container has no workload model of its own: the
// placement experiment (R1) sends its web→database traffic to KVPort as
// plain transfers.
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
	"repro/internal/topology"
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

// UplinkBits returns the traffic edge switch e has carried out of its
// rack: the BitsCarried of its uplinks (topology.Uplinks), summed in hop
// order, live flows' pending spans included. It defines a rack's
// traffic for CrossRackBytes and the session telemetry alike.
func UplinkBits(net *netsim.Network, e netsim.NodeID) float64 {
	total := 0.0
	for l := range topology.Uplinks(net, e) {
		total += l.BitsCarried()
	}
	return total
}

// CrossRackBytes sums traffic that crossed any uplink of the given edge
// switches — the metric the network-aware placement experiment
// compares: UplinkBits per edge, added up in the order given.
func CrossRackBytes(net *netsim.Network, edges []netsim.NodeID) float64 {
	total := 0.0
	for _, e := range edges {
		total += UplinkBits(net, e)
	}
	return total / 8
}
