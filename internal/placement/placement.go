// Package placement implements the VM-allocation algorithms the PiCloud
// exists to study (Section III: "The way in which VMs are allocated is
// crucial; we can experiment with new algorithms on the PiCloud").
//
// It provides the classical baselines (round-robin, first-fit, best-fit,
// worst-fit), a network-aware placer that keeps communicating containers
// rack-local, and a power-aware consolidation planner that drains
// lightly-used nodes so they can be switched off — the policy whose
// network ripple effects experiment R2 measures.
//
// A View's rows form runs of identical load, and a placer's choice is
// always a run's first row, so the scoring placers and first-fit visit
// the run heads the view keeps (see View), not every row: a fleet of
// idle racks costs one visit per rack.
package placement

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/hw"
	"repro/internal/netsim"
)

// Errors.
var (
	ErrNoCapacity = errors.New("placement: no node can host the request")
	ErrUnknown    = errors.New("placement: unknown container")
)

// NodeView is one node as the placer sees it.
type NodeView struct {
	ID       netsim.NodeID
	Rack     int
	CPU      hw.MIPS // board capacity
	CPUUsed  hw.MIPS // sum of placed demands
	MemTotal int64
	MemUsed  int64
	// Containers is the number currently hosted; MaxContainers is the
	// comfortable density (3 on a Pi).
	Containers    int
	MaxContainers int
	PoweredOn     bool
}

// View is the cluster state a placement decision is made against.
//
// Rows equal in every field but ID (see repeats) form runs, and only a
// run's first row, its head, can be a placer's choice: a fleet of idle
// hosts is a handful of runs, so the scoring placers visit heads, not
// rows. The view keeps the heads' indices, derived from Nodes by the
// first placement that needs them; from then on write rows through
// SetRow, which keeps the heads up to date (a row written straight into
// Nodes is not seen).
type View struct {
	Nodes []NodeView
	// Locate maps container name → hosting node.
	Locate map[string]netsim.NodeID

	// heads lists the run heads' indices in ascending order; nil until
	// derived.
	heads []int32
}

// SetRow replaces row i and keeps the run heads up to date: only row i
// and the row after it can change whether they start a run.
func (v *View) SetRow(i int, row NodeView) {
	v.Nodes[i] = row
	if v.heads == nil {
		return
	}
	v.setHead(i, !v.repeats(i))
	if i+1 < len(v.Nodes) {
		v.setHead(i+1, !v.repeats(i+1))
	}
}

// setHead records whether row i heads a run.
func (v *View) setHead(i int, head bool) {
	at, found := slices.BinarySearch(v.heads, int32(i))
	switch {
	case head && !found:
		v.heads = slices.Insert(v.heads, at, int32(i))
	case !head && found:
		v.heads = slices.Delete(v.heads, at, at+1)
	}
}

// runHeads returns the run heads, deriving them from Nodes when absent.
func (v *View) runHeads() []int32 {
	if v.heads == nil {
		v.heads = make([]int32, 0, 16)
		for i := range v.Nodes {
			if !v.repeats(i) {
				v.heads = append(v.heads, int32(i))
			}
		}
	}
	return v.heads
}

// NodeByID returns a pointer into Nodes, or nil.
func (v *View) NodeByID(id netsim.NodeID) *NodeView {
	for i := range v.Nodes {
		if v.Nodes[i].ID == id {
			return &v.Nodes[i]
		}
	}
	return nil
}

// Request is a container placement ask.
type Request struct {
	Name string
	// CPUDemandMIPS is the expected sustained demand.
	CPUDemandMIPS hw.MIPS
	// MemBytes is the container's total footprint (idle RSS + app).
	MemBytes int64
	// Peers names containers this one communicates with; the
	// network-aware placer co-locates with them.
	Peers []string
}

// Policy carries cluster-wide placement knobs.
type Policy struct {
	// CPUOvercommit lets CPU be oversubscribed ("oversubscription to
	// improve cost efficiency"): effective capacity = CPU × factor.
	// Zero means 1.0 (no overcommit). Memory is never oversubscribed.
	CPUOvercommit float64
}

func (p Policy) overcommit() float64 {
	if p.CPUOvercommit <= 0 {
		return 1.0
	}
	return p.CPUOvercommit
}

// Fits reports whether a request fits a node under the policy.
func Fits(req Request, n NodeView, p Policy) bool {
	if !n.PoweredOn {
		return false
	}
	if n.MaxContainers > 0 && n.Containers >= n.MaxContainers {
		return false
	}
	if n.MemUsed+req.MemBytes > n.MemTotal {
		return false
	}
	if float64(n.CPUUsed+req.CPUDemandMIPS) > float64(n.CPU)*p.overcommit() {
		return false
	}
	return true
}

// Placer chooses a node for a request. Place reads the view's rows,
// deriving its run heads on first use, so the caller may hand every
// placement of one pimaster.SpawnVMs call the same view, its rows
// updated through SetRow. A view serves one goroutine at a time.
type Placer interface {
	Name() string
	Place(req Request, v *View, p Policy) (netsim.NodeID, error)
}

// Interface checks.
var (
	_ Placer = (*RoundRobin)(nil)
	_ Placer = FirstFit{}
	_ Placer = BestFit{}
	_ Placer = WorstFit{}
	_ Placer = NetworkAware{}
)

// RoundRobin cycles through nodes regardless of load — the naive
// baseline.
type RoundRobin struct{ next int }

// Name implements Placer.
func (*RoundRobin) Name() string { return "round-robin" }

// Place implements Placer.
func (r *RoundRobin) Place(req Request, v *View, p Policy) (netsim.NodeID, error) {
	n := len(v.Nodes)
	for i := 0; i < n; i++ {
		cand := v.Nodes[(r.next+i)%n]
		if Fits(req, cand, p) {
			r.next = (r.next + i + 1) % n
			return cand.ID, nil
		}
	}
	return "", fmt.Errorf("%w: %s", ErrNoCapacity, req.Name)
}

// FirstFit scans nodes in order and takes the first that fits. It
// visits run heads only: a row that repeats the one before it fits only
// if that row does, so the first fitting row is always a head.
type FirstFit struct{}

// Name implements Placer.
func (FirstFit) Name() string { return "first-fit" }

// Place implements Placer.
func (FirstFit) Place(req Request, v *View, p Policy) (netsim.NodeID, error) {
	for _, i := range v.runHeads() {
		if Fits(req, v.Nodes[i], p) {
			return v.Nodes[i].ID, nil
		}
	}
	return "", fmt.Errorf("%w: %s", ErrNoCapacity, req.Name)
}

// sameLoad reports whether two rows agree in every field but ID, so a
// request fits both or neither and scores the same on both. A row equal
// to the one before it can therefore never win a strict > or <
// comparison against it, and the scoring placers visit run heads only:
// whole racks of identical idle nodes cost one comparison each.
func sameLoad(a, b *NodeView) bool {
	return a.Rack == b.Rack && a.CPU == b.CPU && a.CPUUsed == b.CPUUsed &&
		a.MemTotal == b.MemTotal && a.MemUsed == b.MemUsed &&
		a.Containers == b.Containers && a.MaxContainers == b.MaxContainers &&
		a.PoweredOn == b.PoweredOn
}

// repeats reports whether v.Nodes[i] repeats the row before it.
func (v *View) repeats(i int) bool { return i > 0 && sameLoad(&v.Nodes[i], &v.Nodes[i-1]) }

// load is the scalar packing score: the max of CPU and memory fractions
// after hosting the request.
func load(req Request, n NodeView, p Policy) float64 {
	cpu := float64(n.CPUUsed+req.CPUDemandMIPS) / (float64(n.CPU) * p.overcommit())
	mem := float64(n.MemUsed+req.MemBytes) / float64(n.MemTotal)
	if cpu > mem {
		return cpu
	}
	return mem
}

// BestFit packs tightly: the feasible node left fullest.
type BestFit struct{}

// Name implements Placer.
func (BestFit) Name() string { return "best-fit" }

// Place implements Placer.
func (BestFit) Place(req Request, v *View, p Policy) (netsim.NodeID, error) {
	return placed(req, v, bestRow(req, v, p, -1))
}

// bestRow returns best-fit's row among the run heads of one rack, or of
// every rack when rack is negative; -1 when none fits.
func bestRow(req Request, v *View, p Policy, rack int) int {
	best := -1
	bestScore := -1.0
	for _, i := range v.runHeads() {
		n := &v.Nodes[i]
		if (rack >= 0 && n.Rack != rack) || !Fits(req, *n, p) {
			continue
		}
		if s := load(req, *n, p); s > bestScore {
			best, bestScore = int(i), s
		}
	}
	return best
}

// placed returns row i's node, or ErrNoCapacity when i is -1.
func placed(req Request, v *View, i int) (netsim.NodeID, error) {
	if i < 0 {
		return "", fmt.Errorf("%w: %s", ErrNoCapacity, req.Name)
	}
	return v.Nodes[i].ID, nil
}

// WorstFit spreads: the feasible node left emptiest.
type WorstFit struct{}

// Name implements Placer.
func (WorstFit) Name() string { return "worst-fit" }

// Place implements Placer.
func (WorstFit) Place(req Request, v *View, p Policy) (netsim.NodeID, error) {
	best := -1
	bestScore := 2.0
	for _, i := range v.runHeads() {
		n := &v.Nodes[i]
		if !Fits(req, *n, p) {
			continue
		}
		if s := load(req, *n, p); s < bestScore {
			best, bestScore = int(i), s
		}
	}
	return placed(req, v, best)
}

// NetworkAware places a container in the rack where most of its peers
// already live (minimising cross-rack traffic over the shared ToR
// uplinks), falling back to best-fit when it has no placed peers.
type NetworkAware struct{}

// Name implements Placer.
func (NetworkAware) Name() string { return "network-aware" }

// Place implements Placer.
func (NetworkAware) Place(req Request, v *View, p Policy) (netsim.NodeID, error) {
	peerRacks := make(map[int]int)
	for _, peer := range req.Peers {
		node, ok := v.Locate[peer]
		if !ok {
			continue
		}
		if row := v.NodeByID(node); row != nil {
			peerRacks[row.Rack]++
		}
	}
	if len(peerRacks) == 0 {
		return BestFit{}.Place(req, v, p)
	}
	// Racks by descending peer count, then index for determinism.
	racks := make([]int, 0, len(peerRacks))
	for r := range peerRacks {
		racks = append(racks, r)
	}
	sort.Slice(racks, func(i, j int) bool {
		if peerRacks[racks[i]] != peerRacks[racks[j]] {
			return peerRacks[racks[i]] > peerRacks[racks[j]]
		}
		return racks[i] < racks[j]
	})
	for _, rack := range racks {
		if i := bestRow(req, v, p, rack); i >= 0 {
			return v.Nodes[i].ID, nil
		}
	}
	// Peer racks full: place anywhere.
	return BestFit{}.Place(req, v, p)
}

// ByName returns the stock placer with the given name.
func ByName(name string) (Placer, error) {
	switch name {
	case "round-robin":
		return &RoundRobin{}, nil
	case "first-fit":
		return FirstFit{}, nil
	case "best-fit":
		return BestFit{}, nil
	case "worst-fit":
		return WorstFit{}, nil
	case "network-aware":
		return NetworkAware{}, nil
	default:
		return nil, fmt.Errorf("placement: unknown placer %q", name)
	}
}

// --- Consolidation ---

// MigrationStep is one move in a consolidation plan.
type MigrationStep struct {
	Container string
	From, To  netsim.NodeID
}

// ContainerLoad describes one placed container for the planner.
type ContainerLoad struct {
	Name          string
	Node          netsim.NodeID
	CPUDemandMIPS hw.MIPS
	MemBytes      int64
}

// PlanConsolidation produces moves that drain the least-loaded nodes onto
// the fullest feasible hosts, so drained nodes can be powered off
// ("consolidation to reduce power consumption"). It is deliberately
// network-oblivious — the naive algorithm whose congestion side effects
// experiment R2 demonstrates.
func PlanConsolidation(v *View, containers []ContainerLoad, p Policy) []MigrationStep {
	work := View{Nodes: append([]NodeView(nil), v.Nodes...), Locate: v.Locate}

	byNode := make(map[netsim.NodeID][]ContainerLoad)
	for _, c := range containers {
		byNode[c.Node] = append(byNode[c.Node], c)
	}
	// Candidate donors: powered nodes, least-loaded first.
	donors := append([]NodeView(nil), work.Nodes...)
	sort.Slice(donors, func(i, j int) bool {
		li := float64(donors[i].MemUsed) / float64(donors[i].MemTotal)
		lj := float64(donors[j].MemUsed) / float64(donors[j].MemTotal)
		if li != lj {
			return li < lj
		}
		return donors[i].ID < donors[j].ID
	})
	var plan []MigrationStep
	recipients := make(map[netsim.NodeID]bool)
	for _, donor := range donors {
		if !donor.PoweredOn || len(byNode[donor.ID]) == 0 {
			continue
		}
		// A node that just received containers is a packing target, not
		// a drain candidate — re-draining it would thrash.
		if recipients[donor.ID] {
			continue
		}
		moves := make([]MigrationStep, 0, len(byNode[donor.ID]))
		ok := true
		// Tentatively move every container off the donor, largest first
		// (best-fit decreasing).
		cs := append([]ContainerLoad(nil), byNode[donor.ID]...)
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].MemBytes != cs[j].MemBytes {
				return cs[i].MemBytes > cs[j].MemBytes
			}
			return cs[i].Name < cs[j].Name
		})
		// Work on a scratch copy so a failed drain rolls back.
		scratch := append([]NodeView(nil), work.Nodes...)
		for _, c := range cs {
			req := Request{Name: c.Name, CPUDemandMIPS: c.CPUDemandMIPS, MemBytes: c.MemBytes}
			best := -1
			bestScore := -1.0
			for i, n := range scratch {
				// Only pack onto nodes that already host containers:
				// draining onto an empty node saves no power.
				if n.ID == donor.ID || n.Containers == 0 || !Fits(req, n, p) {
					continue
				}
				if s := load(req, n, p); s > bestScore {
					best, bestScore = i, s
				}
			}
			if best < 0 {
				ok = false
				break
			}
			scratch[best].CPUUsed += c.CPUDemandMIPS
			scratch[best].MemUsed += c.MemBytes
			scratch[best].Containers++
			moves = append(moves, MigrationStep{Container: c.Name, From: donor.ID, To: scratch[best].ID})
		}
		if !ok {
			continue // this donor cannot be fully drained; leave it
		}
		work.Nodes = scratch
		// Mark the donor empty so later donors cannot target it.
		if d := work.NodeByID(donor.ID); d != nil {
			d.PoweredOn = false
			d.CPUUsed = 0
			d.MemUsed = int64(0)
			d.Containers = 0
		}
		delete(byNode, donor.ID)
		for _, m := range moves {
			recipients[m.To] = true
		}
		plan = append(plan, moves...)
	}
	return plan
}
