// Package p2p implements the paper's Section III "radical departure":
// "a peer-to-peer Cloud management system" — cluster management with no
// pimaster. Every node runs an agent that (a) maintains a membership
// view via anti-entropy gossip with heartbeat versioning and timeout
// failure detection, and (b) answers decentralised placement queries
// from the freshest resource view it has gossiped, so any node can admit
// a VM without a head node.
//
// Gossip messages travel over the simulated fabric: each round costs the
// path latency to the chosen peer plus a serialisation delay, so
// propagation speed and partition behaviour reflect the real topology.
package p2p

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/sdn"
	"repro/internal/sim"
)

// Default protocol constants, SWIM-style.
const (
	DefaultFanout       = 2
	DefaultSuspectAfter = 5 * time.Second
	DefaultDeadAfter    = 10 * time.Second
	// gossipInterval is every agent's round period.
	gossipInterval = 1 * time.Second
	// gossipBytes is the wire size of one digest message.
	gossipBytes = 1200
)

// Errors.
var (
	ErrNoCandidates = errors.New("p2p: no live node can host the request")
	ErrStopped      = errors.New("p2p: agent stopped")
)

// Status is a member's liveness as seen by one agent.
type Status int

// Liveness states.
const (
	StatusAlive Status = iota + 1
	StatusSuspect
	StatusDead
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusSuspect:
		return "suspect"
	case StatusDead:
		return "dead"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Load is the resource view a node gossips about itself.
type Load struct {
	CPUUtil    float64
	MemUsed    int64
	MemTotal   int64
	Containers int
}

// entry is one row of an agent's membership table.
type entry struct {
	host      netsim.NodeID
	heartbeat uint64
	load      Load
	// lastBump is the local time this agent last saw the heartbeat grow.
	lastBump sim.Time
}

// Config tunes the protocol.
type Config struct {
	Fanout       int
	SuspectAfter time.Duration
	DeadAfter    time.Duration
}

func (c *Config) fillDefaults() {
	if c.Fanout <= 0 {
		c.Fanout = DefaultFanout
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = DefaultDeadAfter
	}
}

// Agent is the per-node management peer.
type Agent struct {
	Host netsim.NodeID

	mesh    *Mesh
	cfg     Config
	table   map[netsim.NodeID]*entry
	hb      uint64
	load    Load
	ticker  *sim.Ticker
	stopped bool

	// counters
	digestsSent     uint64
	digestsReceived uint64
}

// Mesh wires agents over the fabric. One Mesh per cloud.
type Mesh struct {
	engine *sim.Engine
	net    *netsim.Network
	ctrl   *sdn.Controller
	cfg    Config
	agents map[netsim.NodeID]*Agent
	order  []netsim.NodeID
}

// NewMesh creates an empty gossip mesh.
func NewMesh(engine *sim.Engine, net *netsim.Network, ctrl *sdn.Controller, cfg Config) *Mesh {
	cfg.fillDefaults()
	return &Mesh{
		engine: engine,
		net:    net,
		ctrl:   ctrl,
		cfg:    cfg,
		agents: make(map[netsim.NodeID]*Agent),
	}
}

// Join starts an agent on a host. Agents learn the rest of the
// membership through gossip seeded by the join contact (the first agent
// joined, mirroring a bootstrap node).
func (m *Mesh) Join(host netsim.NodeID) (*Agent, error) {
	if _, dup := m.agents[host]; dup {
		return nil, fmt.Errorf("p2p: %s already joined", host)
	}
	a := &Agent{
		Host:  host,
		mesh:  m,
		cfg:   m.cfg,
		table: make(map[netsim.NodeID]*entry),
	}
	a.table[host] = &entry{host: host, lastBump: m.engine.Now()}
	// Seed with the bootstrap contact so gossip can reach the mesh.
	if len(m.order) > 0 {
		seed := m.order[0]
		a.table[seed] = &entry{host: seed, lastBump: m.engine.Now()}
	}
	m.agents[host] = a
	m.order = append(m.order, host)
	a.ticker = m.engine.NewTicker(gossipInterval, func(sim.Time) { a.round() })
	return a, nil
}

// Agent returns the agent on a host, or nil.
func (m *Mesh) Agent(host netsim.NodeID) *Agent { return m.agents[host] }

// Stop halts an agent (simulating a crashed management daemon; the node
// stops refreshing its heartbeat and peers will declare it dead).
func (m *Mesh) Stop(host netsim.NodeID) {
	if a := m.agents[host]; a != nil {
		a.stopped = true
		a.ticker.Stop()
	}
}

// SetLoad updates the local resource view an agent advertises.
func (a *Agent) SetLoad(l Load) { a.load = l }

// DigestsSent returns gossip messages sent by this agent.
func (a *Agent) DigestsSent() uint64 { return a.digestsSent }

// DigestsReceived returns gossip messages received by this agent.
func (a *Agent) DigestsReceived() uint64 { return a.digestsReceived }

// round runs one gossip period: bump own heartbeat, pick fanout random
// live-ish peers, ship digests with network delay.
func (a *Agent) round() {
	if a.stopped {
		return
	}
	now := a.mesh.engine.Now()
	a.hb++
	self := a.table[a.Host]
	self.heartbeat = a.hb
	self.load = a.load
	self.lastBump = now

	peers := a.peerCandidates()
	rng := a.mesh.engine.Rand()
	for i := 0; i < a.cfg.Fanout && len(peers) > 0; i++ {
		idx := rng.Intn(len(peers))
		peer := peers[idx]
		peers = append(peers[:idx], peers[idx+1:]...)
		a.sendDigest(peer, false)
	}
	// Occasionally probe a member believed dead: a healed partition (or
	// a recovered daemon) is rediscovered through its reply.
	dead := a.deadCandidates()
	if len(dead) > 0 && rng.Float64() < 0.3 {
		a.sendDigest(dead[rng.Intn(len(dead))], false)
	}
}

// deadCandidates lists members currently classified dead.
func (a *Agent) deadCandidates() []netsim.NodeID {
	now := a.mesh.engine.Now()
	var out []netsim.NodeID
	for host, e := range a.table {
		if host != a.Host && a.statusOf(e, now) == StatusDead {
			out = append(out, host)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// peerCandidates lists known hosts except self and the dead.
func (a *Agent) peerCandidates() []netsim.NodeID {
	now := a.mesh.engine.Now()
	out := make([]netsim.NodeID, 0, len(a.table))
	for host, e := range a.table {
		if host == a.Host {
			continue
		}
		if a.statusOf(e, now) == StatusDead {
			continue
		}
		out = append(out, host)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// digestRow is one gossiped membership row.
type digestRow struct {
	host      netsim.NodeID
	heartbeat uint64
	load      Load
}

// sendDigest ships this agent's table to peer with realistic delay: the
// fabric's path latency plus serialisation of gossipBytes at line rate.
// Unless isReply, the receiver answers with its own digest (push–pull
// anti-entropy), which roughly doubles dissemination speed and lets a
// probed "dead" member announce itself back.
func (a *Agent) sendDigest(peer netsim.NodeID, isReply bool) {
	path, err := a.mesh.ctrl.PathFor(a.Host, peer, sdn.PolicyECMP, uint64(len(a.table)))
	if err != nil {
		return // unreachable right now; try again next round
	}
	var latency time.Duration
	var bottleneck float64
	for i := 1; i < len(path); i++ {
		l := a.mesh.net.LinkAt(path[i-1], path[i])
		if l == nil || !l.Up() {
			return
		}
		latency += l.Latency
		if bottleneck == 0 || l.Capacity < bottleneck {
			bottleneck = l.Capacity
		}
	}
	if bottleneck > 0 {
		latency += time.Duration(float64(gossipBytes*8) / bottleneck * float64(time.Second))
	}
	rows := make([]digestRow, 0, len(a.table))
	for _, e := range a.table {
		rows = append(rows, digestRow{host: e.host, heartbeat: e.heartbeat, load: e.load})
	}
	a.digestsSent++
	target := peer
	from := a.Host
	a.mesh.engine.Schedule(latency, func() {
		if dst := a.mesh.agents[target]; dst != nil && !dst.stopped {
			dst.receive(rows, from, isReply)
		}
	})
}

// receive merges a digest: higher heartbeat wins, refreshing liveness.
// Push–pull: answer a fresh digest with our own, once.
func (a *Agent) receive(rows []digestRow, from netsim.NodeID, isReply bool) {
	now := a.mesh.engine.Now()
	a.digestsReceived++
	for _, row := range rows {
		have, ok := a.table[row.host]
		if !ok {
			a.table[row.host] = &entry{
				host:      row.host,
				heartbeat: row.heartbeat,
				load:      row.load,
				lastBump:  now,
			}
			continue
		}
		if row.heartbeat > have.heartbeat {
			have.heartbeat = row.heartbeat
			have.load = row.load
			have.lastBump = now
		}
	}
	if !isReply {
		a.sendDigest(from, true)
	}
}

// statusOf classifies an entry by heartbeat staleness.
func (a *Agent) statusOf(e *entry, now sim.Time) Status {
	if e.host == a.Host {
		return StatusAlive
	}
	age := now.Sub(e.lastBump)
	switch {
	case age >= a.cfg.DeadAfter:
		return StatusDead
	case age >= a.cfg.SuspectAfter:
		return StatusSuspect
	default:
		return StatusAlive
	}
}

// Members returns the agent's current view: host → status.
func (a *Agent) Members() map[netsim.NodeID]Status {
	now := a.mesh.engine.Now()
	out := make(map[netsim.NodeID]Status, len(a.table))
	for host, e := range a.table {
		out[host] = a.statusOf(e, now)
	}
	return out
}

// AliveCount returns how many members (including self) the agent
// believes alive.
func (a *Agent) AliveCount() int {
	n := 0
	for _, st := range a.Members() {
		if st == StatusAlive {
			n++
		}
	}
	return n
}

// PlaceRequest is a decentralised placement ask.
type PlaceRequest struct {
	MemBytes      int64
	MaxContainers int
}

// Place answers a placement query from this agent's gossiped view alone —
// no head node involved. It returns the least-loaded alive host that
// fits, preferring lower memory fraction then fewer containers.
func (a *Agent) Place(req PlaceRequest) (netsim.NodeID, error) {
	if a.stopped {
		return "", ErrStopped
	}
	now := a.mesh.engine.Now()
	best := netsim.NodeID("")
	bestScore := 2.0
	for host, e := range a.table {
		if a.statusOf(e, now) != StatusAlive {
			continue
		}
		l := e.load
		if host == a.Host {
			l = a.load
		}
		if l.MemTotal == 0 {
			continue // no load report gossiped yet
		}
		if l.MemUsed+req.MemBytes > l.MemTotal {
			continue
		}
		if req.MaxContainers > 0 && l.Containers >= req.MaxContainers {
			continue
		}
		score := float64(l.MemUsed+req.MemBytes) / float64(l.MemTotal)
		if score < bestScore || (score == bestScore && host < best) {
			best, bestScore = host, score
		}
	}
	if best == "" {
		return "", ErrNoCandidates
	}
	return best, nil
}

// ConvergedViews reports how many agents currently see exactly n alive
// members — the convergence metric for the experiments.
func (m *Mesh) ConvergedViews(n int) int {
	count := 0
	for _, a := range m.agents {
		if a.stopped {
			continue
		}
		if a.AliveCount() == n {
			count++
		}
	}
	return count
}

// LiveAgents returns the number of non-stopped agents.
func (m *Mesh) LiveAgents() int {
	n := 0
	for _, a := range m.agents {
		if !a.stopped {
			n++
		}
	}
	return n
}
