package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/oslinux"
	"repro/internal/sim"
)

// HTTPPort is the port web traffic targets.
const HTTPPort = 80

// KVPort is the port database traffic targets: the web tier's queries to
// the database container of Fig. 3.
const KVPort = 6379

// cpuPerRequestMI is the compute cost of one request to the lightweight
// httpd (template rendering, headers): ~6 ms alone on a Pi.
const cpuPerRequestMI hw.MI = 5

// WebServerConfig sizes the response of the lightweight httpd.
type WebServerConfig struct {
	// ResponseBytes is the payload returned. Default 32 KiB.
	ResponseBytes int64
}

func (c *WebServerConfig) fillDefaults() {
	if c.ResponseBytes <= 0 {
		c.ResponseBytes = 32 * hw.KiB
	}
}

// WebServer is a lightweight httpd running in one container.
type WebServer struct {
	Endpoint Endpoint
	Config   WebServerConfig
	fabric   *Fabric
	served   uint64
	rejected uint64
}

// NewWebServer attaches an httpd to a running container.
func NewWebServer(fabric *Fabric, ep Endpoint, cfg WebServerConfig) (*WebServer, error) {
	if err := ep.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	return &WebServer{Endpoint: ep, Config: cfg, fabric: fabric}, nil
}

// Served returns the number of completed requests.
func (w *WebServer) Served() uint64 { return w.served }

// Rejected returns requests that failed (container stopped, OOM, network).
func (w *WebServer) Rejected() uint64 { return w.rejected }

// HandleRequest processes one request from a client host: CPU work in
// the container, then the response transfer. onDone receives the error,
// if any.
func (w *WebServer) HandleRequest(clientHost netsim.NodeID, onDone func(error)) {
	_, err := w.Endpoint.Suite.Exec(w.Endpoint.Container, oslinux.TaskSpec{
		WorkMI: cpuPerRequestMI,
		OnDone: func() {
			if err := w.fabric.Send(w.Endpoint.Host, clientHost, w.Config.ResponseBytes, HTTPPort, func(serr error) {
				if serr != nil {
					w.rejected++
					onDone(serr)
					return
				}
				w.served++
				onDone(nil)
			}); err != nil {
				w.rejected++
				onDone(err)
			}
		},
	})
	if err != nil {
		w.rejected++
		onDone(fmt.Errorf("workload: exec: %w", err))
	}
}

// WebFarm load-balances requests round-robin over servers — the VIP in
// front of a replicated httpd tier.
type WebFarm struct {
	servers []*WebServer
	next    int
}

// NewWebFarm groups servers behind one entry point.
func NewWebFarm(servers ...*WebServer) (*WebFarm, error) {
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	return &WebFarm{servers: servers}, nil
}

// Pick returns the next backend (round-robin).
func (f *WebFarm) Pick() *WebServer {
	s := f.servers[f.next%len(f.servers)]
	f.next++
	return s
}

// Servers returns the backends.
func (f *WebFarm) Servers() []*WebServer { return append([]*WebServer(nil), f.servers...) }

// LoadGenConfig drives an open-loop Poisson client population.
type LoadGenConfig struct {
	// RatePerSecond is the mean arrival rate. Must be positive.
	RatePerSecond float64
	// Duration bounds the generation window; zero runs until Stop.
	Duration time.Duration
}

// LoadGen fires requests at a farm and records latency.
type LoadGen struct {
	fabric  *Fabric
	farm    *WebFarm
	clients []Endpoint
	cfg     LoadGenConfig

	// Latency records request latency in milliseconds.
	Latency   metrics.Histogram
	Issued    uint64
	Completed uint64
	Failed    uint64

	stopped bool
	started sim.Time
	nextCli int
}

// NewLoadGen builds a generator: each request originates at one of the
// client endpoints (round-robin) and lands on the farm's next backend.
func NewLoadGen(fabric *Fabric, farm *WebFarm, clients []Endpoint, cfg LoadGenConfig) (*LoadGen, error) {
	if cfg.RatePerSecond <= 0 || math.IsNaN(cfg.RatePerSecond) {
		return nil, fmt.Errorf("workload: rate must be positive, got %v", cfg.RatePerSecond)
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("workload: need at least one client endpoint")
	}
	for _, c := range clients {
		if c.Host == "" {
			return nil, fmt.Errorf("workload: client without host")
		}
	}
	return &LoadGen{fabric: fabric, farm: farm, clients: clients, cfg: cfg}, nil
}

// Start begins issuing requests.
func (g *LoadGen) Start() {
	g.started = g.fabric.Engine.Now()
	g.scheduleNext()
}

// Stop ceases new arrivals (in-flight requests finish).
func (g *LoadGen) Stop() { g.stopped = true }

// GoodputPerSecond returns completed requests per second of generation
// time so far.
func (g *LoadGen) GoodputPerSecond() float64 {
	el := g.fabric.Engine.Now().Sub(g.started).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(g.Completed) / el
}

func (g *LoadGen) scheduleNext() {
	if g.stopped {
		return
	}
	// Exponential inter-arrival (Poisson process).
	gap := time.Duration(g.fabric.Engine.Rand().ExpFloat64() / g.cfg.RatePerSecond * float64(time.Second))
	g.fabric.Engine.Schedule(gap, func() {
		if g.stopped {
			return
		}
		if g.cfg.Duration > 0 && g.fabric.Engine.Now().Sub(g.started) >= g.cfg.Duration {
			g.stopped = true
			return
		}
		g.fire()
		g.scheduleNext()
	})
}

func (g *LoadGen) fire() {
	client := g.clients[g.nextCli%len(g.clients)]
	g.nextCli++
	srv := g.farm.Pick()
	g.Issued++
	t0 := g.fabric.Engine.Now()
	srv.HandleRequest(client.Host, func(err error) {
		if err != nil {
			g.Failed++
			return
		}
		g.Completed++
		g.Latency.Observe(g.fabric.Engine.Now().Sub(t0).Seconds() * 1000) // ms
	})
}
