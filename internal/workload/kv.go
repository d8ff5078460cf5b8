package workload

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/oslinux"
	"repro/internal/sim"
)

// KVPort is the port database traffic targets.
const KVPort = 6379

// KVConfig sizes the key-value database container of Fig. 3.
type KVConfig struct {
	// GetCPUMI / PutCPUMI are the per-operation compute costs.
	GetCPUMI hw.MI // default 2
	PutCPUMI hw.MI // default 4
	// ValueBytes is the stored value size. Default 4 KiB.
	ValueBytes int64
	// CacheBytes of hot data are served from RAM; beyond that a get pays
	// an SD-card read. Default 8 MiB.
	CacheBytes int64
}

func (c *KVConfig) fillDefaults() {
	if c.GetCPUMI <= 0 {
		c.GetCPUMI = 2
	}
	if c.PutCPUMI <= 0 {
		c.PutCPUMI = 4
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 4 * hw.KiB
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 8 * hw.MiB
	}
}

// KVStore is the database server running in a container.
type KVStore struct {
	Endpoint Endpoint
	Config   KVConfig
	fabric   *Fabric

	keys     map[string]struct{}
	hotBytes int64
	// OpLatency records per-op latency in milliseconds.
	OpLatency metrics.Histogram // ms
	Gets      uint64
	Puts      uint64
	Misses    uint64
	Errors    uint64
}

// NewKVStore attaches a database to a running container.
func NewKVStore(fabric *Fabric, ep Endpoint, cfg KVConfig) (*KVStore, error) {
	if err := ep.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	return &KVStore{
		Endpoint: ep,
		Config:   cfg,
		fabric:   fabric,
		keys:     make(map[string]struct{}),
	}, nil
}

// Put stores a value for key on behalf of a client host: CPU, an SD
// write, then an acknowledgement flow back.
func (s *KVStore) Put(clientHost netsim.NodeID, key string, onDone func(error)) {
	t0 := s.fabric.Engine.Now()
	_, err := s.Endpoint.Suite.Exec(s.Endpoint.Container, oslinux.TaskSpec{
		WorkMI: s.Config.PutCPUMI,
		OnDone: func() {
			k := s.Endpoint.Suite.Kernel()
			k.StorageWrite(s.Config.ValueBytes, func() {
				s.keys[key] = struct{}{}
				if s.hotBytes < s.Config.CacheBytes {
					s.hotBytes += s.Config.ValueBytes
				}
				if err := s.fabric.Send(s.Endpoint.Host, clientHost, 128, KVPort, func(serr error) {
					s.finish(t0, &s.Puts, serr, onDone)
				}); err != nil {
					s.Errors++
					onDone(err)
				}
			})
		},
	})
	if err != nil {
		s.Errors++
		onDone(fmt.Errorf("workload: kv put: %w", err))
	}
}

// Get fetches a value for a client host: CPU, an SD read on a cache
// miss, then the value flow back. Missing keys still cost the lookup.
func (s *KVStore) Get(clientHost netsim.NodeID, key string, onDone func(error)) {
	t0 := s.fabric.Engine.Now()
	_, err := s.Endpoint.Suite.Exec(s.Endpoint.Container, oslinux.TaskSpec{
		WorkMI: s.Config.GetCPUMI,
		OnDone: func() {
			_, present := s.keys[key]
			respond := func() {
				size := s.Config.ValueBytes
				if !present {
					s.Misses++
					size = 64 // not-found response
				}
				if err := s.fabric.Send(s.Endpoint.Host, clientHost, size, KVPort, func(serr error) {
					s.finish(t0, &s.Gets, serr, onDone)
				}); err != nil {
					s.Errors++
					onDone(err)
				}
			}
			// Cold data pays the SD read.
			if present && s.hotBytes >= s.Config.CacheBytes {
				s.Endpoint.Suite.Kernel().StorageRead(s.Config.ValueBytes, respond)
			} else {
				respond()
			}
		},
	})
	if err != nil {
		s.Errors++
		onDone(fmt.Errorf("workload: kv get: %w", err))
	}
}

func (s *KVStore) finish(t0 sim.Time, counter *uint64, err error, onDone func(error)) {
	if err != nil {
		s.Errors++
		onDone(err)
		return
	}
	*counter++
	s.OpLatency.Observe(s.fabric.Engine.Now().Sub(t0).Seconds() * 1000)
	onDone(nil)
}

// Keys returns the number of stored keys.
func (s *KVStore) Keys() int { return len(s.keys) }

// KVLoadGenConfig drives an open-loop client population against a store.
type KVLoadGenConfig struct {
	// RatePerSecond is the mean Poisson op rate. Must be positive.
	RatePerSecond float64
	// GetFraction of operations are reads (default 0.9, the usual
	// read-heavy mix).
	GetFraction float64
	// KeySpace is the number of distinct keys (default 100).
	KeySpace int
	// Duration bounds generation; zero runs until Stop.
	Duration time.Duration
}

func (c *KVLoadGenConfig) fillDefaults() {
	if c.GetFraction <= 0 || c.GetFraction > 1 {
		c.GetFraction = 0.9
	}
	if c.KeySpace <= 0 {
		c.KeySpace = 100
	}
}

// KVLoadGen fires a get/put mix at a store from client hosts.
type KVLoadGen struct {
	fabric  *Fabric
	store   *KVStore
	clients []netsim.NodeID
	cfg     KVLoadGenConfig

	Issued    uint64
	Completed uint64
	Failed    uint64

	stopped bool
	started sim.Time
	nextCli int
}

// NewKVLoadGen builds a generator against one store.
func NewKVLoadGen(fabric *Fabric, store *KVStore, clients []netsim.NodeID, cfg KVLoadGenConfig) (*KVLoadGen, error) {
	if cfg.RatePerSecond <= 0 {
		return nil, fmt.Errorf("workload: kv rate must be positive")
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("workload: kv load needs clients")
	}
	cfg.fillDefaults()
	return &KVLoadGen{fabric: fabric, store: store, clients: clients, cfg: cfg}, nil
}

// Start begins issuing operations.
func (g *KVLoadGen) Start() {
	g.started = g.fabric.Engine.Now()
	g.next()
}

// Stop ceases new arrivals.
func (g *KVLoadGen) Stop() { g.stopped = true }

func (g *KVLoadGen) next() {
	if g.stopped {
		return
	}
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
		g.next()
	})
}

func (g *KVLoadGen) fire() {
	rng := g.fabric.Engine.Rand()
	client := g.clients[g.nextCli%len(g.clients)]
	g.nextCli++
	key := fmt.Sprintf("key-%04d", rng.Intn(g.cfg.KeySpace))
	g.Issued++
	done := func(err error) {
		if err != nil {
			g.Failed++
		} else {
			g.Completed++
		}
	}
	if rng.Float64() < g.cfg.GetFraction {
		g.store.Get(client, key, done)
	} else {
		g.store.Put(client, key, done)
	}
}
