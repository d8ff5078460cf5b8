package workload

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// BackgroundPort is the port background traffic targets.
const BackgroundPort = 9999

// The ON and OFF period means in seconds, and the Pareto tail index both
// periods are drawn with (1 < α ≤ 2 gives heavy tails).
const (
	meanOnSeconds  = 2
	meanOffSeconds = 8
	paretoAlpha    = 1.5
)

// OnOffConfig parameterises heavy-tailed ON/OFF background sources — the
// "constantly changing, generally unpredictable" DC traffic of Section I.
// ON and OFF period lengths are Pareto-distributed, which produces the
// burstiness and long-range dependence measured in real facilities.
type OnOffConfig struct {
	// Sources is the number of independent host pairs generating.
	Sources int
	// FlowBytes is the volume sent per ON burst. Default 4 MiB.
	FlowBytes int64
}

func (c *OnOffConfig) fillDefaults() {
	if c.FlowBytes <= 0 {
		c.FlowBytes = 4 * hw.MiB
	}
}

// OnOffGenerator drives ON/OFF sources between random host pairs.
type OnOffGenerator struct {
	fabric *Fabric
	hosts  []netsim.NodeID
	cfg    OnOffConfig
	// onDone counts a burst's outcome and bursts[i] is source i's
	// off-timer callback: made once, not per burst.
	onDone func(error)
	bursts []func()

	FlowsStarted uint64
	FlowsDone    uint64
	FlowsFailed  uint64
	stopped      bool
}

// NewOnOffGenerator builds a generator over the given hosts.
func NewOnOffGenerator(fabric *Fabric, hosts []netsim.NodeID, cfg OnOffConfig) (*OnOffGenerator, error) {
	if len(hosts) < 2 {
		return nil, fmt.Errorf("workload: on/off traffic needs ≥2 hosts")
	}
	if cfg.Sources <= 0 {
		return nil, fmt.Errorf("workload: on/off traffic needs ≥1 source")
	}
	cfg.fillDefaults()
	g := &OnOffGenerator{fabric: fabric, hosts: append([]netsim.NodeID(nil), hosts...), cfg: cfg}
	g.onDone = g.flowDone
	g.bursts = make([]func(), cfg.Sources)
	for i := range g.bursts {
		g.bursts[i] = func() { g.burst(i) }
	}
	return g, nil
}

// pareto draws a Pareto-distributed value with the given mean and tail
// index alpha: xm = mean·(α-1)/α.
func (g *OnOffGenerator) pareto(mean float64) float64 {
	alpha := float64(paretoAlpha)
	xm := mean * (alpha - 1) / alpha
	u := g.fabric.Engine.Rand().Float64()
	if u <= 0 {
		u = 1e-12
	}
	v := xm / math.Pow(u, 1/alpha)
	// Clamp pathological tail draws so a single source cannot stall the
	// simulation for hours.
	if v > mean*100 {
		v = mean * 100
	}
	return v
}

// Start launches the sources.
func (g *OnOffGenerator) Start() {
	for i := 0; i < g.cfg.Sources; i++ {
		g.scheduleOff(i)
	}
}

// Stop ends generation (in-flight bursts finish).
func (g *OnOffGenerator) Stop() { g.stopped = true }

func (g *OnOffGenerator) scheduleOff(src int) {
	if g.stopped {
		return
	}
	off := g.pareto(meanOffSeconds)
	g.fabric.Engine.Schedule(time.Duration(off*float64(time.Second)), g.bursts[src])
}

// burst sends one ON period's volume between a random pair.
func (g *OnOffGenerator) burst(src int) {
	if g.stopped {
		return
	}
	rng := g.fabric.Engine.Rand()
	a := g.hosts[rng.Intn(len(g.hosts))]
	b := g.hosts[rng.Intn(len(g.hosts))]
	for b == a {
		b = g.hosts[rng.Intn(len(g.hosts))]
	}
	// Volume scales with the ON period draw.
	on := g.pareto(meanOnSeconds)
	bytes := int64(float64(g.cfg.FlowBytes) * on / meanOnSeconds)
	if bytes <= 0 {
		bytes = 1
	}
	g.FlowsStarted++
	if err := g.fabric.Send(a, b, bytes, BackgroundPort, g.onDone); err != nil {
		g.FlowsFailed++
	}
	g.scheduleOff(src)
}

// flowDone counts a burst's outcome.
func (g *OnOffGenerator) flowDone(err error) {
	if err != nil {
		g.FlowsFailed++
	} else {
		g.FlowsDone++
	}
}

// GravityConfig parameterises a time-varying gravity traffic matrix:
// every epoch, rack masses are re-drawn and pairwise demand follows
// mass(i)·mass(j) — the traffic "dynamism [that] is difficult to model"
// in simulators.
type GravityConfig struct {
	// EpochSeconds is how often the matrix re-rolls. Default 30.
	EpochSeconds float64
	// FlowsPerEpoch is the number of transfers launched each epoch.
	// Default 20.
	FlowsPerEpoch int
	// FlowBytes is the mean transfer size. Default 2 MiB.
	FlowBytes int64
}

func (c *GravityConfig) fillDefaults() {
	if c.EpochSeconds <= 0 {
		c.EpochSeconds = 30
	}
	if c.FlowsPerEpoch <= 0 {
		c.FlowsPerEpoch = 20
	}
	if c.FlowBytes <= 0 {
		c.FlowBytes = 2 * hw.MiB
	}
}

// GravityGenerator drives the epoch-based gravity matrix.
type GravityGenerator struct {
	fabric *Fabric
	racks  [][]netsim.NodeID
	cfg    GravityConfig

	// EpochThroughput records bytes launched per epoch; its dispersion
	// is the unpredictability measure of experiment R5.
	EpochThroughput metrics.TimeSeries
	Epochs          uint64
	stopped         bool
}

// NewGravityGenerator builds a generator over the topology's racks.
func NewGravityGenerator(fabric *Fabric, racks [][]netsim.NodeID, cfg GravityConfig) (*GravityGenerator, error) {
	if len(racks) < 2 {
		return nil, fmt.Errorf("workload: gravity traffic needs ≥2 racks")
	}
	cfg.fillDefaults()
	return &GravityGenerator{fabric: fabric, racks: racks, cfg: cfg}, nil
}

// Start launches epochs until Stop.
func (g *GravityGenerator) Start() { g.epoch() }

// Stop ends generation.
func (g *GravityGenerator) Stop() { g.stopped = true }

func (g *GravityGenerator) epoch() {
	if g.stopped {
		return
	}
	rng := g.fabric.Engine.Rand()
	// Re-roll rack masses.
	masses := make([]float64, len(g.racks))
	total := 0.0
	for i := range masses {
		masses[i] = rng.Float64() + 0.05
		total += masses[i]
	}
	var launched int64
	for i := 0; i < g.cfg.FlowsPerEpoch; i++ {
		srcRack := g.sampleRack(masses, total)
		dstRack := g.sampleRack(masses, total)
		src := g.racks[srcRack][rng.Intn(len(g.racks[srcRack]))]
		dst := g.racks[dstRack][rng.Intn(len(g.racks[dstRack]))]
		if src == dst {
			continue
		}
		// Exponential size around the mean.
		bytes := int64(rng.ExpFloat64() * float64(g.cfg.FlowBytes))
		if bytes <= 0 {
			bytes = 1
		}
		if err := g.fabric.Send(src, dst, bytes, BackgroundPort, nil); err == nil {
			launched += bytes
		}
	}
	g.Epochs++
	g.EpochThroughput.Record(g.fabric.Engine.Now(), float64(launched))
	g.fabric.Engine.Schedule(time.Duration(g.cfg.EpochSeconds*float64(time.Second)), g.epoch)
}

// sampleRack draws a rack index proportional to mass.
func (g *GravityGenerator) sampleRack(masses []float64, total float64) int {
	x := g.fabric.Engine.Rand().Float64() * total
	for i, m := range masses {
		x -= m
		if x <= 0 {
			return i
		}
	}
	return len(masses) - 1
}

// CoV returns the coefficient of variation of epoch throughput — the
// headline unpredictability statistic.
func (g *GravityGenerator) CoV() float64 {
	samples := g.EpochThroughput.Samples()
	if len(samples) < 2 {
		return 0
	}
	mean := 0.0
	for _, s := range samples {
		mean += s.Value
	}
	mean /= float64(len(samples))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, s := range samples {
		d := s.Value - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(samples)-1)) / mean
}
