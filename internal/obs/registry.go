// Package obs is the kernel's observability layer: a process-wide
// metrics registry every subsystem exports into, a Prometheus
// text-format encoder over it, and a virtual-clock-aware span tracer.
//
// The package is deliberately a leaf — it imports only the simulator
// clock and the standard library — so any layer (sim, netsim, sdn,
// fleet, core, session) can depend on it without cycles.
//
// The design constraint inherited from the determinism contract is
// zero perturbation: observing the kernel must never commit, reorder
// or reschedule kernel state. Two mechanisms enforce that shape:
//
//   - Instruments (Counter, Gauge, Histogram) are lock-free on the hot
//     path — a single atomic op per Inc/Set/Observe — and live outside
//     every digest-bearing structure, so incrementing one cannot show
//     up in a kernel fingerprint.
//
//   - Collectors invert the dependency for state the kernel already
//     tracks: instead of the kernel pushing samples, a registered
//     callback reads the kernel's own counters through read-only
//     accessors at scrape time. Nothing is sampled unless someone
//     asks, and asking takes no kernel locks the layers don't already
//     expose for reading.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// seriesID renders name plus sorted labels into the registry map key.
// The rendered form doubles as the stable sort key for exposition.
// Labels already in key order are rendered without a sorted copy.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	byKey := func(a, b Label) int { return strings.Compare(a.Key, b.Key) }
	ls := labels
	if !slices.IsSortedFunc(ls, byKey) {
		ls = slices.Clone(labels)
		slices.SortFunc(ls, byKey)
	}
	size := len(name) + 2
	for _, l := range ls {
		size += len(l.Key) + len(l.Value) + 2
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing float64. The zero value is
// ready to use; Add and Inc are a CAS loop over the raw bits, so
// concurrent increments from many goroutines never contend on a lock.
type Counter struct{ bits atomic.Uint64 }

// Add increments the counter. It panics on a negative delta: counters
// are monotone by contract, and silently accepting a decrement would
// corrupt every rate() computed over the series.
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("obs: counter add of negative value %v", d))
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an instantaneous float64 value. Set is a single atomic
// store; Add is a CAS loop. The zero value is ready to use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d (either sign).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: observation counts per
// upper bound plus a running sum. Observe is a binary search and two
// atomic ops — no lock, no allocation — so it is safe on advance-slice
// and journal-append hot paths.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	sum     Gauge // reused for its atomic float64 accumulation
	count   atomic.Uint64
}

// DefBuckets is a general-purpose latency scale in seconds, from 100µs
// to ~100s in powers of ~4.
var DefBuckets = []float64{1e-4, 4e-4, 1.6e-3, 6.4e-3, 2.56e-2, 0.1024, 0.4096, 1.6384, 6.5536, 26.2144, 104.8576}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// snapshot returns cumulative bucket counts aligned with bounds, plus
// the +Inf total. Cumulation happens here, at read time, so Observe
// touches exactly one bucket.
func (h *Histogram) snapshot() (bounds []float64, cum []uint64, total uint64) {
	cum = make([]uint64, len(h.bounds)+1)
	var run uint64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cum[i] = run
	}
	return h.bounds, cum, run
}

// Kind distinguishes sample types in gathered output.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Sample is one gathered series value. Histograms gather into several
// samples (per-bucket, _sum, _count) produced by the encoder instead.
type Sample struct {
	Name   string
	Labels []Label
	Kind   Kind
	Value  float64

	// Histogram payload, set only when Kind == KindHistogram.
	Bounds []float64
	Cum    []uint64
	Count  uint64
	Sum    float64
}

// Emitter receives read-time samples from collectors.
type Emitter struct{ samples []Sample }

// Counter emits a monotone total read from the observed layer.
func (e *Emitter) Counter(name string, v float64, labels ...Label) {
	e.samples = append(e.samples, Sample{Name: name, Labels: append([]Label(nil), labels...), Kind: KindCounter, Value: v})
}

// Gauge emits an instantaneous value read from the observed layer.
func (e *Emitter) Gauge(name string, v float64, labels ...Label) {
	e.samples = append(e.samples, Sample{Name: name, Labels: append([]Label(nil), labels...), Kind: KindGauge, Value: v})
}

// Collector is a read-only sampling callback, invoked at gather time.
// It must not mutate the layer it reads: the zero-perturbation gate
// runs full scenarios with collectors firing and requires bit-identical
// trace digests.
type Collector func(e *Emitter)

// Registry is the process-wide series namespace: direct instruments
// registered by service layers plus collectors that read kernel state
// at scrape time.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	meta       map[string]sampleMeta // per series id
	help       map[string]string     // per metric name
	collectors []Collector
}

type sampleMeta struct {
	name   string
	labels []Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		meta:     map[string]sampleMeta{},
		help:     map[string]string{},
	}
}

// Counter returns the named counter, creating it on first use. The
// handle should be captured once and used thereafter; the lookup takes
// the registry lock but increments on the handle never do.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	id := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{}
		r.counters[id] = c
		r.meta[id] = sampleMeta{name: name, labels: append([]Label(nil), labels...)}
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	id := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{}
		r.gauges[id] = g
		r.meta[id] = sampleMeta{name: name, labels: append([]Label(nil), labels...)}
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the first
// bounds).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	id := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[id]
	if !ok {
		h = newHistogram(bounds)
		r.hists[id] = h
		r.meta[id] = sampleMeta{name: name, labels: append([]Label(nil), labels...)}
	}
	return h
}

// SetHelp attaches HELP text to a metric name (not a series).
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = help
}

// RegisterCollector adds a read-time sampling callback.
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// idSample is a gathered sample with its series id, rendered once.
type idSample struct {
	id string
	s  Sample
}

// Gather snapshots every instrument and runs every collector,
// returning samples sorted by series identity. Gathering reads
// atomics and calls collectors outside instrument locks; it never
// writes anything anywhere. Each sample's series id is rendered once
// (an instrument's is its registry key) and the samples sort by it.
func (r *Registry) Gather() []Sample {
	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	keyed := make([]idSample, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for id, c := range r.counters {
		m := r.meta[id]
		keyed = append(keyed, idSample{id, Sample{Name: m.name, Labels: m.labels, Kind: KindCounter, Value: c.Value()}})
	}
	for id, g := range r.gauges {
		m := r.meta[id]
		keyed = append(keyed, idSample{id, Sample{Name: m.name, Labels: m.labels, Kind: KindGauge, Value: g.Value()}})
	}
	for id, h := range r.hists {
		m := r.meta[id]
		bounds, cum, total := h.snapshot()
		keyed = append(keyed, idSample{id, Sample{
			Name: m.name, Labels: m.labels, Kind: KindHistogram,
			Bounds: bounds, Cum: cum, Count: total, Sum: h.Sum(),
		}})
	}
	r.mu.Unlock()

	var e Emitter
	for _, c := range collectors {
		c(&e)
	}
	for _, s := range e.samples {
		keyed = append(keyed, idSample{seriesID(s.Name, s.Labels), s})
	}

	sort.Slice(keyed, func(i, j int) bool { return keyed[i].id < keyed[j].id })
	out := make([]Sample, len(keyed))
	for i := range keyed {
		out[i] = keyed[i].s
	}
	return out
}

// Help returns the HELP text registered for a metric name, if any.
func (r *Registry) Help(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[name]
}
