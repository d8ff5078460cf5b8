package obs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

func TestCounterParallel(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %v, want %v", got, workers*per)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestGaugeSetAdd(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	g.Add(-1.25)
	if got := g.Value(); got != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1.0, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	bounds, cum, total := h.snapshot()
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	// <=1: 0.5 and 1.0 (bound is inclusive); <=10 adds 5; <=100 adds 50.
	want := []uint64{2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cum[%d] = %d, want %d (cum=%v)", i, cum[i], want[i], cum)
		}
	}
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+5+50+500+5000; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("shard", "0"))
	b := r.Counter("x_total", L("shard", "0"))
	if a != b {
		t.Fatal("same series returned distinct handles")
	}
	c := r.Counter("x_total", L("shard", "1"))
	if a == c {
		t.Fatal("distinct labels shared a handle")
	}
	a.Add(2)
	if b.Value() != 2 {
		t.Fatal("aliased handle did not observe the add")
	}
}

func TestGatherIncludesCollectors(t *testing.T) {
	r := NewRegistry()
	r.Counter("direct_total").Add(7)
	r.RegisterCollector(func(e *Emitter) {
		e.Gauge("sampled", 42, L("layer", "sim"))
		e.Counter("sampled_total", 9)
	})
	byID := map[string]Sample{}
	for _, s := range r.Gather() {
		byID[seriesID(s.Name, s.Labels)] = s
	}
	if s, ok := byID["direct_total"]; !ok || s.Value != 7 || s.Kind != KindCounter {
		t.Fatalf("direct_total = %+v", s)
	}
	if s, ok := byID[`sampled{layer=sim}`]; !ok || s.Value != 42 || s.Kind != KindGauge {
		t.Fatalf("sampled = %+v", s)
	}
	if s, ok := byID["sampled_total"]; !ok || s.Value != 9 {
		t.Fatalf("sampled_total = %+v", s)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// sessionRegistry registers what n sessions' scrapes hold: per
// session, two labelled counters, a gauge and a histogram, and a
// collector emitting three labelled samples.
func sessionRegistry(n int) *Registry {
	r := NewRegistry()
	for i := 0; i < n; i++ {
		id := L("session", fmt.Sprintf("s-%04d", i))
		r.Counter("pisim_advance_total", id, L("kind", "slice")).Add(float64(i))
		r.Counter("pisim_journal_records_total", id).Inc()
		r.Gauge("pisim_offset_seconds", id).Set(float64(i))
		r.Histogram("pisim_advance_seconds", []float64{0.01, 0.1, 1}, id).Observe(0.05)
		r.RegisterCollector(func(e *Emitter) {
			e.Counter("pisim_events_fired_total", float64(i), id, L("layer", "sim"))
			e.Gauge("pisim_flows_active", 3, L("layer", "netsim"), id)
			e.Counter("pisim_packet_ins_total", 1, id)
		})
	}
	return r
}

// TestGatherOrderAndAllocs: Gather returns its samples in series-id
// order, the order a sort comparing rendered ids yields, and renders
// each id at most once: a registered instrument's is its registry key,
// so only a collector's sample costs an id. This registry gathered
// with 98.9 allocations per sample when the sort's comparator rendered
// both ids on every comparison, and with 1.2 since.
func TestGatherOrderAndAllocs(t *testing.T) {
	r := sessionRegistry(100)
	got := r.Gather()
	want := slices.Clone(got)
	rand.New(rand.NewSource(1)).Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	sort.Slice(want, func(i, j int) bool {
		return seriesID(want[i].Name, want[i].Labels) < seriesID(want[j].Name, want[j].Labels)
	})
	if len(got) != 700 {
		t.Fatalf("gathered %d samples, want 700", len(got))
	}
	for i := range got {
		if seriesID(got[i].Name, got[i].Labels) != seriesID(want[i].Name, want[i].Labels) || got[i].Value != want[i].Value {
			t.Fatalf("sample %d: %s, want %s", i, seriesID(got[i].Name, got[i].Labels), seriesID(want[i].Name, want[i].Labels))
		}
	}
	if raceEnabled {
		return
	}
	// A histogram's snapshot copies its bounds and counts; a
	// collector's sample copies its labels and renders its id.
	allocs := testing.AllocsPerRun(5, func() { r.Gather() })
	if perSample := allocs / float64(len(got)); perSample > 2 {
		t.Fatalf("Gather makes %.0f allocations for %d samples, %.2f per sample; want at most 2", allocs, len(got), perSample)
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := newHistogram(DefBuckets)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
}
