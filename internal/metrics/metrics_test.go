package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestTimeSeriesBasics(t *testing.T) {
	var ts TimeSeries
	if _, ok := ts.Last(); ok {
		t.Fatal("Last on empty series returned ok")
	}
	ts.Record(sim.Time(time.Second), 1)
	ts.Record(sim.Time(2*time.Second), 3)
	if ts.Len() != 2 {
		t.Fatalf("Len = %d", ts.Len())
	}
	last, ok := ts.Last()
	if !ok || last.Value != 3 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
	if got := ts.Mean(); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	if got := ts.Max(); got != 3 {
		t.Fatalf("Max = %v, want 3", got)
	}
}

func TestTimeSeriesSamplesIsCopy(t *testing.T) {
	var ts TimeSeries
	ts.Record(0, 1)
	s := ts.Samples()
	s[0].Value = 99
	if got := ts.Samples()[0].Value; got != 1 {
		t.Fatalf("internal sample mutated via returned slice: %v", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 50}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := h.Mean(); got != 50.5 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should read zero")
	}
}

func TestHistogramObserveAfterQuantile(t *testing.T) {
	var h Histogram
	h.Observe(5)
	_ = h.Quantile(0.5)
	h.Observe(1) // must re-sort
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %v, want 1", got)
	}
}

// Property: Quantile is monotonic in q and bounded by [min, max].
func TestPropertyQuantileMonotonic(t *testing.T) {
	f := func(vals []float64) bool {
		var h Histogram
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
				h.Observe(v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		sorted := append([]float64(nil), clean...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev || v < sorted[0] || v > sorted[len(sorted)-1] {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}
