package metrics

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Count() != 0 {
		t.Error("empty histogram should be zero-valued")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 50.5 {
		t.Errorf("Mean = %f", h.Mean())
	}
	if got := h.Percentile(50); got != 50 {
		t.Errorf("p50 = %f", got)
	}
	if got := h.Percentile(95); got != 95 {
		t.Errorf("p95 = %f", got)
	}
	if got := h.Percentile(99); got != 99 {
		t.Errorf("p99 = %f", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("min/max = %f/%f", h.Min(), h.Max())
	}
	if !strings.Contains(h.Summary(), "n=100") {
		t.Error("Summary missing count")
	}
}

func TestHistogramDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(250 * time.Millisecond)
	if h.Mean() != 250 {
		t.Errorf("Mean = %f ms", h.Mean())
	}
}

func TestHistogramObserveAfterPercentile(t *testing.T) {
	var h Histogram
	h.Observe(5)
	_ = h.Percentile(50)
	h.Observe(1) // must re-sort
	if got := h.Percentile(1); got != 1 {
		t.Errorf("p1 after new observation = %f", got)
	}
}

func TestPercentileBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var h Histogram
		min, max := 1e18, -1e18
		for i := 0; i < 1+r.Intn(200); i++ {
			v := r.NormFloat64() * 100
			h.Observe(v)
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		p50 := h.Percentile(50)
		return p50 >= min && p50 <= max &&
			h.Percentile(10) <= h.Percentile(90)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	s := Series{Name: "test", XLabel: "x", YLabel: "y"}
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	table := s.Table()
	if !strings.Contains(table, "test") || !strings.Contains(table, "81.00") {
		t.Errorf("Table output wrong:\n%s", table)
	}
	plot := s.AsciiPlot(40, 8)
	if !strings.Contains(plot, "*") {
		t.Error("plot has no points")
	}
	if lines := strings.Count(plot, "\n"); lines != 10 {
		t.Errorf("plot has %d lines", lines)
	}
	// Degenerate cases must not panic.
	if (&Series{}).AsciiPlot(40, 8) != "" {
		t.Error("empty series should produce no plot")
	}
	flat := Series{Name: "flat"}
	flat.Append(0, 5)
	flat.Append(1, 5)
	_ = flat.AsciiPlot(10, 3)
}

// TestMinLargeSampleCount is the regression test for the old
// Min-via-Percentile(0.0001) implementation: nearest-rank maps p=0.0001
// to rank 2 once n exceeds 10⁶, silently returning the wrong sample.
func TestMinLargeSampleCount(t *testing.T) {
	var h Histogram
	const n = 1_000_001
	for i := 0; i < n; i++ {
		h.Observe(float64(i) + 10)
	}
	h.Observe(-3) // the true minimum, observed last
	if got := h.Min(); got != -3 {
		t.Errorf("Min = %f, want -3", got)
	}
	if got := h.Max(); got != float64(n-1)+10 {
		t.Errorf("Max = %f, want %f", got, float64(n-1)+10)
	}
}

func TestPercentileRejectsOutOfRange(t *testing.T) {
	var h Histogram
	h.Observe(1)
	h.Observe(2)
	for _, p := range []float64{0, -1, 0.0, 100.0001, 200} {
		if got := h.Percentile(p); got != 0 {
			t.Errorf("Percentile(%f) = %f, want 0 (rejected)", p, got)
		}
	}
	if got := h.Percentile(100); got != 2 {
		t.Errorf("Percentile(100) = %f", got)
	}
}

func TestMinMaxAfterMixedObservations(t *testing.T) {
	var h Histogram
	for _, v := range []float64{5, -2, 7, 0} {
		h.Observe(v)
	}
	_ = h.Percentile(50) // sort, then observe more (must not stale Min/Max)
	h.Observe(-9)
	h.Observe(99)
	if h.Min() != -9 || h.Max() != 99 {
		t.Errorf("min/max = %f/%f", h.Min(), h.Max())
	}
}
