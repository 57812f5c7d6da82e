package obs

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHDRIndexRoundTrip pins the bucket geometry: every value maps to a
// bucket whose [lower, next-lower) range contains it, and the midpoint
// estimate is within the advertised relative error bound.
func TestHDRIndexRoundTrip(t *testing.T) {
	values := []int64{0, 1, 2, 127, 128, 129, 255, 256, 1000, 4095, 4096,
		1e6, 1e9, 3e9, int64(1e12), int64(1<<62) + 12345}
	for _, v := range values {
		idx := hdrIndex(v)
		lo := hdrLower(idx)
		if lo > v {
			t.Errorf("hdrLower(%d)=%d > value %d", idx, lo, v)
		}
		if idx+1 < hdrBuckets {
			if hi := hdrLower(idx + 1); hi <= v {
				t.Errorf("value %d beyond bucket %d (next lower %d)", v, idx, hi)
			}
		}
		mid := hdrMid(idx)
		if v > 0 {
			relErr := math.Abs(float64(mid-v)) / float64(v)
			if relErr > 1.0/hdrSubCount {
				t.Errorf("value %d: midpoint %d rel err %.4f > %.4f",
					v, mid, relErr, 1.0/hdrSubCount)
			}
		}
	}
}

// TestHDRQuantileAccuracy records a known distribution and checks every
// quantile estimate is within 1% of the exact order statistic.
func TestHDRQuantileAccuracy(t *testing.T) {
	h := NewHDR()
	rng := rand.New(rand.NewSource(9))
	n := 50000
	exact := make([]int64, n)
	for i := range exact {
		// Log-uniform over ~5 decades: 1µs .. 100ms in nanoseconds.
		v := int64(1000 * math.Pow(10, rng.Float64()*5))
		exact[i] = v
		h.Record(v)
	}
	sortInt64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		rank := int(math.Ceil(q * float64(n)))
		if rank < 1 {
			rank = 1
		}
		want := exact[rank-1]
		got := h.Quantile(q)
		relErr := math.Abs(float64(got-want)) / float64(want)
		if relErr > 0.01 {
			t.Errorf("q=%v: got %d want %d (rel err %.4f > 1%%)", q, got, want, relErr)
		}
	}
	if h.Count() != int64(n) {
		t.Errorf("count %d want %d", h.Count(), n)
	}
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestHDRQuantilesBatchMatchesSingle(t *testing.T) {
	h := NewHDR()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000)
	}
	qs := []float64{0, 0.5, 0.99, 0.999, 1}
	batch := h.Quantiles(qs)
	for i, q := range qs {
		if single := h.Quantile(q); single != batch[i] {
			t.Errorf("q=%v: batch %d != single %d", q, batch[i], single)
		}
	}
	// Descending input still resolves correctly (fallback path).
	desc := h.Quantiles([]float64{0.99, 0.5})
	if desc[0] != h.Quantile(0.99) || desc[1] != h.Quantile(0.5) {
		t.Errorf("descending quantiles wrong: %v", desc)
	}
}

func TestHDRMerge(t *testing.T) {
	a, b := NewHDR(), NewHDR()
	for i := int64(0); i < 100; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count %d", a.Count())
	}
	if got := a.Quantile(1); got < 1000 {
		t.Errorf("merged max quantile %d, want ≥ 1000", got)
	}
	if a.Sum() != NewHDR().Sum()+99*100/2+(1000+1099)*100/2 {
		t.Errorf("merged sum %d", a.Sum())
	}
	a.Merge(nil) // nil-safe
}

// TestHDRConcurrent: concurrent writers lose no observation, and the sum
// stays exact, so Mean is the arithmetic mean experiments report.
func TestHDRConcurrent(t *testing.T) {
	h := NewHDR()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.RecordDuration(2500 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 8000*int64(2500*time.Microsecond) || h.Mean() != float64(2500*time.Microsecond) {
		t.Errorf("sum = %d, mean = %v", h.Sum(), h.Mean())
	}
}

func TestHDREmptyAndNil(t *testing.T) {
	var h *HDR
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Error("nil HDR must read as zero")
	}
	e := NewHDR()
	if e.Quantile(0.5) != 0 || len(e.Quantiles([]float64{0.5, 0.99})) != 2 {
		t.Error("empty HDR must report zeros")
	}
	e.Record(-5) // clamps to 0
	if e.Count() != 1 || e.Quantile(1) != 0 {
		t.Error("negative record must clamp to zero")
	}
}

// TestHDRRecordAllocs pins the acceptance bar: Record allocates nothing.
func TestHDRRecordAllocs(t *testing.T) {
	h := NewHDR()
	if n := testing.AllocsPerRun(1000, func() { h.Record(123456) }); n != 0 {
		t.Errorf("Record allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.RecordDuration(5 * time.Millisecond) }); n != 0 {
		t.Errorf("RecordDuration allocates %v/op, want 0", n)
	}
}

// TestRegistryHDRTimerExposition checks the summary exposition surfaces:
// quantile-labelled series in seconds on both Prometheus and JSON forms.
func TestRegistryHDRTimerExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.HDRTimer("rootless_test_latency_seconds", "t", nil)
	for i := 0; i < 1000; i++ {
		h.RecordDuration(time.Millisecond)
	}
	h.RecordDuration(time.Second) // the tail outlier

	samples := reg.Snapshot()
	var p50, p9999, count float64
	for _, s := range samples {
		switch {
		case s.Name == "rootless_test_latency_seconds" && s.Labels["quantile"] == "0.5":
			p50 = s.Value
		case s.Name == "rootless_test_latency_seconds" && s.Labels["quantile"] == "0.9999":
			p9999 = s.Value
		case s.Name == "rootless_test_latency_seconds_count":
			count = s.Value
		}
	}
	if count != 1001 {
		t.Fatalf("count %v", count)
	}
	if p50 < 0.00099 || p50 > 0.00101 {
		t.Errorf("p50 %v, want ~1ms", p50)
	}
	if p9999 < 0.99 || p9999 > 1.01 {
		t.Errorf("p9999 %v, want ~1s", p9999)
	}

	// Same instrument for the same (name, labels).
	if reg.HDRTimer("rootless_test_latency_seconds", "t", nil) != h {
		t.Error("HDRTimer must return the same series")
	}
}

// BenchmarkHDRRecord is the hot-path cost of one observation — the
// acceptance bound is ≤20 ns and zero allocations (BENCH_PR9 pins it).
func BenchmarkHDRRecord(b *testing.B) {
	h := NewHDR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) * 17)
	}
}

// BenchmarkHDRQuantile prices a scrape-time tail read (p999 over a
// populated histogram) and reports the estimate's relative error
// against the known uniform distribution — the deterministic p999
// accuracy figure BENCH_PR9 derives.
func BenchmarkHDRQuantile(b *testing.B) {
	h := NewHDR()
	const n = 1 << 16
	for i := 1; i <= n; i++ {
		h.Record(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var v int64
	for i := 0; i < b.N; i++ {
		v = h.Quantile(0.999)
	}
	exact := 0.999 * n
	b.ReportMetric(math.Abs(float64(v)-exact)/exact, "p999-rel-err")
}
