package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter", Labels{"mode": "hints"})
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Errorf("counter = %d", c.Value())
	}
	// Same (name, labels) returns the same series.
	if r.Counter("test_total", "a counter", Labels{"mode": "hints"}) != c {
		t.Error("counter series not deduplicated")
	}
	// Different labels make a new series.
	c2 := r.Counter("test_total", "a counter", Labels{"mode": "preload"})
	if c2 == c {
		t.Error("label variants must be distinct series")
	}

	g := r.Gauge("test_gauge", "a gauge", nil)
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Errorf("gauge = %f", g.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", nil)
	defer func() {
		if recover() == nil {
			t.Error("registering x as gauge after counter should panic")
		}
	}()
	r.Gauge("x", "", nil)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", nil, []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5.56) > 1e-9 {
		t.Errorf("sum = %f", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(2.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 8000*2.5 {
		t.Errorf("sum = %f", h.Sum())
	}
}

func TestCollectorRunsAtScrape(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.AddCollector(CollectorFunc(func(r *Registry) {
		calls++
		r.Gauge("scrapes", "", nil).Set(float64(calls))
	}))
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf)
	_ = r.WritePrometheus(&buf)
	if calls != 2 {
		t.Errorf("collector ran %d times, want 2", calls)
	}
	samples := r.Snapshot()
	if len(samples) != 1 || samples[0].Value != 3 {
		t.Errorf("snapshot = %+v", samples)
	}
}

// TestPrometheusGolden pins the full text exposition format against a
// golden file so format drift is an explicit decision.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("rootless_resolver_resolutions_total", "total resolutions", Labels{"mode": "lookaside"}).Set(120)
	r.Counter("rootless_resolver_resolutions_total", "total resolutions", Labels{"mode": "hints"}).Set(80)
	// One family, a series per verdict: how drops are given a reason.
	r.Counter("rootless_resolver_frontdoor_total", "datagrams by route", Labels{"path": "sync"}).Set(950)
	r.Counter("rootless_resolver_frontdoor_total", "datagrams by route", Labels{"path": "pool"}).Set(40)
	r.Counter("rootless_resolver_frontdoor_total", "datagrams by route", Labels{"path": "shed"}).Set(10)
	r.Gauge("rootless_cache_rrsets", "cached RRsets", nil).Set(4321)
	r.GaugeFunc("rootless_zone_age_seconds", "staleness age", Labels{"serial": "2019060700"},
		func() float64 { return 151.5 })
	h := r.Histogram("rootless_resolver_resolution_seconds", "resolution latency", nil,
		[]float64{0.001, 0.01, 0.1, 1})
	h.Observe(0.0005)
	h.Observe(0.03)
	h.ObserveDuration(250 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWriteJSONIsValid(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", Labels{"x": "1"}).Set(7)
	r.Gauge("b", "", nil).Set(1.5)
	r.Histogram("c", "", nil, []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	for _, name := range []string{"a_total", "b", "c"} {
		if _, ok := doc[name]; !ok {
			t.Errorf("JSON missing %q", name)
		}
	}
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Resolutions":     "resolutions",
		"CacheAnswers":    "cache_answers",
		"NegCacheAnswers": "neg_cache_answers",
		"NXDomain":        "nx_domain",
		"TLDQueries":      "tld_queries",
		"SRTTUpdates":     "srtt_updates",
		"CNAMEChases":     "cname_chases",
		"AXFRs":           "axfrs",
		"IXFRs":           "ixfrs",
		"Hits":            "hits",
		"BundleBytes":     "bundle_bytes",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSetCountersFromStruct(t *testing.T) {
	type demo struct {
		Hits      int64
		Misses    int64
		Rounds    int
		Serial    uint32
		Rate      float64 // non-integer: skipped
		unexposed int64   // unexported: skipped
	}
	_ = demo{}.unexposed
	r := NewRegistry()
	SetCountersFromStruct(r, "demo", "demo stats", Labels{"id": "1"},
		demo{Hits: 10, Misses: 3, Rounds: 2, Serial: 9, Rate: 0.5})
	samples := r.Snapshot()
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4: %+v", len(samples), samples)
	}
	want := map[string]float64{
		"demo_hits_total":   10,
		"demo_misses_total": 3,
		"demo_rounds_total": 2,
		"demo_serial_total": 9,
	}
	for _, s := range samples {
		if v, ok := want[s.Name]; !ok || v != s.Value {
			t.Errorf("sample %s = %f, want %f", s.Name, s.Value, v)
		}
		delete(want, s.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing samples: %v", want)
	}
}
