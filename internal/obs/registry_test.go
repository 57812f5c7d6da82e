package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
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
	// The resolution latency family as resolverd registers it.
	h := r.HDRTimer("rootless_resolver_resolution_seconds", "resolution latency", nil)
	h.RecordDuration(500 * time.Microsecond)
	h.RecordDuration(30 * time.Millisecond)
	h.RecordDuration(250 * time.Millisecond)

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
	r.HDRTimer("c", "", nil).Record(5e8)
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

// TestRegisterWhileScraping registers labelled series on one family from
// a goroutine while all three writers scrape, as a collector that meets a
// new label during a scrape does. Under -race it fails if a writer reads a
// family's series list, or a series' instrument, that registration writes.
// The goroutine also scrapes now and then, so a collector's GaugeFunc runs
// beside another scrape's read of it.
func TestRegisterWhileScraping(t *testing.T) {
	const n = 2000
	r := NewRegistry()
	r.Counter("reg_total", "labelled counters", Labels{"i": "seed"}).Inc()
	r.AddCollector(CollectorFunc(func(r *Registry) {
		r.GaugeFunc("reg_fn", "read at scrape time", nil, func() float64 { return 1 })
	}))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range n {
			r.Counter("reg_total", "labelled counters", Labels{"i": strconv.Itoa(i)}).Inc()
			if i%100 == 0 {
				r.HDRTimer("reg_seconds", "labelled timers", Labels{"i": strconv.Itoa(i)}).Record(1e6)
				r.Snapshot()
			}
		}
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("invalid JSON mid-registration:\n%s", buf.String())
		}
		r.Snapshot()
	}
	var count int
	for _, s := range r.Snapshot() {
		if s.Name == "reg_total" {
			count++
		}
	}
	if count != n+1 {
		t.Errorf("%d reg_total series after registration, want %d", count, n+1)
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
