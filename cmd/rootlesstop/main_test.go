package main

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
)

// testDaemon fakes a resolverd admin endpoint: a registry with resolver-
// shaped counters, phase summaries, and a live traffic analyzer.
func testDaemon(t *testing.T) (*httptest.Server, *obs.Registry, *traffic.Analyzer) {
	t.Helper()
	reg := obs.NewRegistry()
	an := traffic.NewAnalyzer(traffic.NewTLDSet([]dnswire.Name{"com.", "net."}), 8)
	reg.AddCollector(obs.CollectorFunc(an.Collect))
	admin := &obs.Admin{
		Registry: reg,
		Status: func() map[string]any {
			return map[string]any{"component": "resolverd", "mode": "lookaside", "uptime_seconds": 12.0}
		},
		TopK: an.Handler(),
	}
	srv := httptest.NewServer(admin.Handler())
	t.Cleanup(srv.Close)
	return srv, reg, an
}

func TestFrameRendersLiveDashboard(t *testing.T) {
	srv, reg, an := testDaemon(t)

	resolutions := reg.Counter("rootless_resolver_resolutions_total", "t", nil)
	hits := reg.Counter("rootless_cache_hits_total", "t", nil)
	misses := reg.Counter("rootless_cache_misses_total", "t", nil)
	netPhase := reg.HDRTimer("rootless_trace_phase_seconds", "t", obs.Labels{"phase": "net"})
	cachePhase := reg.HDRTimer("rootless_trace_phase_seconds", "t", obs.Labels{"phase": "cache"})

	sync := reg.Counter("rootless_resolver_frontdoor_total", "t", obs.Labels{"path": "sync"})
	pool := reg.Counter("rootless_resolver_frontdoor_total", "t", obs.Labels{"path": "pool"})
	shed := reg.Counter("rootless_resolver_frontdoor_total", "t", obs.Labels{"path": "shed"})

	resolutions.Set(100)
	hits.Set(80)
	misses.Set(20)
	sync.Set(90)
	pool.Set(10)
	netPhase.RecordDuration(900 * time.Millisecond)
	cachePhase.RecordDuration(100 * time.Millisecond)
	for i := 0; i < 6; i++ {
		an.Observe("www.example.com.", dnswire.TypeA)
	}
	for i := 0; i < 4; i++ {
		an.Observe("printer.local.", dnswire.TypeA)
	}

	base := strings.TrimPrefix(srv.URL, "http://")
	app := newApp([]string{"res=" + base}, 5)

	t0 := time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)
	first := app.frame(t0)
	for _, want := range []string{
		"▌ res (resolverd) @ " + base,
		"mode=lookaside",
		"load 100.0 queries", // first frame: cumulative
		"hit rate 80.0%",
		// 5 of the 6 www lookups are repeats, and repeats are junk in the
		// paper's taxonomy: (5 repeats + 4 bogus) / 10 observed.
		"junk 90.0%",
		"phases: net 90% cache 10%",
		"front door: sync 90.0% pool 10.0%",
		"composition: valid_repeat 50.0% bogus_tld 40.0% valid 10.0%",
		"top qnames:",
		"www.example.com.",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("first frame missing %q:\n%s", want, first)
		}
	}

	// Advance the world: +50 resolutions, +40 hits, +10 misses over 2s.
	resolutions.Set(150)
	hits.Set(120)
	misses.Set(30)
	sync.Set(120) // +30 answered on the worker, +10 to the pool, +10 shed
	pool.Set(20)
	shed.Set(10)
	second := app.frame(t0.Add(2 * time.Second))
	for _, want := range []string{
		"load 25.0 q/s",  // 50 resolutions / 2s
		"hit rate 80.0%", // 40/(40+10) interval hits
		"front door: sync 60.0% pool 20.0% shed 20.0%",
		// No class counter moved this interval, so composition falls back
		// to the cumulative mix.
		"composition: valid_repeat 50.0% bogus_tld 40.0% valid 10.0%",
	} {
		if !strings.Contains(second, want) {
			t.Errorf("second frame missing %q:\n%s", want, second)
		}
	}
}

func TestFrameUnreachableTarget(t *testing.T) {
	app := newApp([]string{"down=127.0.0.1:1"}, 5)
	frame := app.frame(time.Now())
	if !strings.Contains(frame, "unreachable") {
		t.Fatalf("frame = %q", frame)
	}
}

func TestParseTarget(t *testing.T) {
	if n, b := parseTarget("res=127.0.0.1:9153"); n != "res" || b != "127.0.0.1:9153" {
		t.Errorf("got %q %q", n, b)
	}
	if n, b := parseTarget("127.0.0.1:9153"); n != "127.0.0.1:9153" || b != "127.0.0.1:9153" {
		t.Errorf("got %q %q", n, b)
	}
}

// TestFrameTailAndSLO: a daemon exposing an HDR latency summary and SLO
// gauges gets the latency-tail and burn-rate panels.
func TestFrameTailAndSLO(t *testing.T) {
	srv, reg, _ := testDaemon(t)

	lat := reg.HDRTimer("rootless_resolver_resolution_seconds", "t", nil)
	for i := 0; i < 1000; i++ {
		lat.RecordDuration(2 * time.Millisecond)
	}
	lat.RecordDuration(80 * time.Millisecond) // the tail outlier

	clk := time.Unix(1700000000, 0)
	w := obs.NewWatchdog(func() time.Time { return clk })
	tr := w.Add(obs.SLOConfig{Name: "errors", Budget: 0.01, MinEvents: 1,
		FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second})
	for i := 0; i < 100; i++ {
		tr.Observe(false) // 100% bad: burn 100, alert firing
	}
	w.Collect(reg)

	base := strings.TrimPrefix(srv.URL, "http://")
	app := newApp([]string{"res=" + base}, 5)
	frame := app.frame(time.Now())
	for _, want := range []string{
		"latency: p50 2.0ms", "p9999 8", // p9999 lands on the ~80ms outlier
		"slo: errors burn 100.0/100.0 budget 1%", "[ALERT]",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestSnapshotJSON: the -json one-shot carries status, metrics (with
// summary quantiles), and topk; unreachable targets get an error field.
func TestSnapshotJSON(t *testing.T) {
	srv, reg, an := testDaemon(t)
	reg.Counter("rootless_resolver_resolutions_total", "t", nil).Set(3)
	reg.HDRTimer("rootless_resolver_resolution_seconds", "t", nil).
		RecordDuration(5 * time.Millisecond)
	an.Observe("www.example.com.", dnswire.TypeA)

	base := strings.TrimPrefix(srv.URL, "http://")
	app := newApp([]string{"res=" + base, "down=127.0.0.1:1"}, 5)
	doc := app.snapshot(time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC))

	if doc.At != "2026-08-08T12:00:00Z" || len(doc.Targets) != 2 {
		t.Fatalf("snapshot: %+v", doc)
	}
	res := doc.Targets[0]
	if res.Error != "" || res.Status["component"] != "resolverd" || res.TopK == nil {
		t.Fatalf("target: %+v", res)
	}
	if v, _ := res.Metrics.total("rootless_resolver_resolutions_total"); v != 3 {
		t.Errorf("resolutions in snapshot = %v", v)
	}
	sum := res.Metrics["rootless_resolver_resolution_seconds"]
	if len(sum.Series) != 1 || sum.Series[0].Quantiles["0.999"] <= 0 {
		t.Errorf("summary quantiles missing: %+v", sum)
	}
	if down := doc.Targets[1]; down.Error == "" || down.Status != nil {
		t.Errorf("down target: %+v", down)
	}

	// The document round-trips as JSON (what -json prints).
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"quantiles"`) {
		t.Error("marshalled snapshot lacks quantiles")
	}
}

// TestFrameWithoutTopK: a daemon without a traffic analyzer (no /topk)
// still renders its load line.
func TestFrameWithoutTopK(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("rootless_authserver_queries_total", "t", nil).Set(7)
	admin := &obs.Admin{Registry: reg, Status: func() map[string]any {
		return map[string]any{"component": "authd"}
	}}
	srv := httptest.NewServer(admin.Handler())
	defer srv.Close()
	app := newApp([]string{strings.TrimPrefix(srv.URL, "http://")}, 5)
	frame := app.frame(time.Now())
	if !strings.Contains(frame, "(authd)") || !strings.Contains(frame, "load 7.0 queries") {
		t.Fatalf("frame:\n%s", frame)
	}
	if strings.Contains(frame, "junk") {
		t.Error("junk line rendered without a /topk endpoint")
	}
}
