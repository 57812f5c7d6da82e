package resolver

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// TestTraceScrapeRace hammers the HTTP-level trace export under -race:
// resolutions write spans into the tracer ring while the admin handler
// concurrently serves /tracez (text tree), /tracez?format=json, and
// /metrics — the exact traffic a dashboard refreshing against a live
// resolverd produces. The span exporter walks finished trace trees, so
// every scrape must see either a fully finished trace or none of it;
// this is the regression test for the trace-export race.
func TestTraceScrapeRace(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints)
	tracer := obs.NewTracer(32, 0)
	tracer.SetEnabled(true)
	r.SetTracer(tracer)
	reg := obs.NewRegistry()
	r.Instrument(reg)
	tracer.InstrumentAttribution(reg)
	h := (&obs.Admin{Registry: reg, Tracer: tracer}).Handler()

	names := []dnswire.Name{
		"www.example.com.", "alias.example.com.", "text.example.com.",
		"deep.sub.example.com.", "nope.example.com.", "example.com.",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = r.Resolve(names[(w+i)%len(names)], dnswire.TypeA)
			}
		}(w)
	}

	paths := []string{"/tracez?format=json", "/tracez", "/metrics"}
	for i := 0; i < 200; i++ {
		path := paths[i%len(paths)]
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d: GET %s -> %d", i, path, rec.Code)
		}
		if path == "/metrics" && !strings.Contains(rec.Body.String(), "rootless_trace_phase_seconds") {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d: /metrics missing attribution summaries", i)
		}
	}
	close(stop)
	wg.Wait()

	if tracer.Seen() == 0 {
		t.Fatal("tracer saw no resolutions")
	}
}
