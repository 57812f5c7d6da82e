package obs

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// scrapedSummary is one summary series as a scrape shows it.
type scrapedSummary struct {
	quantiles []float64 // in TailQuantiles order
	count     int64
}

// parsePromSummary pulls one unlabelled summary out of a Prometheus text
// exposition, failing on any line that does not parse.
func parsePromSummary(t *testing.T, body, name string) scrapedSummary {
	t.Helper()
	got := scrapedSummary{quantiles: make([]float64, len(TailQuantiles)), count: -1}
	seen := 0
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, "# TYPE "+name+" ") && line != "# TYPE "+name+" summary" {
				t.Fatalf("%q: want TYPE summary", line)
			}
			continue
		}
		key, raw, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(raw, 64)
		if !ok || err != nil {
			t.Fatalf("bad exposition line %q", line)
		}
		switch {
		case key == name+"_count":
			got.count = int64(v)
		case strings.HasPrefix(key, name+`{quantile="`):
			for i, q := range TailQuantiles {
				if key == name+`{quantile="`+formatValue(q)+`"}` {
					got.quantiles[i] = v
					seen++
				}
			}
		}
	}
	if got.count < 0 || seen != len(TailQuantiles) {
		t.Fatalf("summary %s incomplete in exposition:\n%s", name, body)
	}
	return got
}

// parseJSONSummary pulls the same series out of a WriteJSON document.
func parseJSONSummary(t *testing.T, body []byte, name string) scrapedSummary {
	t.Helper()
	var doc map[string]struct {
		Kind   string `json:"kind"`
		Series []struct {
			Quantiles map[string]float64 `json:"quantiles"`
			Count     int64              `json:"count"`
		} `json:"series"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	f := doc[name]
	if f.Kind != "summary" || len(f.Series) != 1 {
		t.Fatalf("family %s = %+v", name, f)
	}
	got := scrapedSummary{count: f.Series[0].Count}
	for _, q := range TailQuantiles {
		v, ok := f.Series[0].Quantiles[formatValue(q)]
		if !ok {
			t.Fatalf("quantile %v missing: %s", q, body)
		}
		got.quantiles = append(got.quantiles, v)
	}
	return got
}

func (s scrapedSummary) ascending() bool {
	for i := 1; i < len(s.quantiles); i++ {
		if s.quantiles[i] < s.quantiles[i-1] {
			return false
		}
	}
	return true
}

// TestSummaryExpositionTornState: Record bumps a bucket before the count,
// so a scrape can land between the two writes. The quantile walk ranks
// against the count it read, so the extra bucket must not push any
// quantile off the recorded values, and _count reports only the finished
// Records.
func TestSummaryExpositionTornState(t *testing.T) {
	reg := NewRegistry()
	h := reg.HDRTimer("rootless_torn_seconds", "torn", nil)
	h.Record(5e7) // 50 ms
	// Simulate the torn state directly: a bucket increment whose count
	// increment has not landed yet.
	h.counts[hdrIndex(2e9)].Add(1)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := parsePromSummary(t, buf.String(), "rootless_torn_seconds")
	if got.count != 1 {
		t.Errorf("_count %d, want the 1 finished Record", got.count)
	}
	for i, v := range got.quantiles {
		if v < 0.049 || v > 0.051 {
			t.Errorf("quantile %v = %v s, want ~0.05 (the torn bucket is past the count)", TailQuantiles[i], v)
		}
	}
}

// TestHistogramScrapeWhileObserving hammers an HDR histogram's summary
// exposition while writers Record: every Prometheus and JSON scrape
// parses, reports non-decreasing quantiles (p50 <= p99 <= p999 <= p9999),
// and shows a _count that never falls from one scrape to the next.
func TestHistogramScrapeWhileObserving(t *testing.T) {
	const name = "rootless_live_seconds"
	reg := NewRegistry()
	h := reg.HDRTimer(name, "live", nil)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Record(int64(i%2000) * 1e6) // 0 .. 2 s
				}
			}
		}(g)
	}
	var last int64
	for i := 0; i < 300; i++ {
		var buf bytes.Buffer
		var got scrapedSummary
		if i%2 == 0 {
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			got = parsePromSummary(t, buf.String(), name)
		} else {
			if err := reg.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			got = parseJSONSummary(t, buf.Bytes(), name)
		}
		if !got.ascending() || got.count < last {
			close(stop)
			wg.Wait()
			t.Fatalf("scrape %d: quantiles %v, _count %d after %d", i, got.quantiles, got.count, last)
		}
		last = got.count
	}
	close(stop)
	wg.Wait()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := parsePromSummary(t, buf.String(), name); got.count != h.Count() || got.count < last {
		t.Errorf("settled: _count %d, raw %d, last scrape %d", got.count, h.Count(), last)
	}
}

// TestHistogramBucketsAreCumulative: the summary's quantiles come from a
// cumulative walk over the HDR buckets, so with a fixed set of
// observations each bucket's running total must be non-decreasing and end
// at _count, the exposed quantiles must ascend, and the top quantile must
// reach the largest observation (the +Inf end of the walk).
func TestHistogramBucketsAreCumulative(t *testing.T) {
	const name = "rootless_cum_seconds"
	reg := NewRegistry()
	h := reg.HDRTimer(name, "cum", nil)
	vals := []float64{0.005, 0.005, 0.05, 0.5, 5}
	for _, v := range vals {
		h.Record(int64(v * 1e9))
	}
	var cum, prev int64
	occupied := 0
	for i := range h.counts {
		c := h.counts[i].Load()
		if c != 0 {
			occupied++
		}
		cum += c
		if cum < prev {
			t.Fatalf("bucket %d: running total %d after %d", i, cum, prev)
		}
		prev = cum
	}
	if cum != int64(len(vals)) || occupied != 4 {
		t.Errorf("buckets total %d over %d occupied, want %d over 4", cum, occupied, len(vals))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := parsePromSummary(t, buf.String(), name)
	if got.count != int64(len(vals)) {
		t.Errorf("_count %d, want %d", got.count, len(vals))
	}
	if !got.ascending() {
		t.Errorf("quantiles regressed: %v", got.quantiles)
	}
	if p50 := got.quantiles[0]; p50 < 0.049 || p50 > 0.051 {
		t.Errorf("p50 %v s, want ~0.05 (the 3rd of 5 observations)", p50)
	}
	if top := got.quantiles[len(got.quantiles)-1]; top < 4.95 || top > 5.05 {
		t.Errorf("p9999 %v s, want ~5 (the largest observation)", top)
	}
}
