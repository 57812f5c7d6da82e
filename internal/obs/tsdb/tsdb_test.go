package tsdb

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rootless/internal/obs"
)

var t0 = time.Date(2026, time.August, 8, 12, 0, 0, 0, time.UTC)

func tick(rec *Recorder, now *time.Time, n int) {
	for i := 0; i < n; i++ {
		*now = now.Add(rec.Interval())
		rec.Record(*now)
	}
}

func find(series []SeriesData, name string) *SeriesData {
	for i := range series {
		if series[i].Name == name {
			return &series[i]
		}
	}
	return nil
}

func TestRecorderBasics(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("rootless_test_total", "t", nil)
	rec := NewRecorder(reg, Options{Interval: time.Second, PointsPerLevel: 10, Levels: 2, Factor: 5})
	now := t0
	for i := 1; i <= 3; i++ {
		c.Set(int64(10 * i))
		tick(rec, &now, 1)
	}
	se := find(rec.Series(0, ""), "rootless_test_total")
	if se == nil || len(se.Points) != 3 {
		t.Fatalf("series = %+v", se)
	}
	if se.Points[0].V != 10 || se.Points[2].V != 30 {
		t.Errorf("points = %v", se.Points)
	}
	if se.Kind != obs.KindCounter {
		t.Errorf("kind = %v", se.Kind)
	}
}

// TestRingWrapAround: pushing past capacity drops the oldest points and
// keeps chronological order.
func TestRingWrapAround(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("rootless_wrap_total", "t", nil)
	rec := NewRecorder(reg, Options{Interval: time.Second, PointsPerLevel: 4, Levels: 1})
	now := t0
	for i := 1; i <= 10; i++ {
		c.Set(int64(i))
		tick(rec, &now, 1)
	}
	se := find(rec.Series(0, ""), "rootless_wrap_total")
	if len(se.Points) != 4 {
		t.Fatalf("ring holds %d points, want 4", len(se.Points))
	}
	for i, p := range se.Points {
		if want := float64(7 + i); p.V != want {
			t.Errorf("point %d = %v, want %v", i, p.V, want)
		}
		if i > 0 && !se.Points[i].T.After(se.Points[i-1].T) {
			t.Errorf("points out of order at %d", i)
		}
	}
}

// TestDownsampling: coarser levels receive every Factor-th point.
func TestDownsampling(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("rootless_ds_total", "t", nil)
	rec := NewRecorder(reg, Options{Interval: time.Second, PointsPerLevel: 100, Levels: 3, Factor: 4})
	now := t0
	for i := 1; i <= 33; i++ {
		c.Set(int64(i))
		tick(rec, &now, 1)
	}
	l0 := find(rec.Series(0, ""), "rootless_ds_total")
	l1 := find(rec.Series(1, ""), "rootless_ds_total")
	l2 := find(rec.Series(2, ""), "rootless_ds_total")
	if len(l0.Points) != 33 {
		t.Errorf("level 0: %d points", len(l0.Points))
	}
	if len(l1.Points) != 8 { // ticks 4,8,...,32
		t.Errorf("level 1: %d points, want 8", len(l1.Points))
	}
	if len(l2.Points) != 2 { // ticks 16, 32
		t.Errorf("level 2: %d points, want 2", len(l2.Points))
	}
	// Last-value decimation: the level-1 point at tick 4 carries value 4.
	if l1.Points[0].V != 4 || l2.Points[0].V != 16 {
		t.Errorf("decimated values: l1[0]=%v l2[0]=%v", l1.Points[0].V, l2.Points[0].V)
	}
}

// TestMidRunSeries: a metric created after recording started begins its
// rings at the current tick without disturbing existing series.
func TestMidRunSeries(t *testing.T) {
	reg := obs.NewRegistry()
	early := reg.Counter("rootless_early_total", "t", nil)
	rec := NewRecorder(reg, Options{Interval: time.Second, PointsPerLevel: 16, Levels: 2, Factor: 2})
	now := t0
	early.Set(1)
	tick(rec, &now, 3)
	late := reg.Counter("rootless_late_total", "t", nil)
	late.Set(7)
	tick(rec, &now, 2)
	l0 := rec.Series(0, "")
	e, l := find(l0, "rootless_early_total"), find(l0, "rootless_late_total")
	if len(e.Points) != 5 {
		t.Errorf("early series: %d points, want 5", len(e.Points))
	}
	if l == nil || len(l.Points) != 2 {
		t.Fatalf("late series = %+v, want 2 points", l)
	}
	if l.Points[0].V != 7 {
		t.Errorf("late first point = %v", l.Points[0].V)
	}
	// The late series joins the shared downsampling cadence: at tick 4
	// (global), level 1 received a point from both.
	if l1 := find(rec.Series(1, ""), "rootless_late_total"); len(l1.Points) != 1 {
		t.Errorf("late level-1: %d points, want 1", len(l1.Points))
	}
}

// TestCounterResetRate: a counter that goes backwards (daemon restart)
// must never render a negative rate.
func TestCounterResetRate(t *testing.T) {
	pts := []Point{
		{T: t0, V: 100},
		{T: t0.Add(time.Second), V: 150},
		{T: t0.Add(2 * time.Second), V: 5}, // reset
		{T: t0.Add(3 * time.Second), V: 30},
	}
	rates := Rate(pts)
	if len(rates) != 3 {
		t.Fatalf("%d rates", len(rates))
	}
	want := []float64{50, 0, 25}
	for i, r := range rates {
		if r.V != want[i] {
			t.Errorf("rate %d = %v, want %v", i, r.V, want[i])
		}
		if r.V < 0 {
			t.Errorf("negative rate %v", r.V)
		}
	}
	if Rate(pts[:1]) != nil || Rate(nil) != nil {
		t.Error("degenerate inputs must yield no rates")
	}
}

func TestHandlerJSONAndCSV(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("rootless_h_total", "t", obs.Labels{"mode": "x"})
	g := reg.Gauge("rootless_h_gauge", "t", nil)
	rec := NewRecorder(reg, Options{Interval: time.Second, PointsPerLevel: 8, Levels: 2, Factor: 2})
	now := t0
	for i := 1; i <= 4; i++ {
		c.Set(int64(i * 10))
		g.Set(float64(i))
		tick(rec, &now, 1)
	}

	get := func(url string) (int, string, string) {
		w := httptest.NewRecorder()
		rec.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		return w.Code, w.Header().Get("Content-Type"), w.Body.String()
	}

	code, ct, body := get("/timeseries")
	if code != 200 || ct != "application/json" {
		t.Fatalf("json: %d %q", code, ct)
	}
	var doc timeseriesDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 2 || doc.IntervalSeconds != 1 {
		t.Errorf("doc = %+v", doc)
	}

	// rate=1 turns the counter into per-second deltas, leaves the gauge.
	code, _, body = get("/timeseries?rate=1&metric=rootless_h_total")
	if code != 200 {
		t.Fatal(code)
	}
	doc = timeseriesDoc{}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || len(doc.Series[0].Points) != 3 || doc.Series[0].Points[0][1] != 10 {
		t.Errorf("rated doc = %+v", doc)
	}

	code, ct, body = get("/timeseries?format=csv&level=1")
	if code != 200 || ct != "text/csv; charset=utf-8" {
		t.Fatalf("csv: %d %q", code, ct)
	}
	if !strings.HasPrefix(body, "name,labels,unix_seconds,value\n") ||
		!strings.Contains(body, "rootless_h_total,mode=x,") {
		t.Errorf("csv body:\n%s", body)
	}

	for _, bad := range []string{
		"/timeseries?format=xml", "/timeseries?level=9", "/timeseries?level=x", "/timeseries?rate=maybe",
	} {
		if code, _, _ := get(bad); code != 400 {
			t.Errorf("%s: code %d, want 400", bad, code)
		}
	}
}

func TestRunTicks(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("rootless_run_total", "t", nil).Set(1)
	rec := NewRecorder(reg, Options{Interval: 5 * time.Millisecond, PointsPerLevel: 64})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { rec.Run(ctx); close(done) }()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if se := find(rec.Series(0, ""), "rootless_run_total"); se != nil && len(se.Points) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recorder never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
}

// TestSummaryRates: a summary's _count and _sum are counters, so rate=1
// turns them into per-second rates; its quantiles are levels and stay.
func TestSummaryRates(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.HDRTimer("rootless_resolver_resolution_seconds", "t", nil)
	rec := NewRecorder(reg, Options{Interval: time.Second, PointsPerLevel: 8})
	now := t0
	for i := 0; i < 4; i++ {
		for j := 0; j < 10; j++ {
			h.RecordDuration(100 * time.Millisecond)
		}
		tick(rec, &now, 1)
	}
	w := httptest.NewRecorder()
	rec.ServeHTTP(w, httptest.NewRequest("GET", "/timeseries?rate=1&metric=rootless_resolver_resolution_seconds", nil))
	var doc timeseriesDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{ // per second, one tick a second
		"rootless_resolver_resolution_seconds_count": 10,
		"rootless_resolver_resolution_seconds_sum":   1,
	}
	for _, se := range doc.Series {
		if se.Labels["quantile"] != "" {
			if len(se.Points) != 4 || math.Abs(se.Points[3][1]-0.1) > 0.001 {
				t.Errorf("%s%v: want the 4 levels ~0.1 s, got %v", se.Name, se.Labels, se.Points)
			}
			continue
		}
		r, ok := want[se.Name]
		if !ok {
			t.Errorf("unexpected series %s", se.Name)
			continue
		}
		delete(want, se.Name)
		if se.Kind != "counter" || len(se.Points) != 3 {
			t.Errorf("%s: kind %s, %d points; want 3 counter rates", se.Name, se.Kind, len(se.Points))
			continue
		}
		for _, p := range se.Points {
			if math.Abs(p[1]-r) > 1e-9 {
				t.Errorf("%s: rate %v, want %v", se.Name, p[1], r)
			}
		}
	}
	if len(want) != 0 {
		t.Errorf("missing series: %v", want)
	}
}
