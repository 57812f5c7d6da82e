package experiments

import (
	"strings"
	"testing"
)

// Each experiment must reproduce its paper rows (Match on every row).
// These tests run the same code cmd/experiments and the benches use, at
// reduced scale where a scale knob exists.

func checkResult(t *testing.T, r Result) {
	t.Helper()
	if len(r.Rows) == 0 {
		t.Fatalf("%s produced no rows (notes: %s)", r.ID, r.Notes)
	}
	for _, row := range r.Rows {
		if !row.Match {
			t.Errorf("%s: %s: paper %q vs measured %q", r.ID, row.Metric, row.Paper, row.Measured)
		}
	}
	text := r.Render()
	if !strings.Contains(text, r.ID) || !strings.Contains(text, r.Title) {
		t.Error("Render missing ID or title")
	}
}

func TestFig1(t *testing.T) {
	r := Fig1RootZoneGrowth()
	checkResult(t, r)
	if len(r.Series) != 1 || len(r.Series[0].Y) < 30 {
		t.Error("fig1 series too short")
	}
	// The series must show the stability → growth → plateau shape.
	y := r.Series[0].Y
	first, last := y[0], y[len(y)-1]
	if last < 3*first {
		t.Errorf("series does not grow enough: %v -> %v", first, last)
	}
}

func TestFig2(t *testing.T) {
	r := Fig2InstanceGrowth()
	checkResult(t, r)
	y := r.Series[0].Y
	for i := 1; i < len(y); i++ {
		if y[i] < y[i-1] {
			t.Fatal("instance series not monotone")
		}
	}
}

func TestTrafficClassification(t *testing.T) {
	checkResult(t, TrafficClassification(200_000))
}

func TestHintsAndZoneSize(t *testing.T) {
	checkResult(t, HintsFile())
	checkResult(t, ZoneSize())
}

func TestCachePreload(t *testing.T) {
	checkResult(t, CachePreload())
}

func TestTLDExtraction(t *testing.T) {
	checkResult(t, TLDExtraction(3))
}

func TestDistributionLoad(t *testing.T) {
	checkResult(t, DistributionLoad())
}

func TestStaleness(t *testing.T) {
	checkResult(t, Staleness())
}

func TestNewTLDLag(t *testing.T) {
	checkResult(t, NewTLDLag())
}

func TestResolutionLatency(t *testing.T) {
	checkResult(t, ResolutionLatency(150))
}

func TestRobustness(t *testing.T) {
	checkResult(t, Robustness())
}

func TestChaos(t *testing.T) {
	checkResult(t, Chaos(16))
}

func TestOverload(t *testing.T) {
	checkResult(t, Overload(1200))
}

func TestAttack(t *testing.T) {
	checkResult(t, Attack(40))
}

func TestPrivacy(t *testing.T) {
	checkResult(t, Privacy(80))
}

func TestComplexity(t *testing.T) {
	checkResult(t, Complexity(60))
}

func TestTTLSweep(t *testing.T) {
	checkResult(t, TTLSweep())
}

func TestAdditionsChannel(t *testing.T) {
	checkResult(t, AdditionsChannel())
}

func TestInfrastructure(t *testing.T) {
	checkResult(t, Infrastructure())
}

func TestServe(t *testing.T) {
	r := Serve(4000)
	checkResult(t, r)
	if !strings.Contains(r.Notes, "host-bound") && !strings.Contains(r.Notes, "failed") {
		t.Errorf("t_serve notes missing host caveat: %q", r.Notes)
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{ID: "x", Title: "t", Rows: []Row{
		{Metric: "a", Paper: "1", Measured: "1", Match: true},
	}}
	if !r.Matches() {
		t.Error("Matches should be true")
	}
	r.Rows = append(r.Rows, Row{Metric: "b", Match: false})
	if r.Matches() {
		t.Error("Matches should be false")
	}
	if !strings.Contains(r.Render(), "MISMATCH") {
		t.Error("Render should flag mismatches")
	}
	if !within(100, 100, 0) || !within(102, 100, 0.05) || within(110, 100, 0.05) {
		t.Error("within tolerances wrong")
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
