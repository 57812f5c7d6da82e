// Package experiments reproduces every quantitative claim in the paper:
// both figures plus each inline analysis in §2, §4 and §5, treated as a
// table. Each experiment returns a Result with paper-vs-measured rows so
// cmd/experiments, EXPERIMENTS.md, and the benchmark harness all share
// one source of truth.
//
// Absolute numbers need not match the paper (our substrate is a
// simulator, not DNS-OARC's capture or the 2019 Internet); the *shape* —
// who wins, by what factor, where crossovers fall — must.
package experiments

import (
	"fmt"
	"math"
	"strings"
)

// Row is one paper-vs-measured comparison.
type Row struct {
	Metric   string
	Paper    string
	Measured string
	// Match reports whether the measured value preserves the paper's
	// finding (within the experiment's tolerance).
	Match bool
}

// Result is one experiment's outcome.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	// Series holds figure data (monthly samples etc.).
	Series []Series
	Notes  string
}

// Series is a labeled (x, y) sequence for figure-style outputs.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders the series as aligned text rows.
func (s *Series) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s\n# %s\t%s\n", s.Name, s.XLabel, s.YLabel)
	for i := range s.X {
		fmt.Fprintf(&sb, "%.2f\t%.2f\n", s.X[i], s.Y[i])
	}
	return sb.String()
}

// AsciiPlot renders the series as a crude terminal plot, useful for
// eyeballing figure shapes.
func (s *Series) AsciiPlot(width, height int) string {
	if len(s.Y) == 0 || width < 8 || height < 2 {
		return ""
	}
	minY, maxY := s.Y[0], s.Y[0]
	for _, v := range s.Y {
		minY = math.Min(minY, v)
		maxY = math.Max(maxY, v)
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for i := range s.Y {
		x := i * (width - 1) / max(len(s.Y)-1, 1)
		y := int(float64(height-1) * (s.Y[i] - minY) / (maxY - minY))
		grid[height-1-y][x] = '*'
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (y: %.0f..%.0f)\n", s.Name, minY, maxY)
	for _, row := range grid {
		sb.WriteString("|")
		sb.Write(row)
		sb.WriteString("\n")
	}
	sb.WriteString("+" + strings.Repeat("-", width) + "\n")
	return sb.String()
}

// Matches reports whether every row preserved the paper's finding.
func (r Result) Matches() bool {
	for _, row := range r.Rows {
		if !row.Match {
			return false
		}
	}
	return true
}

// Render formats the result as a text report section.
func (r Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	w := 0
	for _, row := range r.Rows {
		if len(row.Metric) > w {
			w = len(row.Metric)
		}
	}
	for _, row := range r.Rows {
		mark := "ok"
		if !row.Match {
			mark = "MISMATCH"
		}
		fmt.Fprintf(&sb, "  %-*s  paper: %-24s measured: %-24s [%s]\n",
			w, row.Metric, row.Paper, row.Measured, mark)
	}
	for i := range r.Series {
		sb.WriteString(r.Series[i].AsciiPlot(64, 10))
	}
	if r.Notes != "" {
		fmt.Fprintf(&sb, "  note: %s\n", r.Notes)
	}
	return sb.String()
}

// row builds a Row with a match predicate already evaluated.
func row(metric, paper string, measuredFmt string, args ...interface{}) func(bool) Row {
	measured := fmt.Sprintf(measuredFmt, args...)
	return func(match bool) Row {
		return Row{Metric: metric, Paper: paper, Measured: measured, Match: match}
	}
}

// within reports |got-want| <= tol*want (relative tolerance).
func within(got, want, tol float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	limit := want * tol
	if limit < 0 {
		limit = -limit
	}
	return diff <= limit
}

// All runs every experiment at its default (fast) scale, in paper order.
func All() []Result {
	return []Result{
		Fig1RootZoneGrowth(),
		Fig2InstanceGrowth(),
		TrafficClassification(500_000),
		HintsFile(),
		ZoneSize(),
		CachePreload(),
		TLDExtraction(25),
		DistributionLoad(),
		Staleness(),
		NewTLDLag(),
		ResolutionLatency(400),
		Robustness(),
		Chaos(40),
		DistChaos(),
		Overload(1200),
		Attack(150),
		Privacy(300),
		Complexity(200),
		TTLSweep(),
		AdditionsChannel(),
		Infrastructure(),
		Serve(12000),
	}
}
