// Package metrics provides the small statistics toolkit the experiment
// harness uses: streaming histograms with percentiles and time series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram collects float64 observations and reports order statistics.
// It stores raw samples; experiments here are small enough that exact
// percentiles beat sketch approximations.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	sorted  bool
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.samples = append(h.samples, v)
	h.sorted = false
	h.mu.Unlock()
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count returns the number of samples.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Mean returns the sample mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range h.samples {
		sum += v
	}
	return sum / float64(len(h.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank; 0 with no samples or p out of range. Note p <= 0 is
// rejected rather than mapped to the minimum: nearest-rank rounds a tiny
// p to rank 1, which stops being the smallest sample once n exceeds
// 100/p — use Min instead.
func (h *Histogram) Percentile(p float64) float64 {
	if p <= 0 || p > 100 {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	rank := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(h.samples) {
		rank = len(h.samples) - 1
	}
	return h.samples[rank]
}

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	min := h.samples[0]
	for _, v := range h.samples[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	max := h.samples[0]
	for _, v := range h.samples[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

// Summary formats count/mean/p50/p95/p99 on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p95=%.2f p99=%.2f",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99))
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
// eyeballing figure shapes from cmd/experiments.
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
		x := i * (width - 1) / maxInt(len(s.Y)-1, 1)
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
