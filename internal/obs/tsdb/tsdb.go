// Package tsdb is an embedded, fixed-memory time-series recorder for an
// obs.Registry: every tick it snapshots the registry and appends each
// sample to a per-metric ring buffer, downsampling into coarser rings as
// points age (a Prometheus-less answer to "how did this metric trend
// over the run?"). Daemons expose the rings as /timeseries on the admin
// endpoint; experiments embed a Recorder on virtual time so a t_* trial
// can emit per-tick series instead of only final rows. Memory is bounded
// by construction: levels × points-per-level × live series, regardless
// of run length.
package tsdb

import (
	"context"
	"sort"
	"sync"
	"time"

	"rootless/internal/obs"
)

// Options parameterises a Recorder; zero fields take defaults.
type Options struct {
	// Interval is the level-0 tick (default 1s). Run uses it for its
	// ticker; manual Record calls may space samples however they like
	// (experiments tick virtual time).
	Interval time.Duration
	// PointsPerLevel is each ring's capacity (default 600: ten minutes
	// of 1 s points at level 0).
	PointsPerLevel int
	// Levels is the resolution-level count (default 3).
	Levels int
	// Factor is the downsampling ratio between adjacent levels (default
	// 10: with the defaults, level 1 holds 100 minutes at 10 s, level 2
	// holds ~16 h at 100 s).
	Factor int
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.PointsPerLevel <= 0 {
		o.PointsPerLevel = 600
	}
	if o.Levels <= 0 {
		o.Levels = 3
	}
	if o.Factor < 2 {
		o.Factor = 10
	}
	return o
}

// Point is one recorded sample.
type Point struct {
	T time.Time
	V float64
}

// ring is a fixed-capacity circular buffer of points.
type ring struct {
	pts  []Point
	head int // index of the oldest point
	n    int
}

func newRing(capacity int) *ring { return &ring{pts: make([]Point, capacity)} }

func (r *ring) push(p Point) {
	if r.n < len(r.pts) {
		r.pts[(r.head+r.n)%len(r.pts)] = p
		r.n++
		return
	}
	r.pts[r.head] = p
	r.head = (r.head + 1) % len(r.pts)
}

// snapshot returns the points oldest-first.
func (r *ring) snapshot() []Point {
	out := make([]Point, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.pts[(r.head+i)%len(r.pts)]
	}
	return out
}

// series is one metric's rings across every level.
type series struct {
	name   string
	labels obs.Labels
	kind   obs.Kind
	levels []*ring
}

// Recorder snapshots a registry on each Record call and keeps the
// multi-resolution history. Safe for concurrent use (Record vs the
// /timeseries handler).
type Recorder struct {
	reg *obs.Registry
	opt Options

	mu    sync.Mutex
	byKey map[string]*series
	order []string // creation order; exposition sorts by name
	ticks int64
}

// NewRecorder builds a recorder over reg.
func NewRecorder(reg *obs.Registry, opt Options) *Recorder {
	return &Recorder{reg: reg, opt: opt.withDefaults(), byKey: make(map[string]*series)}
}

// Interval returns the configured level-0 tick.
func (rec *Recorder) Interval() time.Duration { return rec.opt.Interval }

// Record takes one snapshot of the registry, stamping every sample with
// now. Metrics appearing mid-run simply start recording at the current
// tick (their coarser rings fill from now on, like everyone else's).
func (rec *Recorder) Record(now time.Time) {
	samples := rec.reg.Snapshot() // runs collectors; do not hold mu yet
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.ticks++
	// stride[l] = how many level-0 ticks one level-l point covers.
	stride := 1
	strides := make([]int, rec.opt.Levels)
	for l := 0; l < rec.opt.Levels; l++ {
		strides[l] = stride
		stride *= rec.opt.Factor
	}
	for _, s := range samples {
		key := s.Name + "{" + labelKey(s.Labels) + "}"
		se, ok := rec.byKey[key]
		if !ok {
			se = &series{name: s.Name, labels: s.Labels, kind: s.Kind,
				levels: make([]*ring, rec.opt.Levels)}
			for l := range se.levels {
				se.levels[l] = newRing(rec.opt.PointsPerLevel)
			}
			rec.byKey[key] = se
			rec.order = append(rec.order, key)
		}
		p := Point{T: now, V: s.Value}
		se.levels[0].push(p)
		// Downsample by decimation with "last value" semantics: cheap,
		// and exact for the cumulative counters rates are computed from.
		for l := 1; l < rec.opt.Levels; l++ {
			if rec.ticks%int64(strides[l]) == 0 {
				se.levels[l].push(p)
			}
		}
	}
}

// Run records every Options.Interval until ctx ends.
func (rec *Recorder) Run(ctx context.Context) {
	t := time.NewTicker(rec.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			rec.Record(now)
		}
	}
}

// labelKey renders labels deterministically for the series key.
func labelKey(l obs.Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ","
		}
		out += k + "=" + l[k]
	}
	return out
}

// SeriesData is one exported series at one level.
type SeriesData struct {
	Name   string
	Labels obs.Labels
	Kind   obs.Kind
	Points []Point
}

// Series returns every recorded series at the given level, oldest point
// first, sorted by (name, labels). prefix filters by metric-name prefix
// ("" keeps everything).
func (rec *Recorder) Series(level int, prefix string) []SeriesData {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if level < 0 || level >= rec.opt.Levels {
		return nil
	}
	keys := append([]string(nil), rec.order...)
	sort.Strings(keys)
	var out []SeriesData
	for _, key := range keys {
		se := rec.byKey[key]
		if prefix != "" && !hasPrefix(se.name, prefix) {
			continue
		}
		out = append(out, SeriesData{
			Name:   se.name,
			Labels: se.labels,
			Kind:   se.kind,
			Points: se.levels[level].snapshot(),
		})
	}
	return out
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// Levels returns the configured level count.
func (rec *Recorder) Levels() int { return rec.opt.Levels }

// Rate converts cumulative points (counters, summary _count/_sum) to
// per-second rates between adjacent points. A negative delta — a counter
// reset after a daemon restart — clamps to zero instead of rendering as
// a negative rate. Returns len(pts)-1 points stamped at the later end of
// each interval (empty for fewer than two points).
func Rate(pts []Point) []Point {
	if len(pts) < 2 {
		return nil
	}
	out := make([]Point, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		dt := pts[i].T.Sub(pts[i-1].T).Seconds()
		if dt <= 0 {
			continue
		}
		dv := pts[i].V - pts[i-1].V
		if dv < 0 {
			dv = 0 // counter reset
		}
		out = append(out, Point{T: pts[i].T, V: dv / dt})
	}
	return out
}
