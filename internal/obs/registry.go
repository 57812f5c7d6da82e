// Package obs is the process-wide observability layer: a labeled metrics
// registry with lock-free instruments and Prometheus/JSON exposition, a
// query tracer with a near-zero-cost disabled path, an HTTP admin
// endpoint, and structured-logging helpers. Every subsystem that keeps a
// Stats struct wires itself in through the Collector interface so one
// scrape sees the whole system — the always-on instrumentation the
// paper's §2.2/§5.2/§5.3 measurements presuppose.
package obs

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimension values to a metric series ({mode="lookaside"}).
type Labels map[string]string

// Kind distinguishes exposition semantics: the family's TYPE line, and
// whether a flattened Sample is cumulative (KindCounter) or a level.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	// KindSummary is an HDR-backed quantile summary (Registry.HDRTimer).
	// Snapshot marks its _count and _sum samples KindCounter.
	KindSummary
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindSummary:
		return "summary"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Counter is a lock-free monotonic counter. Snapshot-style collectors may
// also Set it from an existing Stats field at scrape time.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Set overwrites the value (for collectors republishing a snapshot).
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by d (CAS loop; gauges are not hot-path).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Collector contributes scrape-time samples to a registry. Implementations
// republish their internal Stats snapshot by calling the registry's
// Counter/Gauge getters and Set — idempotent because the registry returns
// the same series for the same (name, labels).
type Collector interface {
	Collect(r *Registry)
}

// CollectorFunc adapts a function to Collector.
type CollectorFunc func(r *Registry)

// Collect implements Collector.
func (f CollectorFunc) Collect(r *Registry) { f(r) }

// series is one labeled instance of a metric family.
type series struct {
	labels   Labels
	labelSig string
	counter  *Counter
	gauge    *Gauge
	gaugeFn  func() float64
	hdr      *HDR
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
	bySig  map[string]*series
}

// Registry holds metric families and scrape-time collectors. All methods
// are safe for concurrent use; instrument updates (Inc/Observe/Set) are
// lock-free once the instrument is created.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	order      []string
	collectors []Collector
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelSig(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(l[k])
		sb.WriteByte(',')
	}
	return sb.String()
}

func (r *Registry) getSeries(name, help string, kind Kind, labels Labels) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bySig: make(map[string]*series)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	sig := labelSig(labels)
	s, ok := f.bySig[sig]
	if !ok {
		copied := make(Labels, len(labels))
		for k, v := range labels {
			copied[k] = v
		}
		s = &series{labels: copied, labelSig: sig}
		f.bySig[sig] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter returns (creating on first use) the counter series for
// (name, labels).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.getSeries(name, help, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns (creating on first use) the gauge series for (name, labels).
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.getSeries(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time
// (e.g. runtime.NumGoroutine).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	s := r.getSeries(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.gaugeFn = fn
}

// HDRTimer returns (creating on first use) a nanosecond-valued HDR
// histogram series for (name, labels), exposed as a Prometheus summary:
// name{quantile="0.5|0.99|0.999|0.9999"} in seconds plus name_sum and
// name_count. It is the registry's one distribution instrument: fixed
// memory, an atomic Record with no locks or allocations, and ~1% relative
// error at any magnitude, so the same series serves a hot-path latency
// and a tail percentile.
func (r *Registry) HDRTimer(name, help string, labels Labels) *HDR {
	s := r.getSeries(name, help, KindSummary, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.hdr == nil {
		s.hdr = NewHDR()
	}
	return s.hdr
}

// AddCollector registers scrape-time collectors.
func (r *Registry) AddCollector(cs ...Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, cs...)
}

// runCollectors invokes every collector so snapshot-backed series are
// fresh. Collectors call back into the registry, so no lock is held.
func (r *Registry) runCollectors() {
	r.mu.Lock()
	cs := append([]Collector(nil), r.collectors...)
	r.mu.Unlock()
	for _, c := range cs {
		c.Collect(r)
	}
}

// sortedFamilies snapshots families in name order (deterministic output).
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	out := make([]*family, 0, len(names))
	for _, n := range names {
		out = append(out, r.families[n])
	}
	return out
}

func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gaugeFn != nil:
		return s.gaugeFn()
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return 0
}

// Sample is one flattened (name, labels, value) for tests and JSON.
// A summary flattens to one sample per TailQuantiles entry (Kind
// KindSummary, a level with a "quantile" label) plus name_count and
// name_sum, which are cumulative and so carry KindCounter.
type Sample struct {
	Name   string
	Labels Labels
	Kind   Kind
	Value  float64
}

// summary reads one summary series for the writers: its tail quantiles in
// seconds, its count and its sum in seconds.
func (s *series) summary() (tails [4]float64, count int64, sum float64) {
	return s.hdr.TailSeconds(), s.hdr.Count(), float64(s.hdr.Sum()) / 1e9
}

// Snapshot runs collectors and returns every series flattened.
func (r *Registry) Snapshot() []Sample {
	r.runCollectors()
	var out []Sample
	for _, f := range r.sortedFamilies() {
		for _, s := range f.series {
			if s.hdr == nil {
				out = append(out, Sample{Name: f.name, Labels: s.labels, Kind: f.kind, Value: s.value()})
				continue
			}
			tails, count, sum := s.summary()
			for i, q := range TailQuantiles {
				ql := make(Labels, len(s.labels)+1)
				for k, v := range s.labels {
					ql[k] = v
				}
				ql["quantile"] = formatValue(q)
				out = append(out, Sample{Name: f.name, Labels: ql, Kind: KindSummary, Value: tails[i]})
			}
			out = append(out,
				Sample{Name: f.name + "_count", Labels: s.labels, Kind: KindCounter, Value: float64(count)},
				Sample{Name: f.name + "_sum", Labels: s.labels, Kind: KindCounter, Value: sum})
		}
	}
	return out
}

// formatLabels renders {k="v",...} with keys sorted, or "".
func formatLabels(l Labels, extra ...string) string {
	if len(l) == 0 && len(extra) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	put := func(k, v string) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, "%s=%q", k, v)
	}
	for _, k := range keys {
		put(k, l[k])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		put(extra[i], extra[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus runs collectors and writes the registry in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.runCollectors()
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			if s.hdr != nil {
				tails, count, sum := s.summary()
				for i, q := range TailQuantiles {
					if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
						formatLabels(s.labels, "quantile", formatValue(q)),
						formatValue(tails[i])); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n",
					f.name, formatLabels(s.labels), formatValue(sum),
					f.name, formatLabels(s.labels), count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
				formatLabels(s.labels), formatValue(s.value())); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON runs collectors and writes an expvar-style JSON object:
// {"metric_name": [{"labels": {...}, "value": N}, ...], ...}.
func (r *Registry) WriteJSON(w io.Writer) error {
	r.runCollectors()
	fams := r.sortedFamilies()
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	firstFam := true
	for _, f := range fams {
		if !firstFam {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		firstFam = false
		if _, err := fmt.Fprintf(w, "%q:{%q:%q,%q:[", f.name, "kind", f.kind.String(), "series"); err != nil {
			return err
		}
		for i, s := range f.series {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			var sb strings.Builder
			sb.WriteString("{\"labels\":{")
			keys := make([]string, 0, len(s.labels))
			for k := range s.labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for j, k := range keys {
				if j > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "%q:%q", k, s.labels[k])
			}
			sb.WriteString("},")
			if s.hdr != nil {
				tails, count, sum := s.summary()
				sb.WriteString("\"quantiles\":{")
				for i, q := range TailQuantiles {
					if i > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "%q:%s", formatValue(q), formatValue(tails[i]))
				}
				fmt.Fprintf(&sb, "},\"count\":%d,\"sum\":%s}", count, formatValue(sum))
			} else {
				fmt.Fprintf(&sb, "\"value\":%s}", formatValue(s.value()))
			}
			if _, err := io.WriteString(w, sb.String()); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "]}"); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}")
	return err
}

// SetCountersFromStruct republishes every exported integer field of a flat
// Stats struct as a counter named prefix_<snake_case_field>_total. Using
// reflection here means a Stats struct can grow a field without anyone
// remembering to extend a hand-written mapping — the exposition can never
// silently drop a counter (obs's coverage test pins this contract).
func SetCountersFromStruct(r *Registry, prefix, help string, labels Labels, stats any) {
	v := reflect.ValueOf(stats)
	for v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		panic(fmt.Sprintf("obs: SetCountersFromStruct needs a struct, got %T", stats))
	}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		var n int64
		switch f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			n = v.Field(i).Int()
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			n = int64(v.Field(i).Uint())
		default:
			continue
		}
		name := prefix + "_" + snakeCase(f.Name) + "_total"
		r.Counter(name, help+" ("+f.Name+")", labels).Set(n)
	}
}

// snakeCase converts CamelCase (with acronyms) to snake_case:
// CacheAnswers → cache_answers, NXDomain → nx_domain, AXFRs → axfrs.
func snakeCase(s string) string {
	var sb strings.Builder
	runes := []rune(s)
	for i, r := range runes {
		if i > 0 && isUpper(r) {
			prev := runes[i-1]
			// Boundary after a lowercase/digit, or at an acronym's end
			// (upper followed by a lowercase run of length ≥ 2, so the
			// plural 's' in AXFRs does not split).
			if !isUpper(prev) {
				sb.WriteByte('_')
			} else if i+2 < len(runes) && !isUpper(runes[i+1]) && !isUpper(runes[i+2]) {
				sb.WriteByte('_')
			} else if i+2 == len(runes) && !isUpper(runes[i+1]) && runes[i+1] != 's' {
				sb.WriteByte('_')
			}
		}
		sb.WriteRune(toLower(r))
	}
	return sb.String()
}

func isUpper(r rune) bool { return r >= 'A' && r <= 'Z' }

func toLower(r rune) rune {
	if isUpper(r) {
		return r + ('a' - 'A')
	}
	return r
}
