package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records per-query resolution traces into a bounded ring of the
// most recent slow queries. The disabled path costs one atomic load in
// Begin plus nil-receiver no-ops for every event, so it can stay compiled
// into the hot path permanently.
type Tracer struct {
	enabled   atomic.Bool
	slowNanos atomic.Int64 // keep only traces at least this slow (0 = all)
	ringSize  int

	// Per-phase attribution accumulates for every finished trace, even
	// ones the slow threshold keeps out of the ring, so trial-level
	// breakdowns are complete.
	attrNanos  [numPhases]atomic.Int64
	attrTraces atomic.Int64
	attrHist   atomic.Pointer[[numPhases]*HDR]

	mu   sync.Mutex
	ring []*Trace // oldest first
	seen int64    // total finished traces (kept or not)
}

// NewTracer creates a disabled tracer retaining the last ringSize traces
// whose wall time is ≥ slow (slow = 0 keeps every trace).
func NewTracer(ringSize int, slow time.Duration) *Tracer {
	if ringSize <= 0 {
		ringSize = 128
	}
	t := &Tracer{ringSize: ringSize}
	t.slowNanos.Store(int64(slow))
	return t
}

// SetEnabled switches tracing on or off. Nil-safe.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether traces are being recorded. Nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSlowThreshold changes the keep threshold. Nil-safe.
func (t *Tracer) SetSlowThreshold(d time.Duration) {
	if t != nil {
		t.slowNanos.Store(int64(d))
	}
}

// Begin starts a trace for one resolution, or returns nil when tracing is
// off (every Trace method is a no-op on a nil receiver).
func (t *Tracer) Begin(qname, qtype string) *Trace {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return &Trace{tracer: t, TraceID: nextTraceID(), Qname: qname, Qtype: qtype, Start: time.Now()}
}

// InstrumentAttribution registers per-phase latency-attribution
// summaries (rootless_trace_phase_seconds{phase=...}) and routes every
// finished trace's breakdown into them. Nil-safe.
func (t *Tracer) InstrumentAttribution(r *Registry) {
	if t == nil || r == nil {
		return
	}
	var hs [numPhases]*HDR
	for _, p := range Phases() {
		hs[p] = r.HDRTimer("rootless_trace_phase_seconds",
			"per-trace latency attribution by phase",
			Labels{"phase": p.String()})
	}
	t.attrHist.Store(&hs)
}

// AttributionTotals returns the cumulative per-phase breakdown across
// every finished trace. Nil-safe. Experiment trials snapshot this
// before and after a run and Sub the two.
func (t *Tracer) AttributionTotals() Attribution {
	var a Attribution
	if t == nil {
		return a
	}
	for _, p := range Phases() {
		a.add(p, t.attrNanos[p].Load())
	}
	return a
}

// AttributedTraces returns how many traces contributed to
// AttributionTotals. Nil-safe.
func (t *Tracer) AttributedTraces() int64 {
	if t == nil {
		return 0
	}
	return t.attrTraces.Load()
}

// recordAttribution folds one trace's breakdown into the totals and, if
// instrumented, the per-phase summaries.
func (t *Tracer) recordAttribution(a Attribution) {
	t.attrTraces.Add(1)
	hs := t.attrHist.Load()
	for _, p := range Phases() {
		ns := a.ByPhase(p)
		if ns != 0 {
			t.attrNanos[p].Add(ns)
		}
		if hs != nil {
			hs[p].Record(ns)
		}
	}
}

// record files a finished trace into the ring.
func (t *Tracer) record(tr *Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seen++
	if tr.Wall < time.Duration(t.slowNanos.Load()) {
		return
	}
	if len(t.ring) >= t.ringSize {
		copy(t.ring, t.ring[1:])
		t.ring = t.ring[:len(t.ring)-1]
	}
	t.ring = append(t.ring, tr)
}

// Recent returns the retained traces, oldest first. Nil-safe.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Trace(nil), t.ring...)
}

// RecentByClass returns the retained traces whose classification tag
// equals class, oldest first ("" returns everything). Nil-safe.
func (t *Tracer) RecentByClass(class string) []*Trace {
	all := t.Recent()
	if class == "" {
		return all
	}
	out := all[:0]
	for _, tr := range all {
		if tr.QueryClass() == class {
			out = append(out, tr)
		}
	}
	return out
}

// Seen returns how many traces finished (kept or not). Nil-safe.
func (t *Tracer) Seen() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seen
}

// WriteJSON dumps the retained traces as a JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Recent())
}

// WriteText dumps the retained traces as human-readable trace trees.
func (t *Tracer) WriteText(w io.Writer) error {
	return writeTraceTrees(w, t.Recent())
}

func writeTraceTrees(w io.Writer, traces []*Trace) error {
	if len(traces) == 0 {
		_, err := io.WriteString(w, "no traces recorded\n")
		return err
	}
	for i, tr := range traces {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, tr.Tree()); err != nil {
			return err
		}
	}
	return nil
}

// Collect implements Collector: tracer occupancy metrics.
func (t *Tracer) Collect(r *Registry) {
	en := 0.0
	if t.Enabled() {
		en = 1
	}
	r.Gauge("rootless_tracer_enabled", "whether query tracing is on", nil).Set(en)
	r.Counter("rootless_tracer_traces_total", "finished traces since start", nil).Set(t.Seen())
	r.Gauge("rootless_tracer_ring_occupancy", "slow traces currently retained", nil).Set(float64(len(t.Recent())))
}

// Event is one step of a resolution's iterative walk.
type Event struct {
	At     time.Duration `json:"at"`    // offset from trace start
	Depth  int           `json:"depth"` // referral / glue-chase depth
	Kind   string        `json:"kind"`  // cache-hit, referral, send, timeout, ...
	Detail string        `json:"detail"`
}

// Trace is one resolution's span: qname/qtype, outcome, and the ordered
// events of the iterative walk. All methods are nil-receiver-safe so
// instrumented code needs no enabled checks.
type Trace struct {
	tracer *Tracer
	// TraceID is the process-unique identifier assigned by Begin (or
	// adopted from the far side by BeginRemote); /tracez?traceid= keys
	// on it, and cross-process propagation carries it on the wire.
	TraceID uint64 `json:"-"`
	// ParentSpanID is the remote parent span this trace joined under
	// (BeginRemote); zero for locally-originated traces.
	ParentSpanID uint64    `json:"-"`
	Qname        string    `json:"qname"`
	Qtype        string    `json:"qtype"`
	Start        time.Time `json:"start"`
	// Rcode and Err describe the outcome (set by Finish).
	Rcode string `json:"rcode"`
	Err   string `json:"err,omitempty"`
	// Latency is the (possibly virtual) network time the resolution
	// reported; Wall is real elapsed time; Queries counts network sends.
	Latency time.Duration `json:"latency"`
	Wall    time.Duration `json:"wall"`
	Queries int           `json:"queries"`

	// Class is the traffic classification tag (obs/traffic class name,
	// e.g. "bogus_tld"), set by SetClass when the daemon runs a traffic
	// analyzer; /tracez can filter on it with ?class=.
	Class string `json:"class,omitempty"`

	// Attr is the per-phase latency breakdown computed by Finish from
	// the span tree.
	Attr Attribution `json:"attribution"`

	mu     sync.Mutex
	depth  int
	Events []Event `json:"events"`
	spans  []*Span // top-level spans, in start order
	cur    *Span   // innermost open span (nesting cursor)
}

// Eventf appends a formatted event at the current depth.
func (tr *Trace) Eventf(kind, format string, args ...any) {
	if tr == nil {
		return
	}
	at := time.Since(tr.Start)
	tr.mu.Lock()
	tr.Events = append(tr.Events, Event{At: at, Depth: tr.depth, Kind: kind, Detail: fmt.Sprintf(format, args...)})
	tr.mu.Unlock()
}

// SetClass tags the trace with its traffic classification. Nil-safe.
func (tr *Trace) SetClass(class string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.Class = class
	tr.mu.Unlock()
}

// QueryClass returns the traffic classification tag ("" when untagged).
// Nil-safe; reads under the trace lock so scrapes never race SetClass.
func (tr *Trace) QueryClass() string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.Class
}

// Push increases the depth (entering a referral hop or glue chase).
func (tr *Trace) Push() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.depth++
	tr.mu.Unlock()
}

// Pop decreases the depth.
func (tr *Trace) Pop() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.depth > 0 {
		tr.depth--
	}
	tr.mu.Unlock()
}

// Finish closes the trace with the resolution outcome and files it with
// the tracer.
func (tr *Trace) Finish(rcode string, latency time.Duration, queries int, err error) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.Rcode = rcode
	tr.Latency = latency
	tr.Queries = queries
	if err != nil {
		tr.Err = err.Error()
	}
	tr.Wall = time.Since(tr.Start)
	tr.Attr = tr.computeAttribution(tr.Wall)
	attr := tr.Attr
	tr.mu.Unlock()
	tr.tracer.recordAttribution(attr)
	tr.tracer.record(tr)
}

// traceJSON is the locked export form of a Trace; MarshalJSON uses it so
// concurrent span/event writers never race a /tracez scrape.
type traceJSON struct {
	TraceID      string        `json:"trace_id"`
	ParentSpanID string        `json:"parent_span_id,omitempty"`
	Qname        string        `json:"qname"`
	Qtype        string        `json:"qtype"`
	Start        time.Time     `json:"start"`
	Rcode        string        `json:"rcode"`
	Err          string        `json:"err,omitempty"`
	Latency      time.Duration `json:"latency"`
	Wall         time.Duration `json:"wall"`
	Queries      int           `json:"queries"`
	Class        string        `json:"class,omitempty"`
	Attribution  Attribution   `json:"attribution"`
	Events       []Event       `json:"events"`
	Spans        []*SpanJSON   `json:"spans"`
}

// MarshalJSON snapshots the trace under its lock. Without this, a scrape
// of a still-running trace races Eventf/StartSpan appends.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	tr.mu.Lock()
	out := traceJSON{
		TraceID:     FormatTraceID(tr.TraceID),
		Qname:       tr.Qname,
		Qtype:       tr.Qtype,
		Start:       tr.Start,
		Rcode:       tr.Rcode,
		Err:         tr.Err,
		Latency:     tr.Latency,
		Wall:        tr.Wall,
		Queries:     tr.Queries,
		Class:       tr.Class,
		Attribution: tr.Attr,
		Events:      append([]Event(nil), tr.Events...),
	}
	if tr.ParentSpanID != 0 {
		out.ParentSpanID = FormatTraceID(tr.ParentSpanID)
	}
	for _, s := range tr.spans {
		out.Spans = append(out.Spans, s.export())
	}
	tr.mu.Unlock()
	return json.Marshal(out)
}

// Tree renders the trace as an indented, human-readable walk.
func (tr *Trace) Tree() string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s rcode=%s latency=%v queries=%d wall=%v",
		tr.Qname, tr.Qtype, tr.Rcode, tr.Latency, tr.Queries, tr.Wall)
	if tr.Class != "" {
		fmt.Fprintf(&sb, " class=%s", tr.Class)
	}
	if tr.Err != "" {
		fmt.Fprintf(&sb, " err=%q", tr.Err)
	}
	sb.WriteByte('\n')
	if tr.Attr != (Attribution{}) {
		fmt.Fprintf(&sb, "  attribution: cache=%v net=%v auth=%v backoff=%v overload_wait=%v validate=%v other=%v\n",
			time.Duration(tr.Attr.CacheNS).Round(time.Microsecond),
			time.Duration(tr.Attr.NetNS).Round(time.Microsecond),
			time.Duration(tr.Attr.AuthNS).Round(time.Microsecond),
			time.Duration(tr.Attr.BackoffNS).Round(time.Microsecond),
			time.Duration(tr.Attr.OverloadWaitNS).Round(time.Microsecond),
			time.Duration(tr.Attr.ValidateNS).Round(time.Microsecond),
			time.Duration(tr.Attr.OtherNS).Round(time.Microsecond))
	}
	for _, s := range tr.spans {
		s.writeTree(&sb, 0)
	}
	for _, e := range tr.Events {
		fmt.Fprintf(&sb, "  %s%-10s +%-8v %s\n",
			strings.Repeat("  ", e.Depth), "["+e.Kind+"]", e.At.Round(time.Microsecond), e.Detail)
	}
	return sb.String()
}
