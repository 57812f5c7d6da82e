package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rootless/internal/obs"
)

// maxSpans bounds the spans kept for the trace file; the per-name
// totals and histograms below keep counting past it.
const maxSpans = 50000

// spanParent is the fixed nesting of the spans rootbench records, all of
// them from its own files, around calls into a layer's public functions.
var spanParent = map[string]string{
	"handler":  "query", // wrapper around udpengine.Handler.ServeDatagram
	"upstream": "query", // the bench-owned resolver.Transport
	"publish":  "cycle",
	"fetch":    "cycle",
	"verify":   "cycle",
	"apply":    "cycle",
	"install":  "cycle",
}

// Span is one timed interval. Spans of one request share ID: the query
// sequence number for query and upstream spans, the DNS message ID for
// handler spans (joined to their query when the file is written), the
// cycle number for refresh spans.
type Span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	ID      uint64 `json:"id"`
	DNSID   uint16 `json:"dns_id,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanTotal is the running account of one span name.
type spanTotal struct {
	count int64
	ns    int64
	hist  *obs.HDR
}

// Spans is the in-memory trace of one traced run. A nil *Spans records
// nothing, which is how the untraced run shares the same code.
type Spans struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
	totals map[string]*spanTotal
}

// NewSpans starts a trace whose times are relative to now.
func NewSpans() *Spans {
	return &Spans{origin: time.Now(), spans: make([]Span, 0, maxSpans), totals: make(map[string]*spanTotal)}
}

// Add records a span that carries no request identity of its own.
func (s *Spans) Add(name string, start, end time.Time) { s.AddID(name, 0, 0, start, end) }

// AddID records a span of request id.
func (s *Spans) AddID(name string, id uint64, dnsID uint16, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.totals[name]
	if t == nil {
		t = &spanTotal{hist: obs.NewHDR()}
		s.totals[name] = t
	}
	d := int64(end.Sub(start))
	t.count++
	t.ns += d
	t.hist.Record(d)
	if len(s.spans) < cap(s.spans) {
		s.spans = append(s.spans, Span{
			Name: name, Parent: spanParent[name], ID: id, DNSID: dnsID,
			StartNS: int64(start.Sub(s.origin)), EndNS: int64(end.Sub(s.origin)),
		})
	}
}

// total returns a copy of the account of one span name, empty if there
// is none. It may be called while spans are still being added: the run
// reads the handler total between two traced phases, when the engine's
// goroutine can still be inside AddID. (The copy shares the histogram,
// whose own operations are atomic.)
func (s *Spans) total(name string) spanTotal {
	if s == nil {
		return spanTotal{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.totals[name]; t != nil {
		return *t
	}
	return spanTotal{}
}

// Count, TotalNS and Quantile read the account of one span name.
func (s *Spans) Count(name string) int64   { return s.total(name).count }
func (s *Spans) TotalNS(name string) int64 { return s.total(name).ns }
func (s *Spans) Quantile(name string, q float64) int64 {
	return s.total(name).hist.Quantile(q) // a nil HDR reads as empty
}

// spanSummary is one row of the trace file's per-name table. Self time
// is the span's time minus the part its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	P50US   float64 `json:"p50_us"`
}

// Write joins handler spans to their queries and writes the trace to
// dir/trace-<workload>.json.
func (s *Spans) Write(dir, workload string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// A handler span belongs to the query with its DNS ID that was in
	// flight when the handler ran.
	byDNS := make(map[uint16][]int)
	for i, sp := range s.spans {
		if sp.Name == "query" {
			byDNS[sp.DNSID] = append(byDNS[sp.DNSID], i)
		}
	}
	for i := range s.spans {
		sp := &s.spans[i]
		if sp.Name != "handler" {
			continue
		}
		for _, qi := range byDNS[sp.DNSID] {
			if q := s.spans[qi]; q.StartNS <= sp.EndNS && sp.StartNS <= q.EndNS {
				sp.ID = q.ID
				break
			}
		}
	}
	childNS := make(map[string]int64)
	for name, t := range s.totals {
		childNS[spanParent[name]] += t.ns
	}
	var summary []spanSummary
	for name, t := range s.totals {
		summary = append(summary, spanSummary{
			Name: name, Count: t.count,
			TotalUS: float64(t.ns) / 1e3,
			SelfUS:  float64(t.ns-childNS[name]) / 1e3,
			P50US:   float64(t.hist.Quantile(0.5)) / 1e3,
		})
	}
	sort.Slice(summary, func(i, j int) bool { return summary[i].Name < summary[j].Name })
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Summary  []spanSummary `json:"summary"`
		Spans    []Span        `json:"spans"`
	}{workload, summary, s.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
