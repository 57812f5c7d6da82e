package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// metricsDoc mirrors obs.Registry.WriteJSON: metric name → family.
type metricsDoc map[string]metricFamily

type metricFamily struct {
	Kind   string         `json:"kind"`
	Series []metricSeries `json:"series"`
}

type metricSeries struct {
	Labels    map[string]string  `json:"labels"`
	Value     float64            `json:"value"`
	Count     float64            `json:"count"`               // histograms, summaries
	Sum       float64            `json:"sum"`                 // histograms, summaries
	Quantiles map[string]float64 `json:"quantiles,omitempty"` // summaries
}

// total sums Value across a family's series (labels collapse).
func (m metricsDoc) total(name string) (float64, bool) {
	f, ok := m[name]
	if !ok {
		return 0, false
	}
	v := 0.0
	for _, s := range f.Series {
		v += s.Value
	}
	return v, true
}

// byLabel indexes a family's series by one label key's values.
func (m metricsDoc) byLabel(name, label string) map[string]metricSeries {
	out := map[string]metricSeries{}
	for _, s := range m[name].Series {
		out[s.Labels[label]] = s
	}
	return out
}

// topkDoc mirrors the /topk JSON document.
type topkDoc struct {
	Observed      int64            `json:"observed"`
	Clients       int64            `json:"clients_observed"`
	Classes       map[string]int64 `json:"classes"`
	JunkShare     float64          `json:"junk_share"`
	UniqueQnames  float64          `json:"unique_qnames"`
	UniqueClients float64          `json:"unique_clients"`
	TopQnames     []topkRow        `json:"top_qnames"`
	TopClients    []topkRow        `json:"top_clients"`
}

type topkRow struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err"`
}

// sample is one poll of a target's admin endpoint.
type sample struct {
	at      time.Time
	status  map[string]any
	metrics metricsDoc
	topk    *topkDoc // nil when the daemon exposes no /topk
}

// targetState carries the previous sample so rates can be delta-computed.
type targetState struct {
	name string
	base string // admin address, no scheme
	prev *sample
}

type app struct {
	targets []*targetState
	topN    int
	client  *http.Client
}

func newApp(args []string, topN int) *app {
	a := &app{topN: topN, client: &http.Client{Timeout: 2 * time.Second}}
	for _, arg := range args {
		name, base := parseTarget(arg)
		a.targets = append(a.targets, &targetState{name: name, base: base})
	}
	return a
}

func (a *app) getJSON(base, path string, into any) error {
	resp, err := a.client.Get("http://" + base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, into)
}

// poll fetches one sample. /metrics and /statusz are required; /topk is
// optional (404 on daemons without a traffic analyzer).
func (a *app) poll(t *targetState, now time.Time) (*sample, error) {
	s := &sample{at: now, metrics: metricsDoc{}, status: map[string]any{}}
	if err := a.getJSON(t.base, "/metrics?format=json", &s.metrics); err != nil {
		return nil, err
	}
	if err := a.getJSON(t.base, "/statusz", &s.status); err != nil {
		return nil, err
	}
	var tk topkDoc
	if err := a.getJSON(t.base, fmt.Sprintf("/topk?format=json&n=%d", a.topN), &tk); err == nil {
		s.topk = &tk
	}
	return s, nil
}

// frame polls every target and renders the full dashboard.
func (a *app) frame(now time.Time) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rootlesstop — %s\n", now.Format("15:04:05"))
	for _, t := range a.targets {
		sb.WriteByte('\n')
		s, err := a.poll(t, now)
		if err != nil {
			fmt.Fprintf(&sb, "▌ %s — unreachable: %v\n", t.name, err)
			t.prev = nil
			continue
		}
		renderTarget(&sb, t, s)
		t.prev = s
	}
	return sb.String()
}

// qpsCounters are the per-component "arriving work" counters, tried in
// order: resolverd, authd, zonedist.
var qpsCounters = []string{
	"rootless_resolver_resolutions_total",
	"rootless_authserver_queries_total",
	"rootless_dist_requests_total",
}

// hitRatios maps components to their (hits, misses) counter pairs.
var hitRatios = [][2]string{
	{"rootless_cache_hits_total", "rootless_cache_misses_total"},
	{"rootless_authserver_packed_hits_total", "rootless_authserver_packed_misses_total"},
}

func renderTarget(sb *strings.Builder, t *targetState, s *sample) {
	component, _ := s.status["component"].(string)
	if component == "" {
		component = "daemon"
	}
	head := fmt.Sprintf("▌ %s (%s) @ %s", t.name, component, t.base)
	if mode, ok := s.status["mode"].(string); ok {
		head += "  mode=" + mode
	}
	if up, ok := s.status["uptime_seconds"].(float64); ok {
		head += fmt.Sprintf("  up %s", (time.Duration(up) * time.Second).String())
	}
	sb.WriteString(head + "\n")

	// Rates: deltas against the previous sample; cumulative on frame one.
	dt := 0.0
	var prev metricsDoc
	if t.prev != nil {
		dt = s.at.Sub(t.prev.at).Seconds()
		prev = t.prev.metrics
	}
	rate := func(name string) (float64, bool) {
		cur, ok := s.metrics.total(name)
		if !ok {
			return 0, false
		}
		if prev == nil || dt <= 0 {
			return cur, true // cumulative until there is a delta baseline
		}
		was, _ := prev.total(name)
		d := cur - was
		if d < 0 {
			d = 0
		}
		return d / dt, true
	}

	line := "  "
	for _, name := range qpsCounters {
		if v, ok := rate(name); ok {
			unit := "q/s"
			if prev == nil {
				unit = "queries"
			}
			line += fmt.Sprintf("load %.1f %s", v, unit)
			break
		}
	}
	for _, pair := range hitRatios {
		h, ok1 := s.metrics.total(pair[0])
		m, ok2 := s.metrics.total(pair[1])
		if !ok1 || !ok2 {
			continue
		}
		if prev != nil {
			ph, _ := prev.total(pair[0])
			pm, _ := prev.total(pair[1])
			h, m = h-ph, m-pm
		}
		if h+m > 0 {
			line += fmt.Sprintf("   hit rate %.1f%%", 100*h/(h+m))
		}
		break
	}
	if tk := s.topk; tk != nil {
		line += fmt.Sprintf("   junk %.1f%%   ~%.0f qnames   ~%.0f clients",
			100*tk.JunkShare, tk.UniqueQnames, tk.UniqueClients)
	}
	sb.WriteString(line + "\n")

	renderTail(sb, s.metrics)
	renderSLO(sb, s.metrics)
	renderPhases(sb, prev, s.metrics)
	renderFrontDoor(sb, prev, s.metrics)
	renderComposition(sb, prev, s.metrics, s.topk)
	if s.topk != nil {
		renderTopK(sb, s.topk)
	}
}

// latencySummaries are the per-component HDR latency families, tried in
// order: resolverd, authd.
var latencySummaries = []string{
	"rootless_resolver_resolution_seconds",
	"rootless_authserver_handle_seconds",
}

// tailQuantiles pairs the summary quantile keys with display labels.
var tailQuantiles = [][2]string{
	{"0.5", "p50"}, {"0.99", "p99"}, {"0.999", "p999"}, {"0.9999", "p9999"},
}

// renderTail shows the HDR latency tail (the quantiles a fixed-bucket
// histogram can't resolve) from the first summary family present.
func renderTail(sb *strings.Builder, cur metricsDoc) {
	for _, name := range latencySummaries {
		for _, se := range cur[name].Series {
			if se.Count == 0 {
				continue
			}
			line := "  latency:"
			for _, q := range tailQuantiles {
				if v, ok := se.Quantiles[q[0]]; ok {
					line += fmt.Sprintf(" %s %s", q[1], fmtSeconds(v))
				}
			}
			sb.WriteString(line + "\n")
			return
		}
	}
}

// renderSLO shows every declared SLO's burn rates and alert state.
func renderSLO(sb *strings.Builder, cur metricsDoc) {
	type burns struct{ fast, slow float64 }
	by := map[string]*burns{}
	for _, se := range cur["rootless_slo_burn_rate"].Series {
		b := by[se.Labels["slo"]]
		if b == nil {
			b = &burns{}
			by[se.Labels["slo"]] = b
		}
		if se.Labels["window"] == "fast" {
			b.fast = se.Value
		} else {
			b.slow = se.Value
		}
	}
	if len(by) == 0 {
		return
	}
	alerts := cur.byLabel("rootless_slo_alert", "slo")
	budgets := cur.byLabel("rootless_slo_budget", "slo")
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	line := "  slo:"
	for _, n := range names {
		b := by[n]
		line += fmt.Sprintf(" %s burn %.1f/%.1f budget %.3g%%", n, b.fast, b.slow,
			100*budgets[n].Value)
		if alerts[n].Value >= 1 {
			line += " [ALERT]"
		}
	}
	sb.WriteString(line + "\n")
}

// fmtSeconds renders a latency in seconds at dashboard precision.
func fmtSeconds(v float64) string {
	switch d := time.Duration(v * float64(time.Second)); {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	}
}

// renderPhases turns the rootless_trace_phase_seconds histogram sums into
// a where-does-the-time-go attribution line.
func renderPhases(sb *strings.Builder, prev, cur metricsDoc) {
	const name = "rootless_trace_phase_seconds"
	curBy := cur.byLabel(name, "phase")
	if len(curBy) == 0 {
		return
	}
	var prevBy map[string]metricSeries
	if prev != nil {
		prevBy = prev.byLabel(name, "phase")
	}
	total := 0.0
	deltas := map[string]float64{}
	for phase, se := range curBy {
		d := se.Sum
		if prevBy != nil {
			d -= prevBy[phase].Sum
		}
		if d < 0 {
			d = 0
		}
		deltas[phase] = d
		total += d
	}
	if total <= 0 {
		return
	}
	phases := make([]string, 0, len(deltas))
	for p := range deltas {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool { return deltas[phases[i]] > deltas[phases[j]] })
	line := "  phases:"
	for _, p := range phases {
		if share := deltas[p] / total; share >= 0.005 {
			line += fmt.Sprintf(" %s %.0f%%", p, 100*share)
		}
	}
	sb.WriteString(line + "\n")
}

// intervalByLabel returns the per-label-value deltas of a counter family
// over the last interval and their sum, or the cumulative values when
// there is no previous sample or the interval was quiet — a mix is more
// use than nothing.
func intervalByLabel(prev, cur metricsDoc, name, label string) (map[string]float64, float64) {
	curBy := cur.byLabel(name, label)
	counts := map[string]float64{}
	total := 0.0
	var prevBy map[string]metricSeries
	if prev != nil {
		prevBy = prev.byLabel(name, label)
	}
	for v, se := range curBy {
		d := se.Value
		if prevBy != nil {
			d -= prevBy[v].Value
		}
		if d < 0 {
			d = 0
		}
		counts[v] = d
		total += d
	}
	if total <= 0 {
		total = 0
		for v, se := range curBy {
			counts[v] = se.Value
			total += se.Value
		}
	}
	return counts, total
}

// renderFrontDoor shows where resolverd's datagrams went: answered on
// the socket worker, handed to the miss pool, or dropped and why.
func renderFrontDoor(sb *strings.Builder, prev, cur metricsDoc) {
	counts, total := intervalByLabel(prev, cur, "rootless_resolver_frontdoor_total", "path")
	if total <= 0 {
		return
	}
	line := "  front door:"
	for _, path := range []string{"sync", "pool", "shed", "malformed", "limited"} {
		if counts[path] > 0 {
			line += fmt.Sprintf(" %s %.1f%%", path, 100*counts[path]/total)
		}
	}
	sb.WriteString(line + "\n")
}

// renderComposition prefers live interval deltas of the class counters;
// /topk's cumulative classes are the fallback for the first frame.
func renderComposition(sb *strings.Builder, prev, cur metricsDoc, tk *topkDoc) {
	counts, total := intervalByLabel(prev, cur, "rootless_traffic_class_total", "class")
	if len(counts) == 0 && tk != nil {
		for class, n := range tk.Classes {
			counts[class] = float64(n)
			total += float64(n)
		}
	}
	if total <= 0 {
		return
	}
	classes := make([]string, 0, len(counts))
	for c := range counts {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return counts[classes[i]] > counts[classes[j]] })
	line := "  composition:"
	for _, c := range classes {
		if counts[c] > 0 {
			line += fmt.Sprintf(" %s %.1f%%", c, 100*counts[c]/total)
		}
	}
	sb.WriteString(line + "\n")
}

// snapshotDoc is the -json one-shot output: everything a frame renders,
// machine-readable, one poll per target.
type snapshotDoc struct {
	At      string           `json:"at"`
	Targets []targetSnapshot `json:"targets"`
}

type targetSnapshot struct {
	Name    string         `json:"name"`
	Addr    string         `json:"addr"`
	Error   string         `json:"error,omitempty"`
	Status  map[string]any `json:"status,omitempty"`
	Metrics metricsDoc     `json:"metrics,omitempty"`
	TopK    *topkDoc       `json:"topk,omitempty"`
}

// snapshot polls every target once for -json output. Unreachable
// targets appear with an error field rather than failing the snapshot.
func (a *app) snapshot(now time.Time) snapshotDoc {
	doc := snapshotDoc{At: now.UTC().Format(time.RFC3339)}
	for _, t := range a.targets {
		ts := targetSnapshot{Name: t.name, Addr: t.base}
		if s, err := a.poll(t, now); err != nil {
			ts.Error = err.Error()
		} else {
			ts.Status = s.status
			ts.Metrics = s.metrics
			ts.TopK = s.topk
		}
		doc.Targets = append(doc.Targets, ts)
	}
	return doc
}

func renderTopK(sb *strings.Builder, tk *topkDoc) {
	writeRows := func(title string, rows []topkRow) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(sb, "  %s:\n", title)
		for _, r := range rows {
			fmt.Fprintf(sb, "    %10d (±%d)  %s\n", r.Count, r.Err, r.Key)
		}
	}
	writeRows("top qnames", tk.TopQnames)
	writeRows("top clients", tk.TopClients)
}
