package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func enabledTracer(ring int) *Tracer {
	t := NewTracer(ring, 0)
	t.SetEnabled(true)
	return t
}

// spanFixture builds one deterministic-shape trace: a cache span with a
// nested net attempt (explicitly charged durations), an event, and an
// error outcome — every field of the export schema populated.
func spanFixture(tc *Tracer) *Trace {
	tr := tc.Begin("www.example.com.", "A")
	tr.SetClass("valid") // class is omitempty: set it so the golden pins it
	sp := tr.StartSpan(PhaseCache, "cache-probe")
	sp.SetDetail("probe")
	att := tr.StartSpan(PhaseNet, "attempt")
	att.SetDetail("192.0.2.1 zone com.")
	att.EndWithDuration(10 * time.Millisecond)
	sp.EndWithDuration(15 * time.Millisecond)
	tr.Eventf("send", "www.example.com. A -> 192.0.2.1")
	tr.Finish("SERVFAIL", 25*time.Millisecond, 2, errors.New("boom"))
	return tr
}

func TestSpanAttributionExact(t *testing.T) {
	tc := enabledTracer(4)
	tr := spanFixture(tc)
	// The attempt nests under the cache probe, so the probe's self-time
	// is its charged 15ms minus the child's 10ms.
	if tr.Attr.NetNS != int64(10*time.Millisecond) {
		t.Errorf("net: got %d", tr.Attr.NetNS)
	}
	if tr.Attr.CacheNS != int64(5*time.Millisecond) {
		t.Errorf("cache self-time: got %d, want 5ms", tr.Attr.CacheNS)
	}
	if tr.Attr.BackoffNS != 0 || tr.Attr.OverloadWaitNS != 0 || tr.Attr.AuthNS != 0 {
		t.Errorf("unexpected phases: %+v", tr.Attr)
	}
	// Tracer-level totals saw the same breakdown.
	if got := tc.AttributionTotals(); got.NetNS != tr.Attr.NetNS || got.CacheNS != tr.Attr.CacheNS {
		t.Errorf("tracer totals %+v != trace %+v", got, tr.Attr)
	}
	if tc.AttributedTraces() != 1 {
		t.Errorf("attributed traces: %d", tc.AttributedTraces())
	}
}

func TestSpanPhaseReclassification(t *testing.T) {
	tc := enabledTracer(4)
	tr := tc.Begin("www.example.com.", "A")
	sp := tr.StartSpan(PhaseNet, "attempt")
	sp.SetPhase(PhaseBackoff) // the attempt timed out: its time is waste
	sp.EndWithDuration(3 * time.Second)
	tr.Finish("SERVFAIL", 0, 1, nil)
	if tr.Attr.NetNS != 0 || tr.Attr.BackoffNS != int64(3*time.Second) {
		t.Errorf("reclassified attempt not in backoff: %+v", tr.Attr)
	}
}

func TestSpanOutOfOrderEnd(t *testing.T) {
	tc := enabledTracer(4)
	tr := tc.Begin("www.example.com.", "A")
	parent := tr.StartSpan(PhaseCache, "parent")
	child := tr.StartSpan(PhaseNet, "child")
	parent.EndWithDuration(time.Millisecond) // ends before its child
	child.EndWithDuration(4 * time.Millisecond)
	// The cursor recovered: a new span is top-level-or-parented sanely
	// and the trace still finishes without panicking.
	after := tr.StartSpan(PhaseAuth, "after")
	after.EndWithDuration(2 * time.Millisecond)
	tr.Finish("NOERROR", 0, 0, nil)
	// Parent self-time clamps at zero (child outlived it); nothing negative.
	for _, p := range Phases() {
		if tr.Attr.ByPhase(p) < 0 {
			t.Errorf("negative attribution for %s: %+v", p, tr.Attr)
		}
	}
	if tr.Attr.NetNS != int64(4*time.Millisecond) || tr.Attr.AuthNS != int64(2*time.Millisecond) {
		t.Errorf("attribution: %+v", tr.Attr)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tc := enabledTracer(4)
	tr := tc.Begin("www.example.com.", "A")
	sp := tr.StartSpan(PhaseNet, "attempt")
	sp.EndWithDuration(5 * time.Millisecond)
	sp.EndWithDuration(99 * time.Millisecond) // ignored
	sp.End()                                  // ignored
	tr.Finish("NOERROR", 0, 1, nil)
	if tr.Attr.NetNS != int64(5*time.Millisecond) {
		t.Errorf("second End changed the span: %+v", tr.Attr)
	}
}

func TestUnendedSpansClosedAtFinish(t *testing.T) {
	tc := enabledTracer(4)
	tr := tc.Begin("www.example.com.", "A")
	tr.StartSpan(PhaseCache, "open-parent")
	tr.StartSpan(PhaseNet, "open-child")
	time.Sleep(time.Millisecond)
	tr.Finish("NOERROR", 0, 0, nil)
	var dump strings.Builder
	if err := tc.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Spans []SpanJSON `json:"spans"`
	}
	if err := json.Unmarshal([]byte(dump.String()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Spans) != 1 {
		t.Fatalf("trace dump: %s", dump.String())
	}
	root := got[0].Spans[0]
	if root.DurNS <= 0 || len(root.Children) != 1 || root.Children[0].DurNS <= 0 {
		t.Errorf("open spans not closed with wall time: %+v", root)
	}
	// Everything was open, so all attributed time is wall time and the
	// total can't exceed it.
	if tr.Attr.Total() > int64(tr.Wall) {
		t.Errorf("attribution %d exceeds wall %d with no charged spans", tr.Attr.Total(), tr.Wall)
	}
}

// TestDisabledTracerSpansAllocateNothing pins the acceptance bar for the
// always-on path: with tracing disabled the whole Begin/span/Finish
// sequence performs zero allocations.
func TestDisabledTracerSpansAllocateNothing(t *testing.T) {
	tc := NewTracer(4, 0) // disabled
	allocs := testing.AllocsPerRun(1000, func() {
		tr := tc.Begin("www.example.com.", "A")
		sp := tr.StartSpan(PhaseCache, "cache-probe")
		sp.End()
		att := tr.StartSpan(PhaseNet, "attempt")
		att.SetPhase(PhaseBackoff)
		att.EndWithDuration(time.Millisecond)
		tr.Finish("NOERROR", 0, 1, nil)
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per resolution, want 0", allocs)
	}
}

func TestTraceTreeShowsSpansAndAttribution(t *testing.T) {
	tc := enabledTracer(4)
	tr := spanFixture(tc)
	tree := tr.Tree()
	for _, want := range []string{
		"• cache-probe [cache]",
		"• attempt [net] 10ms (192.0.2.1 zone com.)",
		"attribution: cache=5ms net=10ms",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	// Child spans indent one level deeper than their parents.
	probe := strings.Index(tree, "• cache-probe")
	attempt := strings.Index(tree, "• attempt")
	if probe < 0 || attempt < 0 ||
		probe-strings.LastIndex(tree[:probe], "\n") >= attempt-strings.LastIndex(tree[:attempt], "\n") {
		t.Errorf("attempt not nested under cache-probe:\n%s", tree)
	}
}

// keyPaths flattens a decoded JSON value into its set of key paths
// (arrays become "[]"), the shape-without-values of an export schema.
func keyPaths(v any, prefix string, into map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := prefix + "." + k
			into[p] = true
			keyPaths(child, p, into)
		}
	case []any:
		for _, child := range x {
			keyPaths(child, prefix+"[]", into)
		}
	}
}

// TestTracezJSONSchemaGolden pins the /tracez?format=json schema: the
// sorted set of key paths served for a fully-populated trace must match
// the committed golden file. Run with -update-golden after a deliberate
// schema change.
func TestTracezJSONSchemaGolden(t *testing.T) {
	tc := enabledTracer(4)
	spanFixture(tc)
	a := &Admin{Tracer: tc, Registry: NewRegistry()}
	code, body := get(t, a.Handler(), "/tracez?format=json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var decoded any
	if err := json.Unmarshal([]byte(body), &decoded); err != nil {
		t.Fatal(err)
	}
	paths := make(map[string]bool)
	keyPaths(decoded, "$", paths)
	var sorted []string
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	got := strings.Join(sorted, "\n") + "\n"

	golden := filepath.Join("testdata", "tracez_schema.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("/tracez JSON schema drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSpanJSONRoundTrip checks the span export itself: names, phases,
// nesting, and charged durations survive into the JSON document.
func TestSpanJSONRoundTrip(t *testing.T) {
	tc := enabledTracer(4)
	spanFixture(tc)
	var buf strings.Builder
	if err := tc.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got []struct {
		Attr  Attribution `json:"attribution"`
		Spans []SpanJSON  `json:"spans"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("traces: %d", len(got))
	}
	root := got[0].Spans[0]
	if root.Name != "cache-probe" || root.Phase != "cache" || root.DurNS != int64(15*time.Millisecond) {
		t.Errorf("root span: %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Name != "attempt" ||
		root.Children[0].Phase != "net" || root.Children[0].Detail != "192.0.2.1 zone com." {
		t.Errorf("child span: %+v", root.Children)
	}
	if got[0].Attr.NetNS != int64(10*time.Millisecond) {
		t.Errorf("attribution in JSON: %+v", got[0].Attr)
	}
}

// TestAttributionHistograms checks InstrumentAttribution: finished
// traces surface as rootless_trace_phase_seconds summaries, one per
// phase, whose _count is the trace count and whose _sum is the phase's
// attributed time, with the tail quantiles beside them.
func TestAttributionHistograms(t *testing.T) {
	tc := enabledTracer(4)
	reg := NewRegistry()
	tc.InstrumentAttribution(reg)
	spanFixture(tc)
	spanFixture(tc)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, "# TYPE rootless_trace_phase_seconds summary\n") {
		t.Errorf("phase family is not a summary:\n%s", body)
	}
	totals := tc.AttributionTotals()
	for _, p := range Phases() {
		for _, want := range []string{
			fmt.Sprintf(`rootless_trace_phase_seconds_count{phase=%q} 2`, p.String()),
			fmt.Sprintf(`rootless_trace_phase_seconds_sum{phase=%q} %s`, p.String(),
				formatValue(float64(totals.ByPhase(p))/1e9)),
		} {
			if !strings.Contains(body, want+"\n") {
				t.Errorf("missing %s\n%s", want, body)
			}
		}
	}
	if !strings.Contains(body, `rootless_trace_phase_seconds_sum{phase="net"} 0.02`+"\n") {
		t.Errorf("net phase _sum is not the two traces' 2 x 10ms:\n%s", body)
	}
	if !strings.Contains(body, `rootless_trace_phase_seconds{phase="net",quantile="0.999"} 0.009`) {
		t.Errorf("net phase p999 is not ~10ms:\n%s", body)
	}
}
