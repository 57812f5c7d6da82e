package resolver

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// captureTransport records the wire form of every upstream query it
// forwards. It deliberately does NOT implement TracedTransport, so the
// resolver exercises the plain-Exchange path (stamp + graft) even over
// netsim.
type captureTransport struct {
	inner Transport
	wires [][]byte
}

func (c *captureTransport) Exchange(dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	w, err := q.Pack()
	if err != nil {
		return nil, 0, err
	}
	c.wires = append(c.wires, w)
	return c.inner.Exchange(dst, q)
}

// TestTracePropagateOffByteIdentical pins the off-by-default guarantee:
// with propagation off, a resolver with an enabled tracer sends the
// exact same query bytes as one with tracing fully disabled — past the
// two ID octets, which are random per query.
func TestTracePropagateOffByteIdentical(t *testing.T) {
	capture := func(traced bool) [][]byte {
		tp := newTopo(t)
		var ct *captureTransport
		r := tp.resolver(t, RootModeHints, func(c *Config) {
			ct = &captureTransport{inner: c.Transport}
			c.Transport = ct
		})
		if traced {
			tr := obs.NewTracer(16, 0)
			tr.SetEnabled(true)
			r.SetTracer(tr)
		}
		if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
		return ct.wires
	}
	plain, traced := capture(false), capture(true)
	if len(plain) == 0 || len(plain) != len(traced) {
		t.Fatalf("query counts differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if !bytes.Equal(plain[i][2:], traced[i][2:]) {
			t.Errorf("query %d differs with tracing on but propagation off:\n%x\n%x",
				i, plain[i], traced[i])
		}
	}
}

// TestTracePropagateStampsQueries: with propagation on and a trace
// active, every upstream query carries a sampled trace option bearing
// the resolution's trace ID.
func TestTracePropagateStampsQueries(t *testing.T) {
	tp := newTopo(t)
	var ct *captureTransport
	r := tp.resolver(t, RootModeHints, func(c *Config) {
		ct = &captureTransport{inner: c.Transport}
		c.Transport = ct
		c.TracePropagate = true
	})
	tracer := obs.NewTracer(16, 0)
	tracer.SetEnabled(true)
	r.SetTracer(tracer)
	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	recent := tracer.RecentByClass("")
	if len(recent) != 1 {
		t.Fatalf("recorded %d traces", len(recent))
	}
	wantID := recent[0].TraceID
	if wantID == 0 {
		t.Fatal("trace has no ID")
	}
	if len(ct.wires) == 0 {
		t.Fatal("no queries captured")
	}
	for i, w := range ct.wires {
		var q dnswire.Message
		if err := q.Unpack(w); err != nil {
			t.Fatal(err)
		}
		tc, payload, ok := q.TraceOption()
		if !ok || !tc.Sampled {
			t.Fatalf("query %d not stamped (ok=%v sampled=%v)", i, ok, tc.Sampled)
		}
		if tc.TraceID != wantID {
			t.Errorf("query %d trace ID %016x, want %016x", i, tc.TraceID, wantID)
		}
		if tc.SpanID == 0 {
			t.Errorf("query %d has no parent span ID", i)
		}
		if payload != nil {
			t.Errorf("query %d carries a span payload (responses only)", i)
		}
	}

	// Propagation only stamps traced resolutions: a cache-warm repeat
	// resolution that does go upstream for a new name with tracing later
	// disabled must not stamp.
	tracer.SetEnabled(false)
	ct.wires = nil
	if _, err := r.Resolve("text.example.com.", dnswire.TypeTXT); err != nil {
		t.Fatal(err)
	}
	for i, w := range ct.wires {
		var q dnswire.Message
		if err := q.Unpack(w); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := q.TraceOption(); ok {
			t.Errorf("untraced query %d stamped", i)
		}
	}
}

// TestTracePropagationEndToEnd runs a real authserver on a loopback UDP
// socket and a resolver with propagation on against it, then asserts the
// acceptance criterion: a query by trace ID on EITHER daemon's /tracez
// returns the stitched resolution — the resolver's copy with the auth
// span grafted (remote) under its network attempt span, and the auth
// side's joined share under the same ID.
func TestTracePropagationEndToEnd(t *testing.T) {
	z := mustZone(t, rootZoneSrc, dnswire.Root)
	srv := authserver.New(z)
	authTracer := obs.NewTracer(16, 0)
	authTracer.SetEnabled(true)
	srv.SetTracer(authTracer)

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = srv.ServeUDP(ctx, pc) }()
	port := uint16(pc.LocalAddr().(*net.UDPAddr).Port)

	loop := netip.MustParseAddr("127.0.0.1")
	r := New(Config{
		Mode: RootModeHints,
		Hints: []dnswire.RR{
			dnswire.NewRR(dnswire.Root, 3600000, dnswire.NS{Host: "a.root-servers.net."}),
			dnswire.NewRR("a.root-servers.net.", 3600000, dnswire.A{Addr: loop}),
		},
		Transport: &UDPTransport{
			Timeout:       2 * time.Second,
			PortOverrides: map[netip.Addr]uint16{loop: port},
		},
		TracePropagate: true,
		Seed:           7,
	})
	resTracer := obs.NewTracer(16, 0)
	resTracer.SetEnabled(true)
	r.SetTracer(resTracer)

	// ". SOA" is answered authoritatively by the root server itself: one
	// real socket round trip, no referral chasing beyond loopback.
	res, err := r.Resolve(".", dnswire.TypeSOA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeSuccess || len(res.Answers) == 0 {
		t.Fatalf("rcode=%v answers=%d", res.Rcode, len(res.Answers))
	}

	recent := resTracer.RecentByClass("")
	if len(recent) != 1 {
		t.Fatalf("resolver recorded %d traces", len(recent))
	}
	id := recent[0].TraceID
	hexID := obs.FormatTraceID(id)

	// Resolver side: the stitched tree must nest a remote auth span under
	// the resolver's network attempt span.
	resDoc := tracezByID(t, &obs.Admin{Tracer: resTracer, Registry: obs.NewRegistry()}, hexID)
	attempt := findSpan(resDoc, "attempt")
	if attempt == nil {
		t.Fatalf("no attempt span in stitched trace: %s", resDoc)
	}
	var auth map[string]any
	for _, c := range childSpans(attempt) {
		if c["name"] == "auth" {
			auth = c
		}
	}
	if auth == nil {
		t.Fatalf("no auth span under the attempt span: %s", resDoc)
	}
	if auth["remote"] != true || auth["phase"] != "auth" {
		t.Errorf("grafted auth span not marked remote: %v", auth)
	}

	// Auth side: the same trace ID resolves to the joined share, linked
	// to the resolver's parent span.
	// (The UDP serve loop finishes the trace before writing the response,
	// so by the time Resolve returned it is in the ring.)
	authDoc := tracezByID(t, &obs.Admin{Tracer: authTracer, Registry: obs.NewRegistry()}, hexID)
	if findSpan(authDoc, "auth") == nil {
		t.Fatalf("auth daemon has no auth span for trace %s: %s", hexID, authDoc)
	}
	var parsed struct {
		Traces []struct {
			ParentSpanID string `json:"parent_span_id"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(authDoc, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.Traces) != 1 || parsed.Traces[0].ParentSpanID == "" {
		t.Errorf("auth-side trace not joined to a parent span: %s", authDoc)
	}

	// The admin contract around the parameter.
	for _, c := range []struct {
		param string
		code  int
	}{{"traceid=zzzz", http.StatusBadRequest}, {"traceid=00000000deadbeef", http.StatusNotFound}} {
		req := httptest.NewRequest("GET", "/tracez?"+c.param, nil)
		rec := httptest.NewRecorder()
		(&obs.Admin{Tracer: resTracer, Registry: obs.NewRegistry()}).Handler().ServeHTTP(rec, req)
		if rec.Code != c.code {
			t.Errorf("/tracez?%s = %d, want %d", c.param, rec.Code, c.code)
		}
	}
}

// tracezByID fetches /tracez?traceid= and returns the body (fatal on
// non-200).
func tracezByID(t *testing.T, a *obs.Admin, hexID string) []byte {
	t.Helper()
	req := httptest.NewRequest("GET", "/tracez?traceid="+hexID, nil)
	rec := httptest.NewRecorder()
	a.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/tracez?traceid=%s = %d: %s", hexID, rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	return rec.Body.Bytes()
}

// findSpan depth-first searches the stitched /tracez?traceid= document
// for a span with the given name.
func findSpan(doc []byte, name string) map[string]any {
	var parsed struct {
		Traces []struct {
			Spans []map[string]any `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		return nil
	}
	var walk func(spans []map[string]any) map[string]any
	walk = func(spans []map[string]any) map[string]any {
		for _, s := range spans {
			if s["name"] == name {
				return s
			}
			if found := walk(childSpans(s)); found != nil {
				return found
			}
		}
		return nil
	}
	for _, tr := range parsed.Traces {
		if found := walk(tr.Spans); found != nil {
			return found
		}
	}
	return nil
}

func childSpans(s map[string]any) []map[string]any {
	raw, _ := s["children"].([]any)
	out := make([]map[string]any, 0, len(raw))
	for _, c := range raw {
		if m, ok := c.(map[string]any); ok {
			out = append(out, m)
		}
	}
	return out
}
