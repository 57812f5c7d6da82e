package loadgen

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/dnswire"
	"rootless/internal/obs/traffic"
	"rootless/internal/udpengine"
	"rootless/internal/zone"
)

const testZoneSrc = `
$ORIGIN .
. 86400 IN SOA a.root-servers.net. nstld.verisign-grs.com. 2019041100 1800 900 604800 86400
. 518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 198.41.0.4
com. 172800 IN NS a.gtld-servers.net.
a.gtld-servers.net. 172800 IN A 192.5.6.30
net. 172800 IN NS a.gtld-servers.net.
org. 172800 IN NS a0.org.afilias-nst.info.
`

// startAuthd runs a packed-answer authd behind a multi-worker engine on
// loopback and returns its address and the engine (for stats).
func startAuthd(t testing.TB, workers, batch int) (string, *udpengine.Engine) {
	t.Helper()
	z, err := zone.Parse(strings.NewReader(testZoneSrc), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	srv := authserver.New(z)
	eng, err := udpengine.New(udpengine.Config{
		Addr: "127.0.0.1:0", Workers: workers, Batch: batch,
		Handler: srv.DatagramHandler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("engine: %v", err)
		}
	})
	return eng.LocalAddr().String(), eng
}

// TestSmokeAgainstAuthd is the make-verify smoke: 2k real-socket
// queries against an in-process authd on loopback must come back at
// >= 99% response rate, and its figures must round-trip through JSON.
func TestSmokeAgainstAuthd(t *testing.T) {
	addr, _ := startAuthd(t, runtime.GOMAXPROCS(0), 8)
	res, err := Run(context.Background(), Config{
		Target:  addr,
		Queries: 2000,
		QPS:     10000,
		Workers: 2,
		TLDs:    []dnswire.Name{"com.", "net.", "org."},
		Seed:    1,
		EDNS:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 2000 {
		t.Errorf("sent %d queries, want 2000", res.Sent)
	}
	if res.RespRate < 0.99 {
		t.Errorf("response rate %.4f, want >= 0.99 (received %d/%d)",
			res.RespRate, res.Received, res.Sent)
	}
	if res.P50 <= 0 || res.P999 < res.P50 {
		t.Errorf("implausible latency tail: p50=%v p999=%v", res.P50, res.P999)
	}

	figs := res.Figures()
	blob, err := json.Marshal(figs)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]float64
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, figs) {
		t.Errorf("figures did not round-trip:\n got %v\nwant %v", back, figs)
	}
	if back["sent"] != 2000 || back["served-qps"] <= 0 || back["p999-ms"] < back["p50-ms"] {
		t.Errorf("implausible figures: %s", blob)
	}
}

// TestMixMatchesTaxonomy: the generator's classes must land in the
// intended internal/obs/traffic buckets — the generator and the live
// classifier agree on what junk means.
func TestMixMatchesTaxonomy(t *testing.T) {
	counts := Classify(Config{
		Mix:  Mix{Valid: 0.5, Bogus: 0.3, Chromium: 0.2},
		TLDs: []dnswire.Name{"com.", "net.", "org."},
		Seed: 7,
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	if total < poolSize/2 {
		t.Fatalf("classified only %d generated queries", total)
	}
	// Shares within a generous band of the configured mix (the pool is a
	// random draw of poolSize).
	frac := func(c traffic.Class) float64 { return float64(counts[c]) / float64(total) }
	if f := frac(traffic.ClassValid); f < 0.35 || f > 0.65 {
		t.Errorf("valid share %.2f, want ~0.5", f)
	}
	if f := frac(traffic.ClassBogusTLD); f < 0.15 || f > 0.45 {
		t.Errorf("bogus share %.2f, want ~0.3", f)
	}
	if f := frac(traffic.ClassChromiumProbe); f < 0.08 || f > 0.35 {
		t.Errorf("chromium share %.2f, want ~0.2", f)
	}
	if counts[traffic.ClassPTRPrivate] != 0 {
		t.Errorf("unexpected PTR-private queries: %d", counts[traffic.ClassPTRPrivate])
	}
}

// TestRepeatShareRepeats: the repeat class re-asks one fixed qname, so
// a pure-repeat pool has exactly one distinct question.
func TestRepeatShareRepeats(t *testing.T) {
	cfg := Config{Mix: Mix{Repeat: 1}, TLDs: []dnswire.Name{"com."}, Seed: 3}
	p := buildPool(&cfg, rand.New(rand.NewSource(3)))
	names := make(map[string]bool)
	for _, wire := range p.wires {
		var m dnswire.Message
		if err := m.Unpack(wire); err != nil {
			t.Fatal(err)
		}
		names[string(m.Questions[0].Name)] = true
	}
	if len(names) != 1 {
		t.Errorf("pure-repeat pool produced %d distinct names, want 1", len(names))
	}
}

// TestOpenLoopPacing: with a rate configured, the send window must
// stretch to roughly queries/QPS rather than blasting everything out,
// and the achieved rate is measured over that window alone. The drain
// ends as soon as every reply is in, so the rate must not depend on how
// long the drain was allowed to be.
func TestOpenLoopPacing(t *testing.T) {
	addr, _ := startAuthd(t, 1, 1)
	for _, drain := range []time.Duration{50 * time.Millisecond, 90 * time.Millisecond} {
		start := time.Now()
		res, err := Run(context.Background(), Config{
			Target: addr, Queries: 200, QPS: 2000, Workers: 1,
			Seed: 1, Drain: drain,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent != 200 {
			t.Fatalf("sent %d", res.Sent)
		}
		// 200 queries at 2000 qps = 100ms schedule; allow wide slop above
		// but fail if the schedule was ignored entirely.
		if el := time.Since(start); el < 80*time.Millisecond {
			t.Errorf("200 queries at 2000 qps finished in %v — pacing not applied", el)
		}
		if res.AchievedQPS > 2200 {
			t.Errorf("drain %v: achieved %.0f qps against a 2000 qps schedule", drain, res.AchievedQPS)
		}
	}
}
