package core

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/netsim"
	"rootless/internal/resolver"
)

// TestLocalRootLearnsNewTLDByDelta is §5.3 end to end: .llc enters the
// root on 2018-02-23, between a resolver's full refreshes, and the
// resolver learns it at its next 6-hourly poll of the mirror's signed
// delta chain. The link carries llc.'s records with the NSEC, RRSIG and
// ZONEMD changes around them, so the installed copy is the published
// zone: it passes full verification, and the lookaside resolver holding
// the trust anchor answers from it locally and with AD.
func TestLocalRootLearnsNewTLDByDelta(t *testing.T) {
	s := signer(t)
	s.AddNSEC = true
	s.Quantize = 14 * 24 * time.Hour
	s.Validity = 28 * 24 * time.Hour
	mirror := dist.NewMirror(s, 4)
	publish := func(at time.Time) {
		t.Helper()
		z := rootAt(t, at)
		if err := s.SignZone(z, at); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Publish(z); err != nil {
			t.Fatal(err)
		}
	}
	eve := time.Date(2018, time.February, 22, 0, 0, 0, 0, time.UTC)
	publish(eve)
	web := httptest.NewServer(mirror)
	defer web.Close()

	clk := &vclock{t: eve.Add(18 * time.Hour)}
	r := resolver.New(resolver.Config{
		Mode:        resolver.RootModeLookaside,
		Transport:   netsim.New(1, clk.t).Client(anycast.GeoPoint{}),
		Clock:       clk.now,
		Validate:    validator.PolicyStrict,
		TrustAnchor: s.TrustAnchor(),
	})
	client := dist.NewHTTPClient(web.URL)
	lr, err := New(Config{
		Source: client, KSK: s.KSK.DNSKEY, Anchor: s.TrustAnchor(), Verify: VerifyBoth,
		Resolver: r, Refresh: 6 * time.Hour, Expiry: 48 * time.Hour, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Tick(context.Background()) {
		t.Fatalf("bootstrap failed: %v", lr.State().LastErr)
	}
	if res, err := r.Resolve("www.startup.llc.", dnswire.TypeA); err != nil || res.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("llc. before its addition: %+v %v", res, err)
	}

	// The first zone with llc. is published; one poll later the resolver
	// has it.
	publish(eve.AddDate(0, 0, 1))
	clk.advance(6 * time.Hour)
	if !lr.Tick(context.Background()) {
		t.Fatalf("the poll after llc.'s addition installed nothing: %v", lr.State().LastErr)
	}
	if full, _ := client.Fetches(); lr.State().DeltaInstalls < 1 || full != 1 {
		t.Errorf("%d delta installs after %d full fetches; want llc. by delta after the one bootstrap fetch",
			lr.State().DeltaInstalls, full)
	}
	res, err := r.Resolve("llc.", dnswire.TypeDS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeSuccess || res.Queries != 0 || !res.AuthData {
		t.Errorf("llc. DS after the delta: rcode %v, %d queries, AD %v; want a local, authenticated answer",
			res.Rcode, res.Queries, res.AuthData)
	}
	if err := dnssec.VerifyZone(lr.Zone(), s.TrustAnchor(), clk.now()); err != nil {
		t.Errorf("the installed zone fails full verification: %v", err)
	}
}
