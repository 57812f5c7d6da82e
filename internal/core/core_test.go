package core

import (
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"net/netip"
	"testing"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/authserver"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/netsim"
	"rootless/internal/resolver"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) { return d.r.Read(p) }

type vclock struct{ t time.Time }

func (v *vclock) now() time.Time          { return v.t }
func (v *vclock) advance(d time.Duration) { v.t = v.t.Add(d) }

func signer(t *testing.T) *dnssec.Signer {
	t.Helper()
	s, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(11))})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rootAt(t *testing.T, at time.Time) *zone.Zone {
	t.Helper()
	z, err := rootzone.Build(at)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestLocalRootLifecycle(t *testing.T) {
	s := signer(t)
	clk := &vclock{t: time.Date(2019, time.June, 1, 0, 0, 0, 0, time.UTC)}

	publishDate := clk.t
	source := dist.SourceFunc(func(context.Context) (*dist.Bundle, error) {
		return dist.MakeBundle(rootAt(t, publishDate), s)
	})

	// A lookaside resolver on a tiny simulated network (transport is
	// unused for root consults but required by the resolver).
	net := netsim.New(1, clk.t)
	r := resolver.New(resolver.Config{
		Mode:      resolver.RootModeLookaside,
		Transport: net.Client(anycast.GeoPoint{}),
		Clock:     clk.now,
	})

	lr, err := New(Config{
		Source:   source,
		KSK:      s.KSK.DNSKEY,
		Resolver: r,
		Clock:    clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Healthy() {
		t.Error("healthy before first fetch")
	}
	if !lr.Tick(context.Background()) {
		t.Fatal("bootstrap fetch failed")
	}
	if !lr.Healthy() || lr.Zone() == nil || lr.Installs() != 1 {
		t.Fatalf("state after bootstrap: healthy=%v installs=%d", lr.Healthy(), lr.Installs())
	}

	// The resolver can now answer a bogus TLD from the local zone with
	// zero network traffic.
	res, err := r.Resolve("whatever.not-a-tld-at-all.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeNXDomain || res.Queries != 0 {
		t.Fatalf("local NXDOMAIN: rcode=%v queries=%d", res.Rcode, res.Queries)
	}

	// Two days later a new serial is published and picked up on schedule.
	publishDate = publishDate.AddDate(0, 0, 2)
	clk.advance(42 * time.Hour)
	if !lr.Tick(context.Background()) {
		t.Fatal("scheduled refresh did not run")
	}
	if lr.State().Serial != rootzone.SerialFor(publishDate) {
		t.Errorf("serial = %d", lr.State().Serial)
	}
}

func TestLocalRootLocalAuthTarget(t *testing.T) {
	s := signer(t)
	clk := &vclock{t: time.Date(2019, time.June, 1, 0, 0, 0, 0, time.UTC)}
	source := dist.SourceFunc(func(context.Context) (*dist.Bundle, error) {
		return dist.MakeBundle(rootAt(t, clk.t), s)
	})
	srv := authserver.New(zone.New(dnswire.Root))
	lr, err := New(Config{Source: source, KSK: s.KSK.DNSKEY, AuthServer: srv, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Tick(context.Background()) {
		t.Fatal("fetch failed")
	}
	// The loopback server now serves referrals for real TLDs.
	q := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA)
	q.SetEDNS(dnswire.DefaultEDNSSize, false)
	resp := srv.Handle(q, netip.Addr{})
	if len(resp.Authority) == 0 {
		t.Error("loopback server has no delegation for com.")
	}
}

func TestLocalRootFullDNSSECVerify(t *testing.T) {
	s := signer(t)
	clk := &vclock{t: time.Date(2019, time.June, 1, 0, 0, 0, 0, time.UTC)}
	z := rootAt(t, clk.t)
	if err := s.SignZone(z, clk.t); err != nil {
		t.Fatal(err)
	}
	good, err := dist.MakeBundle(z, s)
	if err != nil {
		t.Fatal(err)
	}
	source := dist.SourceFunc(func(context.Context) (*dist.Bundle, error) { return good, nil })
	srv := authserver.New(zone.New(dnswire.Root))
	lr, err := New(Config{
		Source: source, KSK: s.KSK.DNSKEY, Anchor: s.TrustAnchor(),
		Verify: VerifyBoth, AuthServer: srv, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Tick(context.Background()) {
		t.Fatalf("verified fetch failed: %+v", lr.State().LastErr)
	}

	// An unsigned zone fails full verification even with a valid
	// detached signature.
	unsigned, err := dist.MakeBundle(rootAt(t, clk.t), s)
	if err != nil {
		t.Fatal(err)
	}
	badSource := dist.SourceFunc(func(context.Context) (*dist.Bundle, error) { return unsigned, nil })
	lr2, err := New(Config{
		Source: badSource, KSK: s.KSK.DNSKEY, Anchor: s.TrustAnchor(),
		Verify: VerifyFullDNSSEC, AuthServer: authserver.New(zone.New(dnswire.Root)),
		Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lr2.Tick(context.Background()) {
		t.Error("unsigned zone passed full verification")
	}
}

// TestLocalRootFollowsMirrorByDelta: a LocalRoot whose source is a
// mirror's HTTP client catches up by signed delta once it holds a copy,
// in every verification mode: wrapping the source with validation must
// not hide its delta chains from the refresher.
func TestLocalRootFollowsMirrorByDelta(t *testing.T) {
	s := signer(t)
	clk := &vclock{t: time.Date(2019, time.June, 1, 0, 0, 0, 0, time.UTC)}
	z1 := rootAt(t, clk.t)
	if err := s.SignZone(z1, clk.t); err != nil {
		t.Fatal(err)
	}
	// The next serial: one TLD loses its DS, and the zone is re-signed.
	z2 := rootAt(t, clk.t)
	z2.Remove("com.", dnswire.TypeDS)
	soa, _ := z2.SOA()
	next := soa.Data.(dnswire.SOA)
	next.Serial++
	z2.Remove(dnswire.Root, dnswire.TypeSOA)
	if err := z2.Add(dnswire.NewRR(dnswire.Root, soa.TTL, next)); err != nil {
		t.Fatal(err)
	}
	if err := s.SignZone(z2, clk.t); err != nil {
		t.Fatal(err)
	}

	m := dist.NewMirror(s, 4)
	if err := m.Publish(z1); err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(m)
	defer web.Close()
	client := dist.NewHTTPClient(web.URL)
	srv := authserver.New(zone.New(dnswire.Root))
	lr, err := New(Config{
		Source: client, KSK: s.KSK.DNSKEY, Anchor: s.TrustAnchor(),
		Verify: VerifyBoth, AuthServer: srv, Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !lr.Tick(context.Background()) {
		t.Fatalf("bootstrap fetch failed: %v", lr.State().LastErr)
	}
	if err := m.Publish(z2); err != nil {
		t.Fatal(err)
	}
	clk.advance(42 * time.Hour)
	if !lr.Tick(context.Background()) {
		t.Fatalf("refresh one serial behind failed: %v", lr.State().LastErr)
	}
	st := lr.State()
	full, delta := client.Fetches()
	if st.Serial != next.Serial || st.DeltaInstalls != 1 || st.ChainFallbacks != 0 || full != 1 || delta != 1 {
		t.Errorf("serial %d (want %d), delta installs %d, chain fallbacks %d, fetches full %d delta %d; want one of each fetch and a delta install",
			st.Serial, next.Serial, st.DeltaInstalls, st.ChainFallbacks, full, delta)
	}
	if got := srv.Zone().Lookup("com.", dnswire.TypeDS); len(got) != 0 {
		t.Errorf("the served zone still has com. DS after the delta: %v", got)
	}
}

func TestLocalRootStaleness(t *testing.T) {
	s := signer(t)
	clk := &vclock{t: time.Date(2019, time.June, 1, 0, 0, 0, 0, time.UTC)}
	failing := false
	source := dist.SourceFunc(func(context.Context) (*dist.Bundle, error) {
		if failing {
			return nil, errors.New("all mirrors down")
		}
		return dist.MakeBundle(rootAt(t, clk.t), s)
	})
	srv := authserver.New(zone.New(dnswire.Root))
	lr, err := New(Config{Source: source, KSK: s.KSK.DNSKEY, AuthServer: srv, Clock: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	lr.Tick(context.Background())
	failing = true
	// Healthy through hour 47 even with a dead source (retry window).
	clk.advance(47 * time.Hour)
	lr.Tick(context.Background())
	if !lr.Healthy() {
		t.Error("unhealthy inside the 48h window")
	}
	// Past 48 h the copy is stale.
	clk.advance(2 * time.Hour)
	lr.Tick(context.Background())
	if lr.Healthy() {
		t.Error("still healthy past expiry with no refresh")
	}
	// But the zone keeps serving (stale) rather than vanishing.
	if lr.Zone() == nil {
		t.Error("zone discarded on staleness")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoSource) {
		t.Errorf("no source: %v", err)
	}
	src := dist.SourceFunc(func(context.Context) (*dist.Bundle, error) { return nil, nil })
	if _, err := New(Config{Source: src}); !errors.Is(err, ErrNoTarget) {
		t.Errorf("no target: %v", err)
	}
}

func TestMigrationModel(t *testing.T) {
	m := NewMigration(MigrationConfig{})
	start := time.Date(2020, time.January, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2026, time.January, 1, 0, 0, 0, 0, time.UTC)

	early := m.At(start)
	mid := m.At(time.Date(2023, time.January, 1, 0, 0, 0, 0, time.UTC))
	late := m.At(end)

	if early.AdoptedShare > 0.05 {
		t.Errorf("early adoption = %.3f", early.AdoptedShare)
	}
	if mid.AdoptedShare < 0.45 || mid.AdoptedShare > 0.55 {
		t.Errorf("midpoint adoption = %.3f", mid.AdoptedShare)
	}
	if late.AdoptedShare < 0.95 {
		t.Errorf("late adoption = %.3f", late.AdoptedShare)
	}

	// Root traffic and fleet drain monotonically.
	series := m.Series(start, end)
	for i := 1; i < len(series); i++ {
		if series[i].RootQPS > series[i-1].RootQPS {
			t.Fatal("root traffic grew during migration")
		}
		if series[i].InstancesNeeded > series[i-1].InstancesNeeded {
			t.Fatal("fleet grew during migration")
		}
	}
	// Distribution load at full adoption: ~4.1M resolvers * 1.1MB / 2d
	// ≈ 2.3 TB/day — large in aggregate, trivial per resolver.
	if late.DistributionMBPerDay < 1e6 || late.DistributionMBPerDay > 4e6 {
		t.Errorf("distribution MB/day = %.0f", late.DistributionMBPerDay)
	}
	// The end state: no root nameservers.
	if end2 := m.At(end.AddDate(10, 0, 0)); end2.InstancesNeeded != 0 {
		t.Errorf("instances at full adoption = %d, want 0", end2.InstancesNeeded)
	}
}
