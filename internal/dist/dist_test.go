package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) { return d.r.Read(p) }

func testSigner(t testing.TB) *dnssec.Signer {
	t.Helper()
	s, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testZone(t testing.TB, serial uint32, extra string) *zone.Zone {
	t.Helper()
	src := `
. 86400 IN SOA a.root-servers.net. nstld.verisign-grs.com. ` +
		// serial patched below
		`SERIAL 1800 900 604800 86400
. 518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 198.41.0.4
com. 172800 IN NS a.gtld-servers.net.
a.gtld-servers.net. 172800 IN A 192.5.6.30
org. 172800 IN NS a0.org.afilias-nst.info.
a0.org.afilias-nst.info. 172800 IN A 199.19.56.1
` + extra
	src = strings.Replace(src, "SERIAL", itoa(serial), 1)
	z, err := zone.Parse(strings.NewReader(src), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func itoa(v uint32) string {
	return strings.TrimSpace(strings.ReplaceAll(strings.Join([]string{string(rune(0))}, ""), "\x00", "")) + uitoa(v)
}

func uitoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

// ---- bundles ----

func TestBundleRoundTripAndVerify(t *testing.T) {
	s := testSigner(t)
	z := testZone(t, 2019060700, "")
	b, err := MakeBundle(z, s)
	if err != nil {
		t.Fatal(err)
	}
	enc := b.Encode()
	dec, err := DecodeBundle(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Verify(s.KSK.DNSKEY)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial() != 2019060700 || got.Len() != z.Len() {
		t.Errorf("verified zone: serial=%d len=%d", got.Serial(), got.Len())
	}
	// Tampering breaks verification.
	bad := *dec
	bad.Compressed = append([]byte(nil), dec.Compressed...)
	bad.Compressed[10] ^= 1
	if _, err := bad.Verify(s.KSK.DNSKEY); err == nil {
		t.Error("tampered bundle verified")
	}
	// Wrong key breaks verification.
	other := testSigner(t)
	otherKey, _ := dnssec.GenerateKey(dnswire.Root, true, detRand{rand.New(rand.NewSource(99))})
	_ = other
	if _, err := dec.Verify(otherKey.DNSKEY); err == nil {
		t.Error("foreign key verified")
	}
	// Garbage decodes fail cleanly.
	if _, err := DecodeBundle([]byte("nope")); err == nil {
		t.Error("garbage bundle decoded")
	}
	if _, err := DecodeBundle(enc[:10]); err == nil {
		t.Error("truncated bundle decoded")
	}
}

func TestBundleVerifyFull(t *testing.T) {
	s := testSigner(t)
	z := testZone(t, 2019060700, "")
	now := time.Unix(1559900000, 0)
	if err := s.SignZone(z, now); err != nil {
		t.Fatal(err)
	}
	b, err := MakeBundle(z, s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.VerifyFull(s.TrustAnchor(), now)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial() != 2019060700 {
		t.Errorf("serial = %d", got.Serial())
	}
	// No signature covers the header: a serial rewritten there must not
	// pass for the zone's.
	b.Serial++
	if _, err := b.VerifyFull(s.TrustAnchor(), now); err == nil {
		t.Error("VerifyFull accepted a header serial the zone does not carry")
	}
}

// ---- mirror over real HTTP ----

func TestMirrorHTTPFull(t *testing.T) {
	s := testSigner(t)
	m := NewMirror(s, 4)
	if err := m.Publish(testZone(t, 100, "")); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m)
	defer srv.Close()

	c := NewHTTPClient(srv.URL)
	b, err := c.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if b.Serial != 100 {
		t.Errorf("serial = %d", b.Serial)
	}
	if _, err := b.Verify(s.KSK.DNSKEY); err != nil {
		t.Fatal(err)
	}
	if c.BytesFetched() == 0 {
		t.Error("no bytes accounted")
	}
	// The bundle, the serial and the delta chain are all a mirror serves.
	if _, err := c.get(context.Background(), "/serial"); err != nil {
		t.Error(err)
	}
	for _, path := range []string{"/root.zone.text", "/delta?from=100", "/additions?from=100"} {
		if _, err := c.get(context.Background(), path); err == nil {
			t.Errorf("%s is served", path)
		}
	}
}

// bulkTLDs generates n synthetic TLD delegation lines so the zone is large
// enough for delta syncs to pay off, as the real root zone is.
func bulkTLDs(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "tld%04d. 172800 IN NS ns0.nic.tld%04d.\n", i, i)
		fmt.Fprintf(&sb, "ns0.nic.tld%04d. 172800 IN A 100.64.%d.%d\n", i, i/250, 1+i%250)
	}
	return sb.String()
}

func TestMirrorDeltaSync(t *testing.T) {
	s := quantizedSigner(t)
	now := time.Unix(1555000000, 0)
	z1 := signedTestZone(t, s, 100, bulkTLDs(400), now)
	m := NewMirror(s, 4)
	if err := m.Publish(z1); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)

	// First sync is a full fetch.
	if _, err := c.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	fullBytes := c.BytesFetched()

	// Publish a slightly changed zone; the second sync must be a small
	// delta that lands exactly on it.
	z2 := signedTestZone(t, s, 101, bulkTLDs(400)+"newtld. 172800 IN NS ns0.nic.newtld.\nns0.nic.newtld. 172800 IN A 100.1.2.3\n", now)
	if err := m.Publish(z2); err != nil {
		t.Fatal(err)
	}
	chain, err := c.FetchDeltaChain(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	deltaBytes := c.BytesFetched() - fullBytes
	if deltaBytes >= fullBytes {
		t.Errorf("delta sync (%d B) not smaller than full fetch (%d B)", deltaBytes, fullBytes)
	}
	if full, delta := c.Fetches(); full != 1 || delta != 1 {
		t.Errorf("fetches: full=%d delta=%d", full, delta)
	}
	if st := m.Stats(); st.BundleBytes != fullBytes || st.ChainBytes != deltaBytes {
		t.Errorf("mirror stats %+v, client fetched %d bundle and %d chain bytes", st, fullBytes, deltaBytes)
	}
	if len(chain) != 1 {
		t.Fatalf("%d links from one serial behind", len(chain))
	}
	got, _, err := chain[0].Apply(z1, ChainAnchor(z1), []dnswire.DNSKEY{s.KSK.DNSKEY}, now)
	if err != nil {
		t.Fatal(err)
	}
	if zone.Text(got) != zone.Text(z2) {
		t.Error("the delta-synced zone differs from the published one")
	}
}

func TestMirrorDeltaWindowEviction(t *testing.T) {
	s := testSigner(t)
	m := NewMirror(s, 2)
	for serial := uint32(1); serial <= 5; serial++ {
		if err := m.Publish(testZone(t, serial, "")); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(m)
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	// Serial 1 fell out of the two-snapshot window: the chain request must
	// fail, which sends a refresher to the full bundle.
	if _, err := c.FetchDeltaChain(context.Background(), 1); err == nil {
		t.Error("chain served from an evicted serial")
	}
	// Serial 4 is retained: one link to the current serial.
	chain, err := c.FetchDeltaChain(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0].FromSerial != 4 || chain[0].ToSerial != 5 {
		t.Errorf("chain from 4: %d links", len(chain))
	}
	// The current serial: an empty chain says "already current".
	if chain, err := c.FetchDeltaChain(context.Background(), 5); err != nil || len(chain) != 0 {
		t.Errorf("chain from the current serial: %d links, %v", len(chain), err)
	}
}

// ---- refresher ----

// vclock is a settable virtual clock.
type vclock struct{ t time.Time }

func (v *vclock) now() time.Time          { return v.t }
func (v *vclock) advance(d time.Duration) { v.t = v.t.Add(d) }

func TestRefresherHappyPath(t *testing.T) {
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	serial := uint32(1)
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, serial, ""), s)
	})
	var installed []uint32
	r, err := NewRefresher(RefresherConfig{
		Source: src,
		KSK:    s.KSK.DNSKEY,
		Install: func(z *zone.Zone) error {
			installed = append(installed, z.Serial())
			return nil
		},
		Clock: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("initial fetch failed")
	}
	st := r.State()
	if !st.HaveZone || !st.Fresh || st.Serial != 1 {
		t.Fatalf("state: %+v", st)
	}
	// Not due before 42 h.
	clk.advance(41 * time.Hour)
	if r.Tick(context.Background()) {
		t.Error("refreshed before schedule")
	}
	// Due at 42 h; new serial arrives.
	serial = 2
	clk.advance(2 * time.Hour)
	if !r.Tick(context.Background()) {
		t.Error("did not refresh on schedule")
	}
	if got := r.State().Serial; got != 2 {
		t.Errorf("serial = %d", got)
	}
	if len(installed) != 2 {
		t.Errorf("installs = %v", installed)
	}
}

func TestRefresherRetryWindow(t *testing.T) {
	// The paper's robustness arithmetic: fetch at X, refresh attempt at
	// X+42 h fails, jittered retries follow; no retry is ever scheduled
	// past X+48 h, so if the source recovers inside the 6-hour window the
	// copy never goes stale.
	s := testSigner(t)
	t0 := time.Unix(1555000000, 0)
	clk := &vclock{t: t0}
	failing := true
	serial := uint32(7)
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		if failing {
			return nil, errors.New("mirror unreachable")
		}
		return MakeBundle(testZone(t, serial, ""), s)
	})
	r, err := NewRefresher(RefresherConfig{
		Source:  src,
		KSK:     s.KSK.DNSKEY,
		Install: func(*zone.Zone) error { return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	failing = false
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}
	failing = true

	// At X+42h the refresh fails. Walk the retry schedule: every attempt
	// must land at or before the X+48h expiry moment, and the copy stays
	// fresh throughout.
	exp := t0.Add(48 * time.Hour)
	clk.t = t0.Add(42 * time.Hour)
	retries := 0
	for clk.t.Before(exp) {
		r.Tick(context.Background())
		if st := r.State(); !st.Fresh {
			t.Fatalf("copy went stale at %v (age %v): %+v", clk.t.Sub(t0), st.Age, st)
		}
		r.mu.Lock()
		next := r.nextTry
		r.mu.Unlock()
		if next.After(exp) {
			t.Fatalf("retry scheduled at %v, past the expiry window end %v",
				next.Sub(t0), exp.Sub(t0))
		}
		clk.t = next
		retries++
		if retries > 100 {
			t.Fatal("retry schedule did not reach the expiry window end")
		}
	}
	if retries < 2 {
		t.Fatalf("only %d retries fit in the 6-hour window", retries)
	}
	// Source recovers for the final attempt, which lands exactly at the
	// expiry moment: freshness restored without any stale period.
	failing = false
	serial = 8
	if !r.Tick(context.Background()) {
		t.Fatal("recovery fetch failed")
	}
	if st := r.State(); !st.Fresh || st.Failures == 0 || st.RetryDelay != 0 {
		t.Fatalf("state after recovery: %+v", st)
	}
}

func TestRefresherBackoffJitter(t *testing.T) {
	// Retry delays follow decorrelated jitter: each within [Retry,
	// RetryCap], growing from the base, and reproducible from the seed.
	delaySeq := func(seed int64) []time.Duration {
		s := testSigner(t)
		clk := &vclock{t: time.Unix(1555000000, 0)}
		failing := false
		src := SourceFunc(func(context.Context) (*Bundle, error) {
			if failing {
				return nil, errors.New("mirror unreachable")
			}
			return MakeBundle(testZone(t, 1, ""), s)
		})
		r, err := NewRefresher(RefresherConfig{
			Source:   src,
			KSK:      s.KSK.DNSKEY,
			Install:  func(*zone.Zone) error { return nil },
			Expiry:   1000 * time.Hour, // keep the expiry clamp out of the way
			RetryCap: 8 * time.Hour,
			Seed:     seed,
			Clock:    clk.now,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Tick(context.Background()) {
			t.Fatal("bootstrap failed")
		}
		failing = true
		clk.advance(42 * time.Hour)
		var seq []time.Duration
		for i := 0; i < 10; i++ {
			before := clk.t
			r.Tick(context.Background())
			r.mu.Lock()
			next := r.nextTry
			r.mu.Unlock()
			seq = append(seq, next.Sub(before))
			clk.t = next
		}
		return seq
	}

	seq := delaySeq(42)
	for i, d := range seq {
		if d < time.Hour || d > 8*time.Hour {
			t.Errorf("delay[%d] = %v, want within [1h, 8h]", i, d)
		}
	}
	grew := false
	for _, d := range seq {
		if d > time.Hour {
			grew = true
		}
	}
	if !grew {
		t.Errorf("backoff never grew past the base: %v", seq)
	}

	// Determinism: same seed, same schedule; different seed diverges.
	same := delaySeq(42)
	for i := range seq {
		if seq[i] != same[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, seq[i], same[i])
		}
	}
	other := delaySeq(1)
	diverged := false
	for i := range seq {
		if seq[i] != other[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical jitter schedules")
	}
}

func TestRefresherFallbackSources(t *testing.T) {
	// When the primary channel fails, the refresher fails over to its
	// fallback sources (gossip peers) — and the fallback's bundle still
	// has to verify against the KSK.
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	primary := SourceFunc(func(context.Context) (*Bundle, error) {
		return nil, errors.New("mirror unreachable")
	})
	evil, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(99))})
	if err != nil {
		t.Fatal(err)
	}
	badPeer := SourceFunc(func(context.Context) (*Bundle, error) {
		// Signed with the wrong key: the bundle must be rejected even
		// though the peer is reachable.
		return MakeBundle(testZone(t, 9, ""), evil)
	})
	goodPeer := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, 3, ""), s)
	})
	var installed []uint32
	r, err := NewRefresher(RefresherConfig{
		Source: primary,
		KSK:    s.KSK.DNSKEY,
		Install: func(z *zone.Zone) error {
			installed = append(installed, z.Serial())
			return nil
		},
		Fallbacks: []Source{badPeer, goodPeer},
		Clock:     clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("fetch did not fail over to the good peer")
	}
	st := r.State()
	if st.Serial != 3 || st.FallbackFetches != 1 {
		t.Fatalf("state after failover: %+v", st)
	}
	if len(installed) != 1 || installed[0] != 3 {
		t.Fatalf("installed = %v, want the peer's serial 3 only", installed)
	}
}

func TestRefresherExpiry(t *testing.T) {
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	calls := 0
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		calls++
		if calls == 1 {
			return MakeBundle(testZone(t, 1, ""), s)
		}
		return nil, errors.New("mirror down hard")
	})
	r, err := NewRefresher(RefresherConfig{
		Source:  src,
		KSK:     s.KSK.DNSKEY,
		Install: func(*zone.Zone) error { return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Tick(context.Background())
	clk.advance(49 * time.Hour)
	r.Tick(context.Background()) // fails
	st := r.State()
	if st.Fresh {
		t.Error("copy still fresh after 49h with no refresh")
	}
	if !st.HaveZone {
		t.Error("zone should still be present, merely stale")
	}
	if st.LastErr == nil {
		t.Error("LastErr not recorded")
	}
}

func TestRefresherRejectsBadSignature(t *testing.T) {
	s := testSigner(t)
	evil, _ := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(666))})
	clk := &vclock{t: time.Unix(1555000000, 0)}
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, 1, "poisoned. 172800 IN NS evil.attacker.\n"), evil)
	})
	installs := 0
	r, err := NewRefresher(RefresherConfig{
		Source:  src,
		KSK:     s.KSK.DNSKEY, // trusts the honest KSK
		Install: func(*zone.Zone) error { installs++; return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tick(context.Background()) {
		t.Fatal("evil bundle installed")
	}
	if installs != 0 {
		t.Fatal("install ran for unverified zone")
	}
	if r.State().Failures != 1 {
		t.Errorf("state: %+v", r.State())
	}
}

func TestNewRefresherValidation(t *testing.T) {
	if _, err := NewRefresher(RefresherConfig{}); err == nil {
		t.Error("empty config accepted")
	}
}

// ---- gossip ----

func TestGossipPropagation(t *testing.T) {
	s := testSigner(t)
	b, err := MakeBundle(testZone(t, 42, ""), s)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGossip(1000, 7)
	g.Seed(b, 5)
	rounds, err := g.RoundsToCoverage(42, 0.999)
	if err != nil {
		t.Fatal(err)
	}
	// Epidemic spread reaches ~everyone in O(log n) rounds.
	if rounds > 15 {
		t.Errorf("gossip took %d rounds for 1000 peers", rounds)
	}
	if g.Coverage(42) < 0.999 {
		t.Error("coverage target not reached")
	}
	st := g.Stats()
	if st.Transfers < 990 || st.Bytes == 0 {
		t.Errorf("stats: %+v", st)
	}
	// A peer can then act as a refresher source.
	if _, err := g.PeerSource(0).Fetch(context.Background()); err != nil {
		t.Error(err)
	}
	if _, err := g.PeerSource(len(g.peers)).Fetch(context.Background()); err == nil {
		t.Error("out-of-range peer fetched")
	}
}

func TestMultiSourceFailover(t *testing.T) {
	s := testSigner(t)
	good, err := MakeBundle(testZone(t, 9, ""), s)
	if err != nil {
		t.Fatal(err)
	}
	downA, downB := true, false
	srcA := SourceFunc(func(context.Context) (*Bundle, error) {
		if downA {
			return nil, errors.New("mirror A unreachable")
		}
		return good, nil
	})
	srcB := SourceFunc(func(context.Context) (*Bundle, error) {
		if downB {
			return nil, errors.New("mirror B unreachable")
		}
		return good, nil
	})
	ms, err := NewMultiSource([]Source{srcA, srcB}, []string{"mirror-a", "mirror-b"})
	if err != nil {
		t.Fatal(err)
	}

	// A down: fetch succeeds via B and B becomes preferred.
	if _, err := ms.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ms.Preferred() != "mirror-b" || ms.Failovers() != 1 {
		t.Errorf("preferred=%s failovers=%d", ms.Preferred(), ms.Failovers())
	}
	// B keeps serving without touching A (sticky preference).
	if _, err := ms.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ms.Failovers() != 1 {
		t.Errorf("failovers = %d after steady fetch", ms.Failovers())
	}
	// B dies, A recovers: failover back.
	downA, downB = false, true
	if _, err := ms.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ms.Preferred() != "mirror-a" || ms.Failovers() != 2 {
		t.Errorf("preferred=%s failovers=%d", ms.Preferred(), ms.Failovers())
	}
	// Everything down: aggregate error names both sources.
	downA = true
	_, err = ms.Fetch(context.Background())
	if err == nil || !strings.Contains(err.Error(), "mirror-a") || !strings.Contains(err.Error(), "mirror-b") {
		t.Errorf("aggregate error: %v", err)
	}
}

func TestMultiSourceValidation(t *testing.T) {
	if _, err := NewMultiSource(nil, nil); err == nil {
		t.Error("empty source list accepted")
	}
	src := SourceFunc(func(context.Context) (*Bundle, error) { return nil, nil })
	if _, err := NewMultiSource([]Source{src}, []string{"a", "b"}); err == nil {
		t.Error("mismatched labels accepted")
	}
}

func TestMultiSourceWithRefresher(t *testing.T) {
	// The failover chain slots straight into the Refresher: a resolver
	// survives its primary mirror dying mid-deployment.
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	serial := uint32(1)
	primaryUp := true
	primary := SourceFunc(func(context.Context) (*Bundle, error) {
		if !primaryUp {
			return nil, errors.New("primary down")
		}
		return MakeBundle(testZone(t, serial, ""), s)
	})
	backup := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, serial, ""), s)
	})
	ms, err := NewMultiSource([]Source{primary, backup}, []string{"primary", "backup"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRefresher(RefresherConfig{
		Source: ms, KSK: s.KSK.DNSKEY,
		Install: func(*zone.Zone) error { return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}
	primaryUp = false
	serial = 2
	clk.advance(43 * time.Hour)
	if !r.Tick(context.Background()) {
		t.Fatal("refresh via backup failed")
	}
	if r.State().Serial != 2 || ms.Preferred() != "backup" {
		t.Errorf("serial=%d preferred=%s", r.State().Serial, ms.Preferred())
	}
}
