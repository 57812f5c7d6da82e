package dist

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// signedTestZone builds and DNSSEC-signs a small root zone.
func signedTestZone(t testing.TB, s *dnssec.Signer, serial uint32, extra string, now time.Time) *zone.Zone {
	t.Helper()
	z := testZone(t, serial, extra)
	if err := s.SignZone(z, now); err != nil {
		t.Fatal(err)
	}
	return z
}

// quantizedSigner returns a signer whose re-signings keep unchanged RRset
// signatures stable — what makes consecutive-serial deltas small.
func quantizedSigner(t testing.TB) *dnssec.Signer {
	t.Helper()
	s := testSigner(t)
	s.Quantize = 24 * time.Hour
	s.Validity = 14 * 24 * time.Hour
	return s
}

// ---- signed delta chains ----

func TestDeltaBundleRoundTrip(t *testing.T) {
	s := quantizedSigner(t)
	now := time.Unix(1555000000, 0)
	z1 := signedTestZone(t, s, 1, "", now)
	z2 := signedTestZone(t, s, 2, "new. 172800 IN NS ns.new.\nns.new. 172800 IN A 192.0.2.9\n", now)

	d, err := MakeDeltaBundle(z1, z2, ChainAnchor(z1), s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDeltaBundle(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.FromSerial != 1 || got.ToSerial != 2 {
		t.Fatalf("serials %d→%d, want 1→2", got.FromSerial, got.ToSerial)
	}
	if got.FromChain != d.FromChain || got.ToChain != d.ToChain {
		t.Fatal("chain anchors did not survive the round trip")
	}
	if len(got.Removed) != len(d.Removed) || !bytes.Equal(got.Added, d.Added) {
		t.Fatal("delta contents did not survive the round trip")
	}
	if !bytes.Equal(got.Encode(), d.Encode()) {
		t.Fatal("re-encode mismatch")
	}
}

func TestDeltaApplyIncremental(t *testing.T) {
	s := quantizedSigner(t)
	now := time.Unix(1555000000, 0)
	z1 := signedTestZone(t, s, 1, "", now)
	z2 := signedTestZone(t, s, 2, "new. 172800 IN NS ns.new.\nns.new. 172800 IN A 192.0.2.9\n", now)
	anchors := []dnswire.DNSKEY{s.KSK.DNSKEY}

	d, err := MakeDeltaBundle(z1, z2, ChainAnchor(z1), s)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := d.Apply(z1, ChainAnchor(z1), anchors, now)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial() != 2 {
		t.Fatalf("applied serial %d, want 2", got.Serial())
	}
	if zone.Text(got) != zone.Text(z2) {
		t.Fatal("delta application did not reproduce the target zone")
	}
	// Incremental verification must cost O(delta), not O(zone): the full
	// zone has one RRSIG per authoritative RRset, the delta touched a
	// handful of sets.
	full := 0
	for _, rr := range z2.Records() {
		if rr.Type == dnswire.TypeRRSIG {
			full++
		}
	}
	if st.SigChecks >= full {
		t.Fatalf("incremental verify did %d sig checks, full zone has %d RRSIGs", st.SigChecks, full)
	}
	if st.SigChecks < 2 {
		t.Fatalf("suspiciously few sig checks (%d): delta + anchored DNSKEY at minimum", st.SigChecks)
	}
}

func TestDeltaApplyRejections(t *testing.T) {
	s := quantizedSigner(t)
	now := time.Unix(1555000000, 0)
	z1 := signedTestZone(t, s, 1, "", now)
	z2 := signedTestZone(t, s, 2, "", now)
	z3 := signedTestZone(t, s, 3, "", now)
	anchors := []dnswire.DNSKEY{s.KSK.DNSKEY}

	d12, err := MakeDeltaBundle(z1, z2, ChainAnchor(z1), s)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong installed serial.
	if _, _, err := d12.Apply(z3, ChainAnchor(z3), anchors, now); !errors.Is(err, ErrDeltaSerial) {
		t.Fatalf("serial mismatch: got %v, want ErrDeltaSerial", err)
	}
	// Right serial, wrong chain anchor (forked history).
	if _, _, err := d12.Apply(z1, ChainAnchor(z2), anchors, now); !errors.Is(err, ErrChainMismatch) {
		t.Fatalf("chain mismatch: got %v, want ErrChainMismatch", err)
	}
	// Tampered payload: flip the target serial after signing.
	forged := *d12
	forged.ToSerial = 9
	if _, _, err := forged.Apply(z1, ChainAnchor(z1), anchors, now); err == nil {
		t.Fatal("tampered delta applied")
	}
	// Signed by a stranger.
	evil := quantizedSigner(t)
	evil.KSK, _ = dnssec.GenerateKey(dnswire.Root, true, detRand{rand.New(rand.NewSource(99))})
	d, err := MakeDeltaBundle(z1, z2, ChainAnchor(z1), evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Apply(z1, ChainAnchor(z1), anchors, now); err == nil {
		t.Fatal("stranger-signed delta applied")
	}
}

// fakeDeltaSource wraps a Source with a scripted delta chain.
type fakeDeltaSource struct {
	Source
	chain func(ctx context.Context, from uint32) ([]*DeltaBundle, error)
}

func (f *fakeDeltaSource) FetchDeltaChain(ctx context.Context, from uint32) ([]*DeltaBundle, error) {
	return f.chain(ctx, from)
}

func TestRefresherDeltaCatchUp(t *testing.T) {
	s := quantizedSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	m := NewMirror(s, 16)
	if err := m.Publish(signedTestZone(t, s, 1, "", clk.now())); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(m)
	defer srv.Close()

	var installed []uint32
	r, err := NewRefresher(RefresherConfig{
		Source:  NewHTTPClient(srv.URL),
		KSK:     s.KSK.DNSKEY,
		Install: func(z *zone.Zone) error { installed = append(installed, z.Serial()); return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap full fetch failed")
	}
	if st := r.State(); st.DeltaInstalls != 0 || st.Serial != 1 {
		t.Fatalf("bootstrap state %+v", st)
	}

	// One serial ahead: catch up over a single delta link.
	clk.advance(43 * time.Hour)
	if err := m.Publish(signedTestZone(t, s, 2, "new. 172800 IN NS ns.new.\nns.new. 172800 IN A 192.0.2.9\n", clk.now())); err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("delta refresh failed")
	}
	st := r.State()
	if st.Serial != 2 || st.DeltaInstalls != 1 {
		t.Fatalf("after one link: serial %d deltaInstalls %d", st.Serial, st.DeltaInstalls)
	}

	// Several serials behind: walk the multi-link chain in one tick.
	clk.advance(43 * time.Hour)
	for serial := uint32(3); serial <= 5; serial++ {
		if err := m.Publish(signedTestZone(t, s, serial, "", clk.now())); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Tick(context.Background()) {
		t.Fatal("chain catch-up failed")
	}
	st = r.State()
	if st.Serial != 5 || st.DeltaInstalls != 2 || st.ChainFallbacks != 0 {
		t.Fatalf("after chain walk: %+v", st)
	}
	if full, _ := r.Sources().Source(0).(*HTTPClient).Fetches(); full != 1 {
		t.Fatalf("full fetches %d, want only the bootstrap", full)
	}
	if installed[len(installed)-1] != 5 {
		t.Fatalf("installs %v", installed)
	}
}

func TestRefresherDeltaChainBreakFallsBack(t *testing.T) {
	s := quantizedSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	now := clk.now()
	z1 := signedTestZone(t, s, 1, "", now)
	z2 := signedTestZone(t, s, 2, "", now)
	z3 := signedTestZone(t, s, 3, "", now)
	d12, err := MakeDeltaBundle(z1, z2, ChainAnchor(z1), s)
	if err != nil {
		t.Fatal(err)
	}

	current := z1
	full := SourceFunc(func(context.Context) (*Bundle, error) { return MakeBundle(current, s) })
	// A truncated chain: the mirror claims to lead to serial 3 but only
	// serves the 1→2 link, so the walk ends below the advertised serial —
	// and the 2→3 link it does serve next time is for the wrong serial.
	src := &fakeDeltaSource{Source: full, chain: func(_ context.Context, from uint32) ([]*DeltaBundle, error) {
		return []*DeltaBundle{d12, d12}, nil
	}}

	var installed []uint32
	r, err := NewRefresher(RefresherConfig{
		Source:  src,
		KSK:     s.KSK.DNSKEY,
		Install: func(z *zone.Zone) error { installed = append(installed, z.Serial()); return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}
	clk.advance(43 * time.Hour)
	current = z3
	if !r.Tick(context.Background()) {
		t.Fatal("refresh failed")
	}
	st := r.State()
	if st.Serial != 3 {
		t.Fatalf("serial %d, want 3 via full-bundle fallback", st.Serial)
	}
	if st.ChainFallbacks != 1 || st.DeltaInstalls != 0 {
		t.Fatalf("chainFallbacks %d deltaInstalls %d, want 1/0", st.ChainFallbacks, st.DeltaInstalls)
	}
}

// ---- trust-anchor lifecycle ----

func TestTrustAnchorRollover(t *testing.T) {
	oldSigner := quantizedSigner(t)
	newKSK, err := dnssec.GenerateKey(dnswire.Root, true, detRand{rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	holdDown := 48 * time.Hour
	ta := NewTrustAnchors(holdDown, oldSigner.KSK.DNSKEY)
	now := time.Unix(1555000000, 0)

	// Pre-publish phase: the incoming KSK appears in the DNSKEY RRset of a
	// zone still signed by the outgoing key.
	oldSigner.ExtraDNSKEYs = []dnswire.DNSKEY{newKSK.DNSKEY}
	ta.Observe(signedTestZone(t, oldSigner, 1, "", now), now)
	if st := ta.State(); st.Valid != 1 || st.Pending != 1 {
		t.Fatalf("after pre-publish: %+v", st)
	}
	// Still inside add-hold-down: signatures by the new key don't verify.
	blob := []byte("bundle bytes")
	newSig := dnssec.DetachedSignature{KeyTag: newKSK.KeyTag(),
		Signature: oldSigner.SignFile(blob).Signature}
	newSigner := &dnssec.Signer{KSK: newKSK, ZSK: oldSigner.ZSK,
		Validity: oldSigner.Validity, Quantize: oldSigner.Quantize}
	newSig = newSigner.SignFile(blob)
	if err := ta.VerifyDetached(blob, newSig); err == nil {
		t.Fatal("pending key verified a signature inside hold-down")
	}

	// Key stays continuously visible through the hold-down: promoted.
	mid := now.Add(holdDown / 2)
	ta.Observe(signedTestZone(t, oldSigner, 2, "", mid), mid)
	end := now.Add(holdDown)
	ta.Observe(signedTestZone(t, oldSigner, 3, "", end), end)
	if st := ta.State(); st.Valid != 2 || st.Rollovers != 1 {
		t.Fatalf("after hold-down: %+v", st)
	}
	if err := ta.VerifyDetached(blob, newSig); err != nil {
		t.Fatalf("promoted anchor rejected: %v", err)
	}

	// Revocation: the old key publishes its revoked form and proves
	// possession by signing the DNSKEY RRset with it.
	revoked := oldSigner.KSK.Revoked()
	newSigner.ExtraDNSKEYs = []dnswire.DNSKEY{revoked.DNSKEY}
	newSigner.ExtraKSKSigners = []*dnssec.Key{revoked}
	late := end.Add(time.Hour)
	ta.Observe(signedTestZone(t, newSigner, 4, "", late), late)
	st := ta.State()
	if st.Revoked != 1 || st.Valid != 1 || st.Revocations != 1 {
		t.Fatalf("after revocation: %+v", st)
	}
	oldSig := oldSigner.SignFile(blob)
	if err := ta.VerifyDetached(blob, oldSig); !errors.Is(err, ErrRevokedKey) {
		t.Fatalf("revoked key signature: got %v, want ErrRevokedKey", err)
	}
	if err := ta.VerifyDetached(blob, newSig); err != nil {
		t.Fatalf("surviving anchor rejected after revocation: %v", err)
	}
}

func TestTrustAnchorPendingRestartsOnDisappearance(t *testing.T) {
	s := quantizedSigner(t)
	candidate, err := dnssec.GenerateKey(dnswire.Root, true, detRand{rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	holdDown := 48 * time.Hour
	ta := NewTrustAnchors(holdDown, s.KSK.DNSKEY)
	now := time.Unix(1555000000, 0)

	s.ExtraDNSKEYs = []dnswire.DNSKEY{candidate.DNSKEY}
	ta.Observe(signedTestZone(t, s, 1, "", now), now)
	// The candidate vanishes (an attacker-injected key won't stay
	// published): its hold-down restarts from scratch.
	s.ExtraDNSKEYs = nil
	mid := now.Add(holdDown / 2)
	ta.Observe(signedTestZone(t, s, 2, "", mid), mid)
	s.ExtraDNSKEYs = []dnswire.DNSKEY{candidate.DNSKEY}
	end := now.Add(holdDown)
	ta.Observe(signedTestZone(t, s, 3, "", end), end)
	if st := ta.State(); st.Valid != 1 || st.Pending != 1 || st.Rollovers != 0 {
		t.Fatalf("flapping key must restart hold-down: %+v", st)
	}
}

func TestTrustAnchorRevokeNeedsPossessionProof(t *testing.T) {
	s := quantizedSigner(t)
	ta := NewTrustAnchors(time.Hour, s.KSK.DNSKEY)
	now := time.Unix(1555000000, 0)

	// The revoked form appears in the RRset but nothing is signed by it —
	// anyone can publish bytes; revocation requires the RFC 5011 proof.
	revoked := s.KSK.Revoked()
	s.ExtraDNSKEYs = []dnswire.DNSKEY{revoked.DNSKEY}
	ta.Observe(signedTestZone(t, s, 1, "", now), now)
	if st := ta.State(); st.Revoked != 0 || st.Valid != 1 {
		t.Fatalf("revocation without possession proof took effect: %+v", st)
	}
}

// ---- rollback protection ----

func TestRefresherRollbackProtection(t *testing.T) {
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	serve := uint32(5)
	var supersede bool
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		b, err := MakeBundle(testZone(t, serve, ""), s)
		if err == nil && supersede {
			b.Supersede(5, s)
		}
		return b, err
	})
	var installed []uint32
	r, err := NewRefresher(RefresherConfig{
		Source:  src,
		KSK:     s.KSK.DNSKEY,
		Install: func(z *zone.Zone) error { installed = append(installed, z.Serial()); return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}

	// A correctly signed but older bundle must not install.
	clk.advance(43 * time.Hour)
	serve = 3
	if r.Tick(context.Background()) {
		t.Fatal("rollback bundle installed")
	}
	st := r.State()
	if st.Serial != 5 || st.RollbacksRejected != 1 {
		t.Fatalf("after rollback attempt: serial %d rejected %d", st.Serial, st.RollbacksRejected)
	}
	if !errors.Is(st.LastErr, ErrRollback) {
		t.Fatalf("LastErr = %v, want ErrRollback", st.LastErr)
	}

	// The same serial with a signed supersession is an authorized
	// emergency unpublish: it installs and steps the serial backwards.
	// (4h clears the jittered retry delay of at most 3·Retry.)
	clk.advance(4 * time.Hour)
	serve, supersede = 3, true
	if !r.Tick(context.Background()) {
		t.Fatal("superseding bundle refused")
	}
	st = r.State()
	if st.Serial != 3 || st.SupersessionInstalls != 1 {
		t.Fatalf("after supersession: serial %d installs %d", st.Serial, st.SupersessionInstalls)
	}
	if installed[len(installed)-1] != 3 {
		t.Fatalf("installs %v", installed)
	}
}

func TestRollbackDoesNotResetHoldDown(t *testing.T) {
	s := quantizedSigner(t)
	ksk2, err := dnssec.GenerateKey(dnswire.Root, true, detRand{rand.New(rand.NewSource(17))})
	if err != nil {
		t.Fatal(err)
	}
	clk := &vclock{t: time.Unix(1555000000, 0)}
	oldBundle, err := MakeBundle(signedTestZone(t, s, 1, "", clk.now()), s)
	if err != nil {
		t.Fatal(err)
	}
	replayOld := false
	serve := uint32(2)
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		if replayOld {
			return oldBundle, nil
		}
		return MakeBundle(signedTestZone(t, s, serve, "", clk.now()), s)
	})
	ta := NewTrustAnchors(48*time.Hour, s.KSK.DNSKEY)
	r, err := NewRefresher(RefresherConfig{
		Source:  src,
		Trust:   ta,
		Install: func(*zone.Zone) error { return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ExtraDNSKEYs = []dnswire.DNSKEY{ksk2.DNSKEY}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}
	if st := ta.State(); st.Pending != 1 {
		t.Fatalf("incoming KSK not pending: %+v", st)
	}

	// A stale mirror replays the pre-rollover zone: rollback protection
	// rejects it, and — crucially — the replayed DNSKEY RRset (which
	// predates the incoming KSK) must not be fed to the trust store, or a
	// replay could restart the add-hold-down indefinitely and strand the
	// client when the publisher's signing switches over.
	clk.advance(43 * time.Hour)
	replayOld = true
	if r.Tick(context.Background()) {
		t.Fatal("replayed old bundle installed")
	}
	if st := ta.State(); st.Pending != 1 {
		t.Fatalf("replayed old zone restarted the add-hold-down: %+v", st)
	}

	// Past the hold-down, the next verified current zone promotes the key.
	clk.advance(6 * time.Hour)
	replayOld, serve = false, 3
	if !r.Tick(context.Background()) {
		t.Fatal("post-hold-down refresh failed")
	}
	if st := ta.State(); st.Valid != 2 || st.Rollovers != 1 {
		t.Fatalf("incoming KSK not promoted after hold-down: %+v", st)
	}
}

func TestRefresherSameSerialRefreshesWithoutReinstall(t *testing.T) {
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, 9, ""), s)
	})
	installs := 0
	r, err := NewRefresher(RefresherConfig{
		Source:  src,
		KSK:     s.KSK.DNSKEY,
		Install: func(*zone.Zone) error { installs++; return nil },
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}
	clk.advance(43 * time.Hour)
	if r.Tick(context.Background()) {
		t.Fatal("unchanged serial reinstalled")
	}
	st := r.State()
	if installs != 1 || st.Serial != 9 || st.RollbacksRejected != 0 {
		t.Fatalf("installs %d state %+v", installs, st)
	}
	// The freshness clock still reset: the copy was re-confirmed current.
	if st.Age != 0 || st.Freshness != FreshnessFresh {
		t.Fatalf("age %v freshness %v after re-confirmation", st.Age, st.Freshness)
	}
}

func TestRefresherCrossCheckDefeatsFreeze(t *testing.T) {
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	// The preferred mirror froze at serial 1 and keeps re-serving it — a
	// same-serial bundle "re-confirms" the client forever. The fallback
	// tracks the real zone.
	frozen := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, 1, ""), s)
	})
	live := uint32(1)
	healthy := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, live, ""), s)
	})
	r, err := NewRefresher(RefresherConfig{
		Source:    frozen,
		Fallbacks: []Source{healthy},
		KSK:       s.KSK.DNSKEY,
		Install:   func(*zone.Zone) error { return nil },
		Clock:     clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}
	// One refresh cycle of frozen re-confirmation: freshness stays green,
	// serial stays pinned — the freeze attack working as intended.
	clk.advance(43 * time.Hour)
	live++
	if r.Tick(context.Background()) {
		t.Fatal("frozen mirror should have re-confirmed, not installed")
	}
	if st := r.State(); st.Serial != 1 || st.Freshness != FreshnessFresh {
		t.Fatalf("freeze setup: %+v", st)
	}
	// Next cycle: the serial has been stuck past CrossCheck (2×Refresh),
	// so the refresher sweeps every source and takes the highest serial.
	clk.advance(43 * time.Hour)
	live++
	if !r.Tick(context.Background()) {
		t.Fatal("cross-check sweep did not install")
	}
	st := r.State()
	if st.Serial != live || st.CrossChecks == 0 {
		t.Fatalf("after sweep: serial %d (want %d), crossChecks %d", st.Serial, live, st.CrossChecks)
	}
}

func TestBundleSupersessionEncoding(t *testing.T) {
	s := testSigner(t)
	b, err := MakeBundle(testZone(t, 3, ""), s)
	if err != nil {
		t.Fatal(err)
	}
	b.Supersede(5, s)
	got, err := DecodeBundle(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Supersession == nil || got.Supersession.Replaces != 5 {
		t.Fatalf("supersession lost in encoding: %+v", got.Supersession)
	}
	if err := got.VerifySupersession(s.KSK.DNSKEY); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Verify(s.KSK.DNSKEY); err != nil {
		t.Fatal(err)
	}
	// Tampering with the withdrawn serial invalidates the statement.
	got.Supersession.Replaces = 6
	if err := got.VerifySupersession(s.KSK.DNSKEY); err == nil {
		t.Fatal("forged supersession verified")
	}
}

// ---- quarantine ----

func TestMultiSourceQuarantine(t *testing.T) {
	clk := &vclock{t: time.Unix(1555000000, 0)}
	srcs := make([]Source, 2)
	for i := range srcs {
		srcs[i] = SourceFunc(func(context.Context) (*Bundle, error) { return nil, errors.New("nope") })
	}
	ms, err := NewMultiSource(srcs, []string{"good", "bad"})
	if err != nil {
		t.Fatal(err)
	}
	hold := 30 * time.Minute
	ms.ConfigureQuarantine(3, hold, clk.now)

	// Three strikes put the bad source in hold-down.
	for i := 0; i < 3; i++ {
		ms.NoteBad(1)
	}
	if got := ms.Attempts(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("attempts %v, want only source 0", got)
	}
	if q := ms.Quarantined(); len(q) != 1 || q[0] != "bad" {
		t.Fatalf("quarantined %v", q)
	}
	// The hold expires and the source is probed again.
	clk.advance(hold + time.Minute)
	if got := ms.Attempts(); len(got) != 2 {
		t.Fatalf("attempts after hold expiry %v", got)
	}
	// A re-trip doubles the hold.
	for i := 0; i < 3; i++ {
		ms.NoteBad(1)
	}
	clk.advance(hold + time.Minute)
	if got := ms.Attempts(); len(got) != 1 {
		t.Fatalf("doubled hold should still be in effect: %v", got)
	}
	clk.advance(hold)
	if got := ms.Attempts(); len(got) != 2 {
		t.Fatalf("doubled hold should have expired: %v", got)
	}
	if ms.Quarantines() != 2 {
		t.Fatalf("quarantine count %d, want 2", ms.Quarantines())
	}

	// When every source is held, the soonest-expiring one is force-probed:
	// a possibly-bad mirror beats none.
	for i := 0; i < 3; i++ {
		ms.NoteBad(1)
	}
	for i := 0; i < 3; i++ {
		ms.NoteBad(0)
	}
	got := ms.Attempts()
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("all-held probe %v, want the soonest-expiring source 0", got)
	}
	// Success clears the health record entirely.
	ms.NoteGood(0)
	if got := ms.Attempts(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("attempts after recovery %v", got)
	}
}

func TestRefresherQuarantinesBogusSource(t *testing.T) {
	s := testSigner(t)
	evil := testSigner(t)
	evil.KSK, _ = dnssec.GenerateKey(dnswire.Root, true, detRand{rand.New(rand.NewSource(13))})
	clk := &vclock{t: time.Unix(1555000000, 0)}
	serial := uint32(1)
	primaryDown := true
	evilFetches := 0
	primary := SourceFunc(func(context.Context) (*Bundle, error) {
		if primaryDown {
			return nil, errors.New("primary unreachable")
		}
		return MakeBundle(testZone(t, serial, ""), s)
	})
	bogus := SourceFunc(func(context.Context) (*Bundle, error) {
		evilFetches++
		return MakeBundle(testZone(t, serial+100, ""), evil)
	})
	r, err := NewRefresher(RefresherConfig{
		Source:    primary,
		Fallbacks: []Source{bogus},
		KSK:       s.KSK.DNSKEY,
		Install:   func(*zone.Zone) error { return nil },
		Clock:     clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The primary is down and the only fallback serves mis-signed bundles:
	// every attempt strikes both sources until both trip quarantine.
	for i := 0; i < 3; i++ {
		if r.Tick(context.Background()) {
			t.Fatalf("tick %d installed a bogus bundle", i)
		}
	}
	st := r.State()
	if st.Quarantines != 2 {
		t.Fatalf("quarantines %d, want both sources held: %+v", st.Quarantines, st)
	}
	if q := r.Sources().Quarantined(); len(q) != 2 {
		t.Fatalf("quarantined %v, want both", q)
	}
	// All sources held: the refresher force-probes rather than starving —
	// and the recovered primary delivers. The bogus fallback stays held.
	primaryDown = false
	if !r.Tick(context.Background()) {
		t.Fatal("force-probe of the recovered primary failed")
	}
	st = r.State()
	if st.Serial != serial {
		t.Fatalf("serial %d, want %d", st.Serial, serial)
	}
	if q := r.Sources().Quarantined(); len(q) != 1 || q[0] != "fallback1" {
		t.Fatalf("quarantined %v, want only the bogus fallback", q)
	}
	// Subsequent refreshes prefer the healthy primary; the bogus source is
	// never consulted again even after its hold expires.
	fetchesDuringOutage := evilFetches
	for i := 0; i < 3; i++ {
		clk.advance(43 * time.Hour)
		serial++
		if !r.Tick(context.Background()) {
			t.Fatalf("steady-state tick %d failed", i)
		}
	}
	if evilFetches != fetchesDuringOutage {
		t.Fatalf("bogus source consulted again: %d fetches, had %d", evilFetches, fetchesDuringOutage)
	}
}

// ---- staged staleness ----

func TestFreshnessStages(t *testing.T) {
	refresh, expiry, stale := 42*time.Hour, 48*time.Hour, 6*time.Hour
	cases := []struct {
		age  time.Duration
		want Freshness
	}{
		{0, FreshnessFresh},
		{refresh, FreshnessFresh},
		{refresh + time.Second, FreshnessAging},
		{expiry, FreshnessAging},
		{expiry + time.Second, FreshnessStaleServe},
		{expiry + stale, FreshnessStaleServe},
		{expiry + stale + time.Second, FreshnessExpired},
	}
	for _, tc := range cases {
		if got := FreshnessOf(tc.age, refresh, expiry, stale); got != tc.want {
			t.Errorf("FreshnessOf(%v) = %v, want %v", tc.age, got, tc.want)
		}
	}
	// With no stale-serve window, expiry is final.
	if got := FreshnessOf(expiry+time.Second, refresh, expiry, 0); got != FreshnessExpired {
		t.Errorf("zero StaleFor: got %v, want expired", got)
	}
}

func TestRefresherFreshnessTransitions(t *testing.T) {
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	failing := false
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		if failing {
			return nil, errors.New("unreachable")
		}
		return MakeBundle(testZone(t, 1, ""), s)
	})
	r, err := NewRefresher(RefresherConfig{
		Source:   src,
		KSK:      s.KSK.DNSKEY,
		Install:  func(*zone.Zone) error { return nil },
		StaleFor: 6 * time.Hour,
		Clock:    clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.State(); st.Freshness != FreshnessNone || st.Age != 0 {
		t.Fatalf("pre-bootstrap state %+v", st)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}
	failing = true

	steps := []struct {
		advance time.Duration
		want    Freshness
	}{
		{0, FreshnessFresh},
		{42*time.Hour + time.Minute, FreshnessAging},
		{6 * time.Hour, FreshnessStaleServe},
		{6 * time.Hour, FreshnessExpired},
	}
	for _, step := range steps {
		clk.advance(step.advance)
		if st := r.State(); st.Freshness != step.want {
			t.Fatalf("at age %v: freshness %v, want %v", st.Age, st.Freshness, step.want)
		}
	}
	// Even expired, the refresher keeps retrying and recovers.
	failing = false
	r.Tick(context.Background())
	if st := r.State(); st.Freshness != FreshnessFresh {
		t.Fatalf("post-recovery freshness %v", st.Freshness)
	}
}

// ---- retry scheduling edges (Refresher.fail) ----

func TestRefresherRetryNeverPastExpiry(t *testing.T) {
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, 1, ""), s)
	})
	r, err := NewRefresher(RefresherConfig{
		Source:  src,
		KSK:     s.KSK.DNSKEY,
		Install: func(*zone.Zone) error { return nil },
		Retry:   4 * time.Hour, // base retry larger than the time left
		Clock:   clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tick(context.Background()) {
		t.Fatal("bootstrap failed")
	}
	obtained := clk.now()
	expiry := obtained.Add(48 * time.Hour)

	// Fail 1 hour before expiry: every jitter draw is ≥ the 4h base, so
	// the clamp must pull the retry back to exactly the expiry moment.
	clk.advance(47 * time.Hour)
	r.fail(clk.now(), errors.New("down"))
	r.mu.Lock()
	next := r.nextTry
	r.mu.Unlock()
	if !next.Equal(expiry) {
		t.Fatalf("retry at %v, want clamped to expiry %v", next, expiry)
	}
	// Once past expiry there is nothing left to protect: the clamp no
	// longer applies and normal backoff resumes.
	clk.advance(2 * time.Hour)
	r.fail(clk.now(), errors.New("still down"))
	r.mu.Lock()
	next = r.nextTry
	r.mu.Unlock()
	if !next.After(expiry) {
		t.Fatalf("post-expiry retry %v not after expiry %v", next, expiry)
	}
}

func TestRefresherRetryJitterBounds(t *testing.T) {
	s := testSigner(t)
	clk := &vclock{t: time.Unix(1555000000, 0)}
	src := SourceFunc(func(context.Context) (*Bundle, error) {
		return MakeBundle(testZone(t, 1, ""), s)
	})
	retry, cap := time.Hour, 10*time.Hour
	r, err := NewRefresher(RefresherConfig{
		Source:   src,
		KSK:      s.KSK.DNSKEY,
		Install:  func(*zone.Zone) error { return nil },
		Retry:    retry,
		RetryCap: cap,
		Seed:     42,
		Clock:    clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No zone installed: the expiry clamp is out of the picture and the
	// pure decorrelated-jitter invariant holds: Retry ≤ d ≤ min(RetryCap,
	// 3·previous).
	prev := time.Duration(0)
	sawCap := false
	for i := 0; i < 200; i++ {
		r.fail(clk.now(), errors.New("down"))
		d := r.State().RetryDelay
		if d < retry {
			t.Fatalf("draw %d: delay %v below Retry %v", i, d, retry)
		}
		if d > cap {
			t.Fatalf("draw %d: delay %v above RetryCap %v", i, d, cap)
		}
		if hi := 3 * maxDur(prev, retry); d > minDur(hi, cap) {
			t.Fatalf("draw %d: delay %v above 3·prev bound %v", i, d, minDur(hi, cap))
		}
		if d == cap {
			sawCap = true
		}
		prev = d
		clk.advance(d)
	}
	// With 200 draws the backoff must have saturated the cap at least once.
	if !sawCap {
		t.Fatal("backoff never reached RetryCap")
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// ---- fuzz & benchmarks ----

func FuzzDecodeDeltaBundle(f *testing.F) {
	s, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(5))})
	if err != nil {
		f.Fatal(err)
	}
	z1, err := zone.Parse(bytes.NewReader([]byte(
		". 86400 IN SOA a. b. 1 1800 900 604800 86400\n. 518400 IN NS a.root-servers.net.\n")), dnswire.Root)
	if err != nil {
		f.Fatal(err)
	}
	z2, err := zone.Parse(bytes.NewReader([]byte(
		". 86400 IN SOA a. b. 2 1800 900 604800 86400\n. 518400 IN NS a.root-servers.net.\nxyz. 172800 IN NS ns.xyz.\n")), dnswire.Root)
	if err != nil {
		f.Fatal(err)
	}
	d, err := MakeDeltaBundle(z1, z2, ChainAnchor(z1), s)
	if err != nil {
		f.Fatal(err)
	}
	valid := d.Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{0x52, 0x54, 0x4C, 0x44, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("not a delta"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDeltaBundle(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode to something that decodes to the
		// same delta — no hidden state, no panics.
		d2, err := DecodeDeltaBundle(d.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(d2.Encode(), d.Encode()) {
			t.Fatal("re-encode not stable")
		}
	})
}

// FuzzDeltaApply mutates an encoded one-link chain over a small signed
// zone and applies whatever decodes. Apply must never panic, and a link it
// accepts must land exactly on the publisher's zone: the signature covers
// the whole payload, so no accepted mutation may change what the link does.
func FuzzDeltaApply(f *testing.F) {
	s := quantizedSigner(f)
	now := time.Unix(1555000000, 0)
	z1 := signedTestZone(f, s, 1, "", now)
	z2 := signedTestZone(f, s, 2, "new. 172800 IN NS ns.new.\nns.new. 172800 IN A 192.0.2.9\n", now)
	from := ChainAnchor(z1)
	d, err := MakeDeltaBundle(z1, z2, from, s)
	if err != nil {
		f.Fatal(err)
	}
	anchors := []dnswire.DNSKEY{s.KSK.DNSKEY}
	want := zone.Text(z2)
	if got, _, err := d.Apply(z1, from, anchors, now); err != nil || zone.Text(got) != want {
		f.Fatalf("the unmutated link does not land on the publisher's zone: %v", err)
	}
	valid := encodeDeltaChain([][]byte{d.Encode()})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(encodeDeltaChain(nil))
	tampered := bytes.Clone(valid)
	tampered[len(tampered)-2] ^= 1
	f.Add(tampered)
	f.Fuzz(func(t *testing.T, data []byte) {
		chain, err := decodeDeltaChain(data)
		if err != nil || len(chain) != 1 {
			return
		}
		got, _, err := chain[0].Apply(z1, from, anchors, now)
		if err != nil {
			return
		}
		if ChainAnchor(got) != chain[0].ToChain {
			t.Fatal("accepted link: the applied zone's chain anchor is not the signed ToChain")
		}
		if zone.Text(got) != want {
			t.Fatal("accepted link: the applied zone's records differ from the publisher's zone")
		}
	})
}

// benchZonePair builds two consecutively signed ~n-TLD zones differing in
// a handful of RRsets — the shape of one day's real root-zone churn.
func benchZonePair(b *testing.B, n int) (*zone.Zone, *zone.Zone, *dnssec.Signer, time.Time) {
	b.Helper()
	s, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(5))})
	if err != nil {
		b.Fatal(err)
	}
	s.Quantize = 24 * time.Hour
	s.Validity = 14 * 24 * time.Hour
	now := time.Unix(1555000000, 0)
	build := func(serial uint32, extra string) *zone.Zone {
		var sb bytes.Buffer
		sb.WriteString(". 86400 IN SOA a.root-servers.net. nstld.verisign-grs.com. ")
		sb.WriteString(uitoa(serial))
		sb.WriteString(" 1800 900 604800 86400\n. 518400 IN NS a.root-servers.net.\na.root-servers.net. 518400 IN A 198.41.0.4\n")
		for i := 0; i < n; i++ {
			tld := "tld" + uitoa(uint32(i))
			sb.WriteString(tld + ". 172800 IN NS ns." + tld + ".\n")
			sb.WriteString("ns." + tld + ". 172800 IN A 192.0.2." + uitoa(uint32(i%250+1)) + "\n")
		}
		sb.WriteString(extra)
		z, err := zone.Parse(bytes.NewReader(sb.Bytes()), dnswire.Root)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SignZone(z, now); err != nil {
			b.Fatal(err)
		}
		return z
	}
	z1 := build(1, "")
	z2 := build(2, "fresh. 172800 IN NS ns.fresh.\nns.fresh. 172800 IN A 192.0.2.251\n")
	return z1, z2, s, now
}

func BenchmarkDeltaApply(b *testing.B) {
	z1, z2, s, now := benchZonePair(b, 200)
	d, err := MakeDeltaBundle(z1, z2, ChainAnchor(z1), s)
	if err != nil {
		b.Fatal(err)
	}
	anchors := []dnswire.DNSKEY{s.KSK.DNSKEY}
	chain := ChainAnchor(z1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Apply(z1, chain, anchors, now); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullBundleVerify(b *testing.B) {
	_, z2, s, now := benchZonePair(b, 200)
	bundle, err := MakeBundle(z2, s)
	if err != nil {
		b.Fatal(err)
	}
	anchor := s.TrustAnchor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bundle.VerifyFull(anchor, now); err != nil {
			b.Fatal(err)
		}
	}
}
