package dnssec

import (
	"bytes"
	"encoding/base64"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rootless/internal/dnswire"
)

func TestKeyFileRoundTrip(t *testing.T) {
	s := newTestSigner(t, 77)
	var buf bytes.Buffer
	if err := WriteKey(&buf, s.KSK); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != s.KSK.Owner {
		t.Errorf("owner = %q", got.Owner)
	}
	if got.KeyTag() != s.KSK.KeyTag() {
		t.Errorf("key tag %d != %d", got.KeyTag(), s.KSK.KeyTag())
	}
	if !bytes.Equal(got.DNSKEY.PublicKey, s.KSK.DNSKEY.PublicKey) {
		t.Error("public key mismatch")
	}
	// The reloaded key signs verifiably.
	rrset := []dnswire.RR{dnswire.NewRR("com.", 172800, dnswire.NS{Host: "a.example."})}
	sig, err := SignRRset(got, rrset, testNow, testNow.Add(3600e9))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRRset(rrset, sig, []dnswire.DNSKEY{s.KSK.DNSKEY}, testNow); err != nil {
		t.Fatalf("reloaded key produced bad signature: %v", err)
	}
}

func TestReadKeyErrors(t *testing.T) {
	cases := []string{
		"",
		"Owner: .\nFlags: 257\nAlgorithm: 15\nPrivateKey: !!!\n",
		"Owner: .\nFlags: 257\nAlgorithm: 8\nPrivateKey: AAAA\n", // wrong alg
		"Owner: .\nFlags: abc\nAlgorithm: 15\nPrivateKey: AAAA\n",
		"garbage line without colon\n",
	}
	for i, src := range cases {
		if _, err := ReadKey(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: bad key accepted", i)
		}
	}
}

func TestPublicKeyFileRoundTrip(t *testing.T) {
	s := newTestSigner(t, 78)
	var buf bytes.Buffer
	if err := WritePublicKey(&buf, s.KSK); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPublicKey(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.KeyTag() != s.KSK.KeyTag() {
		t.Errorf("tag %d != %d", got.KeyTag(), s.KSK.KeyTag())
	}
	if got.Flags != s.KSK.DNSKEY.Flags || got.Algorithm != s.KSK.DNSKEY.Algorithm {
		t.Error("metadata mismatch")
	}
	// A file-level signature verifies against the reloaded public key.
	blob := []byte("zone bytes")
	sig := s.SignFile(blob)
	if err := VerifyFile(blob, sig, got); err != nil {
		t.Fatal(err)
	}
}

func TestReadPublicKeyErrors(t *testing.T) {
	for i, src := range []string{"", "no dnskey here", ". 172800 IN DNSKEY 257 3"} {
		if _, err := ReadPublicKey(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestReadPublicKeyFormats: a trust-anchor file is master-file text. A
// trailing comment and BIND's parenthesised key split over lines read as
// the key, and flags that are not a number are refused, not read up to
// the first non-digit.
func TestReadPublicKeyFormats(t *testing.T) {
	k := newTestSigner(t, 78).KSK.DNSKEY
	b64 := base64.StdEncoding.EncodeToString(k.PublicKey)
	line := ". 172800 IN DNSKEY 257 3 15 " + b64
	for _, c := range []struct {
		name, text string
		ok         bool
	}{
		{"trailing comment", line + " ; KSK; alg = ED25519\n", true},
		{"parenthesised over lines", ". 172800 IN DNSKEY 257 3 15 (\n\t\t" + b64[:20] + "\n\t\t" + b64[20:] + " ) ; KSK\n", true},
		{"flags with trailing junk", ". 172800 IN DNSKEY 257x 3 15 " + b64 + "\n", false},
		{"two keys", line + "\n" + ". 172800 IN DNSKEY 256 3 15 " + b64 + "\n", false},
	} {
		got, err := ReadPublicKey(strings.NewReader(c.text))
		switch {
		case c.ok && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.ok && !reflect.DeepEqual(got, k):
			t.Errorf("%s: read %+v, want %+v", c.name, got, k)
		case !c.ok && err == nil:
			t.Errorf("%s: accepted as %+v", c.name, got)
		}
	}
}

// FuzzReadPublicKey: a trust-anchor file comes from outside the program.
// Whatever ReadPublicKey accepts must be one key that reads back the same
// from the text WritePublicKey writes for it.
func FuzzReadPublicKey(f *testing.F) {
	key, err := GenerateKey(dnswire.Root, true, detRand{rand.New(rand.NewSource(78))})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePublicKey(&buf, key); err != nil {
		f.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(key.DNSKEY.PublicKey)
	for _, seed := range []string{
		buf.String(),
		". 172800 IN DNSKEY 257 3 15 " + b64 + " ; KSK\n",
		"example. IN DNSKEY 256 3 15 (\n " + b64[:10] + "\n " + b64[10:] + " )\n",
		". 172800 IN DNSKEY 257x 3 15 " + b64 + "\n",
		"", "no dnskey here", "$TTL 1h\n. dnskey 257 3 15 AAAA\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		k, err := ReadPublicKey(strings.NewReader(text))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WritePublicKey(&out, &Key{Owner: dnswire.Root, DNSKEY: k}); err != nil {
			t.Fatal(err)
		}
		again, err := ReadPublicKey(&out)
		if err != nil || !reflect.DeepEqual(again, k) {
			t.Fatalf("%q read as %+v, which reads back from %q as %+v, %v", text, k, out.String(), again, err)
		}
	})
}

func TestQuantizedSigningStability(t *testing.T) {
	// With Quantize set, re-signing the same zone a day later reproduces
	// most signatures byte for byte — the property the signed delta chain
	// and IXFR depend on.
	s := newTestSigner(t, 79)
	s.AddNSEC = true
	s.Quantize = 14 * 24 * 3600e9
	s.Validity = 28 * 24 * 3600e9

	z1 := buildZone(t)
	if err := s.SignZone(z1, testNow); err != nil {
		t.Fatal(err)
	}
	z2 := buildZone(t)
	if err := s.SignZone(z2, testNow.Add(24*3600e9)); err != nil {
		t.Fatal(err)
	}
	sigs1 := make(map[string]bool)
	total := 0
	for _, rr := range z1.Records() {
		if rr.Type == dnswire.TypeRRSIG {
			sigs1[rr.String()] = true
			total++
		}
	}
	same := 0
	for _, rr := range z2.Records() {
		if rr.Type == dnswire.TypeRRSIG && sigs1[rr.String()] {
			same++
		}
	}
	if total == 0 {
		t.Fatal("no signatures")
	}
	// At a 14-day quantum, one day should re-sign ~1/14 of the sets
	// (ZONEMD always changes because the zone digest includes the SOA).
	if float64(same)/float64(total) < 0.7 {
		t.Errorf("only %d/%d signatures stable across a day", same, total)
	}
	// Both versions still verify at their sign time.
	if err := VerifyZone(z2, s.TrustAnchor(), testNow.Add(24*3600e9)); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeValidityValidation(t *testing.T) {
	s := newTestSigner(t, 80)
	s.Quantize = 14 * 24 * 3600e9
	s.Validity = 7 * 24 * 3600e9 // too short
	if err := s.SignZone(buildZone(t), testNow); err == nil {
		t.Fatal("Validity < 2*Quantize accepted")
	}
}
