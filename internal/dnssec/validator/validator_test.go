package validator

import (
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

var testNow = time.Unix(1555000000, 0) // fixed clock: 2019-04-11-ish

type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) { return d.r.Read(p) }

// world is a signed root zone plus a signed com. child, the minimal tree
// that exercises every chain transition: anchor → root keys → secure cut
// (com. has a DS) → child keys, and an insecure cut (org. has none).
type world struct {
	root      *zone.Zone
	com       *zone.Zone
	rootSig   *dnssec.Signer
	comSig    *dnssec.Signer
	validator *Validator
}

func newWorld(t *testing.T) *world {
	t.Helper()
	rnd := detRand{rand.New(rand.NewSource(7))}
	rootSig, err := dnssec.NewSigner(dnswire.Root, rnd)
	if err != nil {
		t.Fatal(err)
	}
	rootSig.AddNSEC = true
	comSig, err := dnssec.NewSigner("com.", rnd)
	if err != nil {
		t.Fatal(err)
	}
	comSig.AddNSEC = true

	rootSrc := `
$ORIGIN .
. 86400 IN SOA a.root-servers.net. nstld.verisign-grs.com. 2019041100 1800 900 604800 86400
. 518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 198.41.0.4
com. 172800 IN NS a.gtld-servers.net.
a.gtld-servers.net. 172800 IN A 192.5.6.30
org. 172800 IN NS a0.org.afilias-nst.info.
a0.org.afilias-nst.info. 172800 IN A 199.19.56.1
`
	root, err := zone.Parse(strings.NewReader(rootSrc), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	// Publish the child KSK's DS at the cut, then sign.
	if err := root.Add(comSig.KSK.DS(86400)); err != nil {
		t.Fatal(err)
	}
	if err := rootSig.SignZone(root, testNow); err != nil {
		t.Fatal(err)
	}

	comSrc := `
$ORIGIN com.
com. 86400 IN SOA a.gtld-servers.net. nstld.verisign-grs.com. 2019041100 1800 900 604800 86400
com. 172800 IN NS a.gtld-servers.net.
example.com. 86400 IN A 93.184.216.34
`
	com, err := zone.Parse(strings.NewReader(comSrc), "com.")
	if err != nil {
		t.Fatal(err)
	}
	if err := comSig.SignZone(com, testNow); err != nil {
		t.Fatal(err)
	}

	v := New(Config{
		Anchor:     rootSig.TrustAnchor(),
		AnchorZone: dnswire.Root,
		Now:        func() time.Time { return testNow },
	})
	return &world{root: root, com: com, rootSig: rootSig, comSig: comSig, validator: v}
}

// keyResponse returns a zone's DNSKEY RRset plus its RRSIG, as an
// authserver would answer a DNSKEY query.
func keyResponse(z *zone.Zone) []dnswire.RR {
	rrs := z.Lookup(z.Origin, dnswire.TypeDNSKEY)
	return append(rrs, sigsFor(z, z.Origin, dnswire.TypeDNSKEY)...)
}

// sigsFor extracts the RRSIGs at name covering the given type.
func sigsFor(z *zone.Zone, name dnswire.Name, covered dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range z.Lookup(name, dnswire.TypeRRSIG) {
		if rr.Data.(dnswire.RRSIG).TypeCovered == covered {
			out = append(out, rr)
		}
	}
	return out
}

// establishRootKeys chains the root DNSKEY set to the anchor.
func (w *world) establishRootKeys(t *testing.T) {
	t.Helper()
	if err := w.validator.ValidateKeys(dnswire.Root, keyResponse(w.root)); err != nil {
		t.Fatalf("ValidateKeys(root): %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		err  bool
	}{
		{"off", PolicyOff, false},
		{"", PolicyOff, false},
		{"permissive", PolicyPermissive, false},
		{"STRICT", PolicyStrict, false},
		{"paranoid", PolicyOff, true},
	}
	for _, tc := range cases {
		got, err := ParsePolicy(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
	if PolicyStrict.String() != "strict" || PolicyOff.String() != "off" || PolicyPermissive.String() != "permissive" {
		t.Error("Policy.String round trip broken")
	}
}

func TestValidateKeys(t *testing.T) {
	w := newWorld(t)
	w.establishRootKeys(t)
	if !w.validator.HasKeys(dnswire.Root) {
		t.Fatal("root keys not cached after ValidateKeys")
	}

	t.Run("no keys in response", func(t *testing.T) {
		v := New(Config{Anchor: w.rootSig.TrustAnchor(), Now: func() time.Time { return testNow }})
		err := v.ValidateKeys(dnswire.Root, nil)
		if !errors.Is(err, ErrBogus) {
			t.Errorf("empty response: got %v, want ErrBogus", err)
		}
	})
	t.Run("unsigned keyset", func(t *testing.T) {
		v := New(Config{Anchor: w.rootSig.TrustAnchor(), Now: func() time.Time { return testNow }})
		err := v.ValidateKeys(dnswire.Root, w.root.Lookup(dnswire.Root, dnswire.TypeDNSKEY))
		if !errors.Is(err, ErrBogus) {
			t.Errorf("unsigned keyset: got %v, want ErrBogus", err)
		}
	})
	t.Run("anchor mismatch", func(t *testing.T) {
		other, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(99))})
		if err != nil {
			t.Fatal(err)
		}
		v := New(Config{Anchor: other.TrustAnchor(), Now: func() time.Time { return testNow }})
		if err := v.ValidateKeys(dnswire.Root, keyResponse(w.root)); !errors.Is(err, ErrBogus) {
			t.Errorf("anchor mismatch: got %v, want ErrBogus", err)
		}
	})
	t.Run("tampered signature", func(t *testing.T) {
		v := New(Config{Anchor: w.rootSig.TrustAnchor(), Now: func() time.Time { return testNow }})
		rrs := append([]dnswire.RR(nil), keyResponse(w.root)...)
		for i, rr := range rrs {
			if sig, ok := rr.Data.(dnswire.RRSIG); ok {
				sig.Signature = append([]byte(nil), sig.Signature...)
				sig.Signature[0] ^= 0xFF
				rrs[i].Data = sig
			}
		}
		if err := v.ValidateKeys(dnswire.Root, rrs); !errors.Is(err, ErrBogus) {
			t.Errorf("tampered sig: got %v, want ErrBogus", err)
		}
	})
}

func TestValidatePositiveAnswer(t *testing.T) {
	w := newWorld(t)
	w.establishRootKeys(t)
	name := dnswire.Name("a.root-servers.net.")
	resp := &dnswire.Message{
		Response: true,
		Answers:  append(w.root.Lookup(name, dnswire.TypeA), sigsFor(w.root, name, dnswire.TypeA)...),
	}
	res := w.validator.Validate(dnswire.Root, name, dnswire.TypeA, resp)
	if res.Outcome != Secure {
		t.Fatalf("signed answer: outcome %v (%v), want Secure", res.Outcome, res.Err)
	}

	// Strip the signature: an unsigned answer from a secure zone is bogus.
	unsigned := &dnswire.Message{Response: true, Answers: w.root.Lookup(name, dnswire.TypeA)}
	res = w.validator.Validate(dnswire.Root, name, dnswire.TypeA, unsigned)
	if res.Outcome != Bogus || !errors.Is(res.Err, ErrBogus) {
		t.Fatalf("unsigned answer: outcome %v, want Bogus wrapping ErrBogus", res.Outcome)
	}

	// Forge the rdata under the real signature.
	forged := &dnswire.Message{
		Response: true,
		Answers: append([]dnswire.RR{
			dnswire.NewRR(name, 518400, dnswire.A{Addr: mustAddr("192.0.2.66")}),
		}, sigsFor(w.root, name, dnswire.TypeA)...),
	}
	res = w.validator.Validate(dnswire.Root, name, dnswire.TypeA, forged)
	if res.Outcome != Bogus {
		t.Fatalf("forged answer: outcome %v, want Bogus", res.Outcome)
	}
}

func TestValidateNXDomain(t *testing.T) {
	w := newWorld(t)
	w.establishRootKeys(t)
	nsecAt := func(owner dnswire.Name) []dnswire.RR {
		return append(w.root.Lookup(owner, dnswire.TypeNSEC), sigsFor(w.root, owner, dnswire.TypeNSEC)...)
	}
	// org. holds the chain's last link (next wraps to the apex), so it
	// covers everything canonically after org.; the apex's own link
	// covers *., the wildcard at zz.'s closest encloser.
	denial := append(nsecAt("org."), nsecAt(dnswire.Root)...)
	resp := &dnswire.Message{Response: true, Rcode: dnswire.RcodeNXDomain, Authority: denial}
	res := w.validator.Validate(dnswire.Root, "zz.", dnswire.TypeA, resp)
	if res.Outcome != Secure {
		t.Fatalf("proven NXDOMAIN: outcome %v (%v), want Secure", res.Outcome, res.Err)
	}
	if len(res.NSECs) != 2 || res.NSECs[0].Zone != dnswire.Root {
		t.Fatalf("validated NSECs = %+v, want the org. and apex ranges attributed to the root", res.NSECs)
	}

	// The name's own NSEC alone: a wildcard at the root could still have
	// answered for it (RFC 4035 §3.1.3.2).
	half := &dnswire.Message{Response: true, Rcode: dnswire.RcodeNXDomain, Authority: nsecAt("org.")}
	if res := w.validator.Validate(dnswire.Root, "zz.", dnswire.TypeA, half); res.Outcome != Bogus {
		t.Fatalf("NXDOMAIN without the wildcard proof: outcome %v, want Bogus", res.Outcome)
	}

	// A name inside the apex's span: one NSEC covers it and *. both.
	one := &dnswire.Message{Response: true, Rcode: dnswire.RcodeNXDomain, Authority: nsecAt(dnswire.Root)}
	if res := w.validator.Validate(dnswire.Root, "b.", dnswire.TypeA, one); res.Outcome != Secure {
		t.Fatalf("NXDOMAIN proved by one NSEC: outcome %v (%v), want Secure", res.Outcome, res.Err)
	}

	// NXDOMAIN with no proof at all.
	bare := &dnswire.Message{Response: true, Rcode: dnswire.RcodeNXDomain}
	if res := w.validator.Validate(dnswire.Root, "zz.", dnswire.TypeA, bare); res.Outcome != Bogus {
		t.Fatalf("bare NXDOMAIN: outcome %v, want Bogus", res.Outcome)
	}

	// NXDOMAIN whose NSEC does not cover the denied name (com. -> org.
	// range cannot deny aa.).
	miss := &dnswire.Message{Response: true, Rcode: dnswire.RcodeNXDomain, Authority: nsecAt("com.")}
	if res := w.validator.Validate(dnswire.Root, "aa.", dnswire.TypeA, miss); res.Outcome != Bogus {
		t.Fatalf("non-covering NSEC: outcome %v, want Bogus", res.Outcome)
	}
}

func TestValidateReferralSecureCut(t *testing.T) {
	w := newWorld(t)
	w.establishRootKeys(t)
	authority := w.root.Lookup("com.", dnswire.TypeNS)
	authority = append(authority, w.root.Lookup("com.", dnswire.TypeDS)...)
	authority = append(authority, sigsFor(w.root, "com.", dnswire.TypeDS)...)
	resp := &dnswire.Message{Response: true, Authority: authority}

	res := w.validator.Validate(dnswire.Root, "example.com.", dnswire.TypeA, resp)
	if res.Outcome != Secure {
		t.Fatalf("signed referral: outcome %v (%v), want Secure", res.Outcome, res.Err)
	}
	if got := w.validator.ZoneStatus("com."); got != ChainSecure {
		t.Fatalf("ZoneStatus(com.) after DS referral = %v, want ChainSecure", got)
	}

	// The recorded DS must chain the child's own DNSKEY set.
	if err := w.validator.ValidateKeys("com.", keyResponse(w.com)); err != nil {
		t.Fatalf("chaining child keys: %v", err)
	}
	name := dnswire.Name("example.com.")
	ans := &dnswire.Message{
		Response: true,
		Answers:  append(w.com.Lookup(name, dnswire.TypeA), sigsFor(w.com, name, dnswire.TypeA)...),
	}
	if res := w.validator.Validate("com.", name, dnswire.TypeA, ans); res.Outcome != Secure {
		t.Fatalf("child answer after full chain walk: outcome %v (%v), want Secure", res.Outcome, res.Err)
	}
}

func TestValidateReferralInsecureCut(t *testing.T) {
	w := newWorld(t)
	w.establishRootKeys(t)
	// org. has no DS; the NSEC at org. (bitmap without DS) proves it.
	authority := w.root.Lookup("org.", dnswire.TypeNS)
	authority = append(authority, w.root.Lookup("org.", dnswire.TypeNSEC)...)
	authority = append(authority, sigsFor(w.root, "org.", dnswire.TypeNSEC)...)
	resp := &dnswire.Message{Response: true, Authority: authority}

	res := w.validator.Validate(dnswire.Root, "x.org.", dnswire.TypeA, resp)
	if res.Outcome != Secure {
		t.Fatalf("insecure-delegation referral: outcome %v (%v), want Secure", res.Outcome, res.Err)
	}
	if got := w.validator.ZoneStatus("org."); got != ChainInsecure {
		t.Fatalf("ZoneStatus(org.) = %v, want ChainInsecure", got)
	}
	// Data below an insecure cut is Insecure, not Bogus — even unsigned.
	below := &dnswire.Message{
		Response: true,
		Answers:  []dnswire.RR{dnswire.NewRR("x.org.", 300, dnswire.A{Addr: mustAddr("203.0.113.5")})},
	}
	if res := w.validator.Validate("org.", "x.org.", dnswire.TypeA, below); res.Outcome != Insecure {
		t.Fatalf("unsigned answer below insecure cut: outcome %v, want Insecure", res.Outcome)
	}
}

func TestValidateReferralDowngrades(t *testing.T) {
	w := newWorld(t)
	w.establishRootKeys(t)

	// Stripped referral: neither DS nor NSEC. A downgrade attempt.
	bare := &dnswire.Message{Response: true, Authority: w.root.Lookup("com.", dnswire.TypeNS)}
	if res := w.validator.Validate(dnswire.Root, "example.com.", dnswire.TypeA, bare); res.Outcome != Bogus {
		t.Fatalf("stripped referral: outcome %v, want Bogus", res.Outcome)
	}
	if got := w.validator.ZoneStatus("com."); got != ChainUnknown {
		t.Fatalf("ZoneStatus(com.) after bogus referral = %v, want ChainUnknown", got)
	}

	// DS stripped but the NSEC proves a DS exists: equally bogus.
	authority := w.root.Lookup("com.", dnswire.TypeNS)
	authority = append(authority, w.root.Lookup("com.", dnswire.TypeNSEC)...)
	authority = append(authority, sigsFor(w.root, "com.", dnswire.TypeNSEC)...)
	lying := &dnswire.Message{Response: true, Authority: authority}
	if res := w.validator.Validate(dnswire.Root, "example.com.", dnswire.TypeA, lying); res.Outcome != Bogus {
		t.Fatalf("DS-stripped referral with DS-bit NSEC: outcome %v, want Bogus", res.Outcome)
	}
}

func TestValidateNODATA(t *testing.T) {
	w := newWorld(t)
	w.establishRootKeys(t)
	denial := append(w.root.Lookup(dnswire.Root, dnswire.TypeNSEC), sigsFor(w.root, dnswire.Root, dnswire.TypeNSEC)...)

	// TXT is not in the apex bitmap: proven NODATA.
	resp := &dnswire.Message{Response: true, Authority: denial}
	if res := w.validator.Validate(dnswire.Root, dnswire.Root, dnswire.TypeTXT, resp); res.Outcome != Secure {
		t.Fatalf("proven NODATA: outcome %v (%v), want Secure", res.Outcome, res.Err)
	}
	// SOA is in the bitmap: a NODATA claim for it contradicts the proof.
	if res := w.validator.Validate(dnswire.Root, dnswire.Root, dnswire.TypeSOA, resp); res.Outcome != Bogus {
		t.Fatalf("contradicted NODATA: outcome %v, want Bogus", res.Outcome)
	}
	// No proof at all.
	empty := &dnswire.Message{Response: true}
	if res := w.validator.Validate(dnswire.Root, dnswire.Root, dnswire.TypeTXT, empty); res.Outcome != Bogus {
		t.Fatalf("bare NODATA: outcome %v, want Bogus", res.Outcome)
	}
}

func TestValidateIndeterminateAndMissingKeys(t *testing.T) {
	w := newWorld(t)
	// No cut recorded for com. yet: its chain state is unknown.
	res := w.validator.Validate("com.", "example.com.", dnswire.TypeA, &dnswire.Message{Response: true})
	if res.Outcome != Indeterminate {
		t.Fatalf("unknown chain: outcome %v, want Indeterminate", res.Outcome)
	}
	// The root is secure by the anchor, but its keys were never chained.
	res = w.validator.Validate(dnswire.Root, "com.", dnswire.TypeA, &dnswire.Message{Response: true})
	if res.Outcome != Bogus {
		t.Fatalf("secure zone without keys: outcome %v, want Bogus", res.Outcome)
	}
}

func TestNSECCovers(t *testing.T) {
	cases := []struct {
		owner, next, name dnswire.Name
		want              bool
	}{
		{"com.", "org.", "example.", true},
		{"com.", "org.", "com.", false},  // owner itself is not covered
		{"com.", "org.", "org.", false},  // next is not covered
		{"com.", "org.", "zz.", false},   // past the range
		{"org.", ".", "zz.", true},       // wraparound link covers the tail
		{"org.", ".", "aa.", false},      // before the owner
		{"org.", "org.", "zzz.", true},   // single-name chain wraps to itself
	}
	for _, tc := range cases {
		if got := nsecCovers(tc.owner, tc.next, tc.name); got != tc.want {
			t.Errorf("nsecCovers(%s, %s, %s) = %v, want %v", tc.owner, tc.next, tc.name, got, tc.want)
		}
	}
}

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// validateFixture is BenchmarkValidate's query: a signed A RRset at the
// root, with the root keys already validated.
func validateFixture(t *testing.T) (*Validator, dnswire.Name, *dnswire.Message) {
	w := newWorld(t)
	if err := w.validator.ValidateKeys(dnswire.Root, keyResponse(w.root)); err != nil {
		t.Fatal(err)
	}
	name := dnswire.Name("a.root-servers.net.")
	resp := &dnswire.Message{
		Response: true,
		Answers:  append(w.root.Lookup(name, dnswire.TypeA), sigsFor(w.root, name, dnswire.TypeA)...),
	}
	return w.validator, name, resp
}

func BenchmarkValidate(b *testing.B) {
	v, name, resp := validateFixture(&testing.T{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := v.Validate(dnswire.Root, name, dnswire.TypeA, resp); res.Outcome != Secure {
			b.Fatalf("outcome %v: %v", res.Outcome, res.Err)
		}
	}
}

// TestValidateAllocs pins what one validation of BenchmarkValidate's
// fixture allocates.
func TestValidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	v, name, resp := validateFixture(t)
	got := testing.AllocsPerRun(200, func() {
		if res := v.Validate(dnswire.Root, name, dnswire.TypeA, resp); res.Outcome != Secure {
			t.Fatalf("outcome %v: %v", res.Outcome, res.Err)
		}
	})
	if got > 24 {
		t.Errorf("Validate: %v allocs/op, want <= 24", got)
	}
}
