package authserver

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) { return d.r.Read(p) }

// signedTestServer serves a signed root-like zone with an NSEC chain.
func signedTestServer(t *testing.T) (*Server, *dnssec.Signer, time.Time) {
	t.Helper()
	signer, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(31))})
	if err != nil {
		t.Fatal(err)
	}
	signer.AddNSEC = true
	now := time.Unix(1559900000, 0)
	z := zoneV(t, 2019060700, "alpha", "omega")
	// A DS at alpha. so the referral carries signed DS material.
	if err := z.Add(dnswire.NewRR("alpha.", 86400, dnswire.DS{
		KeyTag: 1, Algorithm: 15, DigestType: 2, Digest: []byte{1}})); err != nil {
		t.Fatal(err)
	}
	if err := signer.SignZone(z, now); err != nil {
		t.Fatal(err)
	}
	return New(z), signer, now
}

func doQuery(name dnswire.Name, typ dnswire.Type) *dnswire.Message {
	q := dnswire.NewQuery(5, name, typ)
	q.SetEDNS(dnswire.DefaultEDNSSize, true)
	return q
}

func TestDNSSECAnswerCarriesSignatures(t *testing.T) {
	s, signer, now := signedTestServer(t)
	resp := s.Handle(doQuery(dnswire.Root, dnswire.TypeSOA), netip.Addr{})
	var soaSet []dnswire.RR
	var sig *dnswire.RR
	for i, rr := range resp.Answers {
		if rr.Type == dnswire.TypeSOA {
			soaSet = append(soaSet, rr)
		}
		if rsig, ok := rr.Data.(dnswire.RRSIG); ok && rsig.TypeCovered == dnswire.TypeSOA {
			sig = &resp.Answers[i]
		}
	}
	if len(soaSet) != 1 || sig == nil {
		t.Fatalf("answer lacks SOA+RRSIG: %+v", resp.Answers)
	}
	// The in-band signature actually validates.
	keys := []dnswire.DNSKEY{signer.ZSK.DNSKEY}
	if err := dnssec.VerifyRRset(soaSet, *sig, keys, now); err != nil {
		t.Fatalf("served signature invalid: %v", err)
	}
	// The DO bit is echoed.
	if _, _, do := resp.EDNS(); !do {
		t.Error("DO bit not echoed")
	}
}

func TestDNSSECReferralCarriesDSSignature(t *testing.T) {
	s, _, _ := signedTestServer(t)
	resp := s.Handle(doQuery("www.example.alpha.", dnswire.TypeA), netip.Addr{})
	var hasDS, hasDSSig bool
	for _, rr := range resp.Authority {
		if rr.Type == dnswire.TypeDS {
			hasDS = true
		}
		if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == dnswire.TypeDS {
			hasDSSig = true
		}
	}
	if !hasDS || !hasDSSig {
		t.Fatalf("referral DS/RRSIG missing (DS=%v sig=%v): %+v", hasDS, hasDSSig, resp.Authority)
	}
}

// TestDNSSECNXDomainCarriesNSEC: a signed NXDOMAIN proves two things
// (RFC 4035 §3.1.3.2) — that no name sits where the query name would,
// by the NSEC covering it, and that no wildcard at its closest encloser
// (here the root) could have answered, by the NSEC covering *. — each
// with a valid signature.
func TestDNSSECNXDomainCarriesNSEC(t *testing.T) {
	s, signer, now := signedTestServer(t)
	resp := s.Handle(doQuery("zzz-nonexistent.", dnswire.TypeA), netip.Addr{})
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %v", resp.Rcode)
	}
	nsecs := map[dnswire.Name]dnswire.RR{}
	sigs := map[dnswire.Name]dnswire.RR{}
	var soaSig bool
	for _, rr := range resp.Authority {
		switch d := rr.Data.(type) {
		case dnswire.NSEC:
			nsecs[rr.Name] = rr
		case dnswire.RRSIG:
			if d.TypeCovered == dnswire.TypeNSEC {
				sigs[rr.Name] = rr
			}
			if d.TypeCovered == dnswire.TypeSOA {
				soaSig = true
			}
		}
	}
	if !soaSig {
		t.Error("negative answer SOA is unsigned")
	}
	if len(nsecs) != 2 {
		t.Fatalf("NXDOMAIN carries %d NSECs, want the name's and the wildcard's: %+v", len(nsecs), resp.Authority)
	}
	// Each proof must cover its name: owner < name < next in canonical
	// order (or wrap).
	covers := func(nsec dnswire.RR, q dnswire.Name) bool {
		next := nsec.Data.(dnswire.NSEC).NextName
		return nsec.Name.Compare(q) < 0 && (q.Compare(next) < 0 || next.Compare(nsec.Name) <= 0)
	}
	for _, q := range []dnswire.Name{"zzz-nonexistent.", "*."} {
		var proof *dnswire.RR
		for _, nsec := range nsecs {
			if covers(nsec, q) {
				proof = &nsec
			}
		}
		if proof == nil {
			t.Fatalf("no NSEC covers %s: %+v", q, resp.Authority)
		}
		sig, ok := sigs[proof.Name]
		if !ok {
			t.Fatalf("the NSEC at %s is unsigned", proof.Name)
		}
		if err := dnssec.VerifyRRset([]dnswire.RR{*proof}, sig, []dnswire.DNSKEY{signer.ZSK.DNSKEY}, now); err != nil {
			t.Fatalf("NSEC signature at %s invalid: %v", proof.Name, err)
		}
	}

	// A name the apex's own span covers is proved by that one NSEC, sent
	// once.
	resp = s.Handle(doQuery("aa.", dnswire.TypeA), netip.Addr{})
	if n := len(resp.Authority); resp.Rcode != dnswire.RcodeNXDomain || n != 4 || resp.Authority[2].Name != dnswire.Root {
		t.Fatalf("aa.: rcode %v, authority %+v; want SOA, its RRSIG, the apex NSEC and its RRSIG", resp.Rcode, resp.Authority)
	}
}

func TestDNSSECNodataCarriesNSEC(t *testing.T) {
	s, _, _ := signedTestServer(t)
	// alpha. exists (delegation) but has no TXT; the parent proves the
	// type absence via alpha.'s own NSEC.
	resp := s.Handle(doQuery("alpha.", dnswire.TypeDS), netip.Addr{})
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) == 0 {
		// alpha has a DS: this is an answer, not NODATA. Use omega (no DS).
		resp = s.Handle(doQuery("omega.", dnswire.TypeDS), netip.Addr{})
	}
	_ = resp // covered below

	resp = s.Handle(doQuery("omega.", dnswire.TypeDS), netip.Addr{})
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) != 0 {
		t.Fatalf("omega DS should be NODATA: rcode=%v answers=%d", resp.Rcode, len(resp.Answers))
	}
	found := false
	for _, rr := range resp.Authority {
		if rr.Type == dnswire.TypeNSEC && rr.Name == "omega." {
			found = true
			for _, typ := range rr.Data.(dnswire.NSEC).Types {
				if typ == dnswire.TypeDS {
					t.Error("omega NSEC claims a DS")
				}
			}
		}
	}
	if !found {
		t.Fatalf("NODATA lacks the NSEC at omega.: %+v", resp.Authority)
	}
}

func TestDNSSECWithoutDOIsClean(t *testing.T) {
	s, _, _ := signedTestServer(t)
	q := dnswire.NewQuery(5, dnswire.Root, dnswire.TypeSOA)
	q.SetEDNS(dnswire.DefaultEDNSSize, false)
	resp := s.Handle(q, netip.Addr{})
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeRRSIG || rr.Type == dnswire.TypeNSEC {
			t.Fatalf("DNSSEC record served without DO: %s", rr.Type)
		}
	}
}

func TestNSECCoveringWrapAround(t *testing.T) {
	s, _, _ := signedTestServer(t)
	z := s.Zone()
	// A name canonically after every owner wraps to the last NSEC.
	rr, ok := z.NSECCovering("zzzzzz.")
	if !ok {
		t.Fatal("no NSEC chain")
	}
	if rr.Data.(dnswire.NSEC).NextName != dnswire.Root {
		t.Errorf("wrap NSEC next = %s, want apex", rr.Data.(dnswire.NSEC).NextName)
	}
	// An unsigned zone reports no chain.
	if _, ok := zone.New(dnswire.Root).NSECCovering("x."); ok {
		t.Error("unsigned zone claimed an NSEC")
	}
}
