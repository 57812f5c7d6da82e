package authserver

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// belowRootOrigin is the apex of nonRootZone: a zone two labels down, so
// that a name in an image can be compressed against a suffix of the
// question above the apex (example.) as well as against the apex.
const belowRootOrigin = dnswire.Name("sub.example.")

// nonRootZone is a signed zone below the root shaped to make a denial
// image go wrong if it can: owners nested three deep, empty
// non-terminals one and two labels deep, a delegation with glue, an SOA
// whose MNAME lies outside the zone (it compresses against example., in
// the question) and whose RNAME lies inside it, and an NSEC at every
// authoritative name, as an ordinary zone has (the signer's root-style
// chain links only the apex and delegations). With escaped it also holds
// owners whose labels carry \000 and \., so its index has no sort keys
// and every search compares names.
func nonRootZone(tb testing.TB, escaped bool) *zone.Zone {
	tb.Helper()
	z := zone.New(belowRootOrigin)
	add := func(rr dnswire.RR) {
		if err := z.Add(rr); err != nil {
			tb.Fatal(err)
		}
	}
	addr := func(name dnswire.Name) {
		add(dnswire.NewRR(name, 300, dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}))
	}
	add(dnswire.NewRR(belowRootOrigin, 3600, dnswire.SOA{MName: "ns1.other.example.", RName: "hostmaster.sub.example.",
		Serial: 1, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300}))
	add(dnswire.NewRR(belowRootOrigin, 3600, dnswire.NS{Host: "ns1.other.example."}))
	add(dnswire.NewRR(belowRootOrigin, 3600, dnswire.NS{Host: "ns.sub.example."}))
	for _, n := range []dnswire.Name{"ns.sub.example.", "a.sub.example.", "b.a.sub.example.", "c.b.a.sub.example.",
		"x.y.sub.example.", "deep.e1.e2.sub.example.", "m.sub.example.", "mm.sub.example.", "z.sub.example."} {
		addr(n)
	}
	add(dnswire.NewRR("deleg.sub.example.", 3600, dnswire.NS{Host: "ns.deleg.sub.example."}))
	addr("ns.deleg.sub.example.")
	if escaped {
		for _, n := range []dnswire.Name{`a\000b.sub.example.`, `dot\.ted.sub.example.`, `q.dot\.ted.sub.example.`} {
			addr(n)
		}
	}

	signer, err := dnssec.NewSigner(belowRootOrigin, detRand{rand.New(rand.NewSource(22))})
	if err != nil {
		tb.Fatal(err)
	}
	now := time.Date(2019, 4, 11, 0, 0, 0, 0, time.UTC)
	if err := signer.SignZone(z, now); err != nil {
		tb.Fatal(err)
	}
	// The NSEC chain over every name that is not below a cut.
	var owners []dnswire.Name
	for _, n := range z.Names() {
		if cut := z.Query(n, dnswire.TypeA); cut.Authoritative || n == "deleg.sub.example." {
			owners = append(owners, n)
		}
	}
	for i, n := range owners {
		types := []dnswire.Type{dnswire.TypeNSEC, dnswire.TypeRRSIG}
		for _, rr := range z.LookupAll(n) {
			types = append(types, rr.Type)
		}
		nsec := dnswire.NewRR(n, 300, dnswire.NSEC{NextName: owners[(i+1)%len(owners)], Types: types})
		sig, err := dnssec.SignRRset(signer.ZSK, []dnswire.RR{nsec}, now.Add(-time.Hour), now.Add(30*24*time.Hour))
		if err != nil {
			tb.Fatal(err)
		}
		add(nsec)
		add(sig)
	}
	return z
}

// nonRootQNames are the questions asked of nonRootZone: junk that shares
// no suffix below the apex with anything (the image's case), junk below
// an NSEC owner, below the SOA's RNAME and below an owner that is the
// NSEC's next name, junk sharing suffixes with other junk, junk before
// the first name and after the last, labels sorting before the
// wildcard's "*", empty non-terminals and junk below them, a referral,
// names holding \000 and \., and a name outside the zone.
var nonRootQNames = []dnswire.Name{
	"nosuch.sub.example.", "zz.a.sub.example.", "b0.a.sub.example.", "d.b.a.sub.example.", "q.c.b.a.sub.example.",
	"w.y.sub.example.", "y.sub.example.", "e1.e2.sub.example.", "k.e1.e2.sub.example.", "e2.sub.example.",
	"hostmaster.sub.example.", "q.hostmaster.sub.example.", "x.ns.sub.example.", "ns1.sub.example.",
	"p1.j.sub.example.", "p2.j.sub.example.", "j.sub.example.", "ma.sub.example.", "mz.sub.example.",
	"zzzz.sub.example.", "0.sub.example.", "!x.sub.example.", "!.a.sub.example.", "-.sub.example.",
	"www.deleg.sub.example.", `x\000y.sub.example.`, `dot\.ted2.sub.example.`, `r.dot\.ted.sub.example.`,
	`a\000b.sub.example.`, "other.example.",
}

// TestDenialImageMatchesPackBelowRoot: the root never compresses an
// NXDOMAIN's authority section against its question, so it cannot tell
// whether ServeWire knows when a denial image does not fit a question.
// On nonRootZone, keyed and not, every question × three EDNS modes ×
// {512, 1232}, asked twice, must get from ServeWire the bytes of the
// route it replaced (UnpackShared → Handle → AppendPack, on a twin
// server) and of the parent-style build; and both the image and the
// fallback to a pack must have been taken.
func TestDenialImageMatchesPackBelowRoot(t *testing.T) {
	from := netip.MustParseAddr("192.0.2.1")
	for _, escaped := range []bool{false, true} {
		z := nonRootZone(t, escaped)
		s, twin := New(z), New(z)
		exists := existing(z)
		var images, packed int
		id := uint16(1)
		for _, name := range nonRootQNames {
			for _, size := range []uint16{512, 1232} {
				for m, q := range ednsModes(name, dnswire.TypeA, id, size) {
					if m == 0 && size != 512 {
						continue
					}
					id++
					wire, err := q.Pack()
					if err != nil {
						t.Fatal(err)
					}
					want := parentWire(t, z, exists, q)
					for pass := 0; pass < 2; pass++ {
						packs := s.Stats().WirePacks
						got := s.ServeWire(wire, from, nil)
						ref, _ := referenceServeWire(twin, wire, from)
						if !bytes.Equal(got, ref) || !bytes.Equal(got, want) {
							t.Fatalf("escaped %v: %s size %d mode %d pass %d:\n got %x\n ref %x\nwant %x",
								escaped, name, size, m, pass, got, ref, want)
						}
						if pass == 1 && got[3]&0xF == byte(dnswire.RcodeNXDomain) {
							if s.Stats().WirePacks == packs {
								images++
							} else {
								packed++
							}
						}
					}
				}
			}
		}
		if images == 0 || packed == 0 {
			t.Errorf("escaped %v: %d NXDOMAINs written from an image, %d packed; want both routes taken", escaped, images, packed)
		}
		t.Logf("escaped %v: %d NXDOMAINs written from an image, %d packed", escaped, images, packed)
	}
}
