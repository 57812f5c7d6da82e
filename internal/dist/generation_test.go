package dist

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"strings"
	"testing"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// rootPublisher signs the 2019-04-11 root (1 532 TLDs, NSEC chain) and
// derives later generations from it the way a publisher does: clone the
// last one, change a few RRsets, re-sign those, the SOA and the digest.
type rootPublisher struct {
	tb   testing.TB
	s    *dnssec.Signer
	now  time.Time
	r    *rand.Rand
	tlds []dnswire.Name
}

func newRootPublisher(tb testing.TB, seed int64) (*rootPublisher, *zone.Zone) {
	tb.Helper()
	now := time.Date(2019, 4, 11, 0, 0, 0, 0, time.UTC)
	z, err := rootzone.Build(now)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	s, err := dnssec.NewSigner(dnswire.Root, detRand{r})
	if err != nil {
		tb.Fatal(err)
	}
	s.AddNSEC = true
	if err := s.SignZone(z, now); err != nil {
		tb.Fatal(err)
	}
	return &rootPublisher{tb: tb, s: s, now: now, r: r, tlds: z.Delegations()}, z
}

// replace swaps in rrset for what z holds under its name and type and,
// with sign, replaces the RRSIG covering it.
func (p *rootPublisher) replace(z *zone.Zone, rrset []dnswire.RR, sign bool) {
	p.tb.Helper()
	name, typ := rrset[0].Name, rrset[0].Type
	z.Remove(name, typ)
	for _, rr := range rrset {
		if err := z.Add(rr); err != nil {
			p.tb.Fatal(err)
		}
	}
	if !sign {
		return
	}
	sigs := z.Lookup(name, dnswire.TypeRRSIG)
	z.Remove(name, dnswire.TypeRRSIG)
	for _, rr := range sigs {
		if rr.Data.(dnswire.RRSIG).TypeCovered != typ {
			_ = z.Add(rr)
		}
	}
	sig, err := dnssec.SignRRset(p.s.ZSK, rrset, p.now.Add(-time.Hour), p.now.Add(p.s.Validity))
	if err != nil {
		p.tb.Fatal(err)
	}
	if err := z.Add(sig); err != nil {
		p.tb.Fatal(err)
	}
}

// rollDS gives a TLD a fresh DS digest (a key roll at the child), or a
// first DS if it had none.
func (p *rootPublisher) rollDS(z *zone.Zone, tld dnswire.Name) {
	ds := dnswire.DS{KeyTag: uint16(p.r.Intn(1 << 16)), Algorithm: 15, DigestType: 2, Digest: make([]byte, 32)}
	if old := z.Lookup(tld, dnswire.TypeDS); len(old) > 0 {
		ds = old[0].Data.(dnswire.DS)
		ds.Digest = make([]byte, len(ds.Digest))
	}
	p.r.Read(ds.Digest)
	p.replace(z, []dnswire.RR{dnswire.NewRR(tld, 86400, ds)}, true)
}

// revise returns prev's successor: the serial bumped, `changes` random
// edits of the kinds a root zone sees, and the digest record renewed.
func (p *rootPublisher) revise(prev *zone.Zone, changes int) *zone.Zone {
	p.tb.Helper()
	z := prev.Clone()
	soaRR, _ := z.SOA()
	soa := soaRR.Data.(dnswire.SOA)
	soa.Serial++
	p.replace(z, []dnswire.RR{dnswire.NewRR(z.Origin, soaRR.TTL, soa)}, true)
	for i := 0; i < changes; i++ {
		tld := p.tlds[p.r.Intn(len(p.tlds))]
		if !z.HasName(tld) {
			continue // retired by an earlier revision
		}
		switch p.r.Intn(6) {
		case 0: // a nameserver renumbered: glue, so unsigned
			ns := z.Lookup(tld, dnswire.TypeNS)
			host := ns[p.r.Intn(len(ns))].Data.(dnswire.NS).Host
			if glue := z.Lookup(host, dnswire.TypeA); len(glue) > 0 {
				addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + p.r.Intn(250))})
				p.replace(z, []dnswire.RR{dnswire.NewRR(host, glue[0].TTL, dnswire.A{Addr: addr})}, false)
			}
		case 1: // a TLD delegated: new owner names
			name := dnswire.Name(fmt.Sprintf("new%d.", p.r.Intn(1<<20)))
			host := "ns1.nic." + name
			p.replace(z, []dnswire.RR{dnswire.NewRR(name, 172800, dnswire.NS{Host: host})}, false)
			p.replace(z, []dnswire.RR{dnswire.NewRR(host, 172800, dnswire.A{Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(p.r.Intn(250))})})}, false)
			p.rollDS(z, name)
		case 2: // a TLD retired: its owner name goes, glue and all
			for _, ns := range z.Lookup(tld, dnswire.TypeNS) {
				if host := ns.Data.(dnswire.NS).Host; host.IsSubdomainOf(tld) {
					z.Remove(host, dnswire.TypeANY)
				}
			}
			z.Remove(tld, dnswire.TypeANY)
		default: // the common case: a DS roll
			p.rollDS(z, tld)
		}
	}
	p.replace(z, []dnswire.RR{dnswire.NewRR(z.Origin, 86400, dnswire.ZONEMD{
		Serial: soa.Serial,
		Scheme: dnswire.ZONEMDSchemeSimple,
		Hash:   dnswire.ZONEMDHashSHA256,
		Digest: dnssec.ZoneDigest(z),
	})}, true)
	return z
}

// TestApplyChainEqualsRebuild walks a client along a 20-link signed
// delta chain on the full root. The middle link is a ZSK roll that
// re-signs everything, and the last a plain full re-sign, which mends
// the NSEC chain the TLDs that came and went have left in pieces. The
// client starts from parsed text, as after a full bundle, and every
// later generation of its zone is Apply's clone of the one before; the
// publisher's generations are a Clone chain of their own. After every
// link the client's zone must list exactly as the publisher's, and its
// chain anchor, computed from scratch, must be the ToChain the publisher
// signed; after the two re-signs, the last being the end of the chain, it
// must also equal the publisher's zone rebuilt from text, which shares
// nothing with anything.
// At the end every generation on either side still reads as it did when
// it was made, and the last passes full verification.
func TestApplyChainEqualsRebuild(t *testing.T) {
	links := 20
	if testing.Short() {
		links = 6
	}
	p, base := newRootPublisher(t, 21)
	anchors := []dnswire.DNSKEY{p.s.KSK.DNSKEY}
	rebuild := func(z *zone.Zone) *zone.Zone {
		t.Helper()
		fresh, err := zone.Parse(strings.NewReader(zone.Text(z)), z.Origin)
		if err != nil {
			t.Fatal(err)
		}
		return fresh
	}

	published := []*zone.Zone{base}
	held := []*zone.Zone{rebuild(base)}
	chain := ChainAnchor(held[0])
	anchorsThen := [][32]byte{chain} // each generation's anchor when it was made
	for link := 1; link <= links; link++ {
		prev := published[link-1]
		next := p.revise(prev, 1+p.r.Intn(12))
		resign := link == links/2 || link == links
		if link == links/2 {
			// The ZSK rolls: a new key in the DNSKEY RRset, every RRSIG remade.
			zsk, err := dnssec.GenerateKey(dnswire.Root, false, detRand{p.r})
			if err != nil {
				t.Fatal(err)
			}
			p.s.ZSK = zsk
		}
		if resign {
			if err := p.s.SignZone(next, p.now); err != nil {
				t.Fatal(err)
			}
		}
		db, err := MakeDeltaBundle(prev, next, chain, p.s)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := db.Apply(held[link-1], chain, anchors, p.now)
		if err != nil {
			t.Fatalf("link %d (%d→%d): %v", link, db.FromSerial, db.ToSerial, err)
		}
		text := zone.Text(next)
		if zone.Text(got) != text || (resign && zone.Text(rebuild(next)) != text) {
			t.Fatalf("link %d: the applied zone differs from the published one (%d sets removed, %d records added)",
				link, st.RemovedSets, st.AddedRRs)
		}
		if ChainAnchor(got) != db.ToChain {
			t.Fatalf("link %d: the applied zone's chain anchor is not the signed ToChain", link)
		}
		published, held, anchorsThen = append(published, next), append(held, got), append(anchorsThen, db.ToChain)
		chain = db.ToChain
	}
	for i := range published {
		if ChainAnchor(published[i]) != anchorsThen[i] || ChainAnchor(held[i]) != anchorsThen[i] {
			t.Errorf("generation %d changed after it was made: a later generation's writes reached it", i)
		}
	}
	if err := dnssec.VerifyZone(held[links], p.s.TrustAnchor(), p.now); err != nil {
		t.Errorf("the zone at the end of the chain fails full verification: %v", err)
	}
}

// rootDelta is the benchmark's case: the full root and the signed delta
// to a successor with 8 TLDs changed.
func rootDelta(tb testing.TB) (*zone.Zone, *DeltaBundle, [32]byte, []dnswire.DNSKEY, time.Time) {
	tb.Helper()
	p, base := newRootPublisher(tb, 22)
	next := base.Clone()
	soaRR, _ := next.SOA()
	soa := soaRR.Data.(dnswire.SOA)
	soa.Serial++
	p.replace(next, []dnswire.RR{dnswire.NewRR(next.Origin, soaRR.TTL, soa)}, true)
	for i := 0; i < 8; i++ {
		p.rollDS(next, p.tlds[p.r.Intn(len(p.tlds))])
	}
	chain := ChainAnchor(base)
	db, err := MakeDeltaBundle(base, next, chain, p.s)
	if err != nil {
		tb.Fatal(err)
	}
	return base, db, chain, []dnswire.DNSKEY{p.s.KSK.DNSKEY}, p.now
}

// BenchmarkDeltaApplyRoot is BenchmarkDeltaApply at the size the system
// runs at: the 1 532-TLD signed root and a delta that changes 8 TLDs.
func BenchmarkDeltaApplyRoot(b *testing.B) {
	base, db, chain, anchors, now := rootDelta(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := db.Apply(base, chain, anchors, now); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeltaChainHeapBounded: a zone kept current by delta links holds about
// what it lists, however many links made it. Each link here rolls one TLD's
// DS, whose records then outlive the rest of the link's additions; what the
// parser cut those records from stays reachable through them, so it must be
// about the size of the link, not a fixed-size chunk per link.
func TestDeltaChainHeapBounded(t *testing.T) {
	const links = 24
	p, base := newRootPublisher(t, 23)
	anchors := []dnswire.DNSKEY{p.s.KSK.DNSKEY}
	first := ChainAnchor(base)
	deltas := make([]*DeltaBundle, links)
	prev, chain := base, first
	for i := range deltas {
		next := prev.Clone()
		soaRR, _ := next.SOA()
		soa := soaRR.Data.(dnswire.SOA)
		soa.Serial++
		p.replace(next, []dnswire.RR{dnswire.NewRR(next.Origin, soaRR.TTL, soa)}, true)
		p.rollDS(next, p.tlds[p.r.Intn(len(p.tlds))])
		db, err := MakeDeltaBundle(prev, next, chain, p.s)
		if err != nil {
			t.Fatal(err)
		}
		deltas[i], prev, chain = db, next, db.ToChain
	}
	held, err := zone.Parse(strings.NewReader(zone.Text(base)), base.Origin)
	if err != nil {
		t.Fatal(err)
	}
	now := p.now
	p, base, prev = nil, nil, nil

	// The first link turns the parsed zone into a generation made by Apply;
	// the heap is measured from there.
	var before uint64
	chain = first
	for i, db := range deltas {
		if held, _, err = db.Apply(held, chain, anchors, now); err != nil {
			t.Fatalf("link %d: %v", i+1, err)
		}
		chain = db.ToChain
		if i == 0 {
			before = liveHeap()
		}
	}
	grown := int64(liveHeap()) - int64(before)
	perLink := grown / (links - 1)
	t.Logf("over %d links the live heap changed by %d bytes, %d per link", links-1, grown, perLink)
	if perLink > 4<<10 {
		t.Errorf("each delta link left %d bytes behind in the held zone, want <= 4096", perLink)
	}
	runtime.KeepAlive(held)
}

// liveHeap returns the bytes the heap holds after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDeltaApplyAllocs: applying a delta allocates for what the delta
// holds and for one owner table, not for the zone's 20 K records (the
// deep-copying Apply made 118 K allocations here).
func TestDeltaApplyAllocs(t *testing.T) {
	base, db, chain, anchors, now := rootDelta(t)
	got := testing.AllocsPerRun(10, func() {
		if _, _, err := db.Apply(base, chain, anchors, now); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2000 {
		t.Errorf("Apply of an 8-TLD delta to the signed root: %v allocs, want <= 2000", got)
	}
	t.Logf("%v allocs, %d sets removed, %d bytes added", got, len(db.Removed), len(db.Added))
}
