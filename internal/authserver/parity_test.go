package authserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// signedRoot is the zone the benchmark serves: the 2019-04-11 root,
// signed, NSEC chain over the apex and every delegation. Shared and
// never mutated.
var signedRoot = sync.OnceValues(func() (*zone.Zone, error) {
	at := time.Date(2019, 4, 11, 0, 0, 0, 0, time.UTC)
	z, err := rootzone.Build(at)
	if err != nil {
		return nil, err
	}
	signer, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(1))})
	if err != nil {
		return nil, err
	}
	signer.AddNSEC = true
	return z, signer.SignZone(z, at)
})

func signedRootZone(tb testing.TB) *zone.Zone {
	tb.Helper()
	z, err := signedRoot()
	if err != nil {
		tb.Fatal(err)
	}
	return z
}

// junkQName is the i-th name of the benchmark's junk stream: seven in
// ten two-label names under an invented TLD, the rest single-label
// probes. None exists in the root zone.
func junkQName(r *rand.Rand, i int) dnswire.Name {
	letters := func(n int) string {
		b := make([]byte, n)
		for k := range b {
			b[k] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	if i%10 < 7 {
		return dnswire.Name(fmt.Sprintf("q%d.%sqx.", i, letters(5+r.Intn(6))))
	}
	return dnswire.Name(fmt.Sprintf("%s%dqxjz.", letters(6), i))
}

// existing is every name that exists in z: its owners and, as empty
// non-terminals, their ancestors down from the origin.
func existing(z *zone.Zone) map[dnswire.Name]bool {
	exists := map[dnswire.Name]bool{}
	for _, n := range z.Names() {
		for ; n.IsSubdomainOf(z.Origin) && !exists[n]; n = n.Parent() {
			exists[n] = true
		}
	}
	return exists
}

// parentWire builds the reply to q the way the server did before it
// packed once: zone lookup, DNSSEC assembly with a covering-NSEC lookup
// per query and no memo, a truncation loop that packs to measure, and a
// final pack of the message carrying the query's own ID and RD — plus,
// for an NXDOMAIN, the NSEC
// covering the wildcard at the closest encloser, found by walking up
// from the name to the first ancestor in exists. It is the reference the
// one-pack path and the denial memo must match byte for byte.
func parentWire(t *testing.T, z *zone.Zone, exists map[dnswire.Name]bool, q *dnswire.Message) []byte {
	t.Helper()
	question := q.Questions[0]
	resp := &dnswire.Message{ID: q.ID, Response: true, Opcode: q.Opcode,
		RecursionDesired: q.RecursionDesired, Questions: q.Questions}
	_, size, do := q.EDNS()
	limit := dnswire.MaxUDPSize
	if int(size) > limit {
		limit = int(size)
	}
	ans := z.Query(question.Name, question.Type)
	resp.Rcode, resp.Authoritative = ans.Rcode, ans.Authoritative
	resp.Answers, resp.Authority, resp.Additional = ans.Answer, ans.Authority, ans.Additional
	if size > 0 {
		if do {
			signFor := func(section []dnswire.RR) []dnswire.RR {
				keys, _ := dnswire.GroupRRsets(section)
				var sigs []dnswire.RR
				for _, k := range keys {
					if k.Type != dnswire.TypeRRSIG {
						sigs = append(sigs, z.SignaturesFor(k.Name, k.Type)...)
					}
				}
				return sigs
			}
			resp.Answers = append(resp.Answers, signFor(resp.Answers)...)
			resp.Authority = append(resp.Authority, signFor(resp.Authority)...)
			if resp.Rcode == dnswire.RcodeNXDomain || (resp.Rcode == dnswire.RcodeSuccess && len(resp.Answers) == 0) {
				if nsec, ok := z.NSECCovering(question.Name); ok {
					resp.Authority = append(resp.Authority, nsec)
					resp.Authority = append(resp.Authority, z.SignaturesFor(nsec.Name, dnswire.TypeNSEC)...)
					if resp.Rcode == dnswire.RcodeNXDomain {
						encloser := question.Name.Parent()
						for !exists[encloser] {
							encloser = encloser.Parent()
						}
						wildcard, err := encloser.Child("*")
						if err != nil {
							t.Fatal(err)
						}
						if w, _ := z.NSECCovering(wildcard); w.Name != nsec.Name {
							resp.Authority = append(resp.Authority, w)
							resp.Authority = append(resp.Authority, z.SignaturesFor(w.Name, dnswire.TypeNSEC)...)
						}
					}
				}
			}
		}
		resp.SetEDNS(dnswire.DefaultEDNSSize, do)
	}
	for {
		wire, err := resp.Pack()
		if err != nil {
			t.Fatalf("%v: reference pack: %v", question, err)
		}
		if len(wire) <= limit {
			return wire
		}
		resp.Truncated = true
		switch {
		case len(resp.Additional) > 0:
			resp.Additional = resp.Additional[:len(resp.Additional)-1]
		case len(resp.Authority) > 0:
			resp.Authority = resp.Authority[:len(resp.Authority)-1]
		case len(resp.Answers) > 0:
			resp.Answers = resp.Answers[:len(resp.Answers)-1]
		default:
			return wire
		}
	}
}

// ednsModes are the three response-shaping query forms at one
// advertised size: no OPT, OPT, OPT with DO.
func ednsModes(name dnswire.Name, typ dnswire.Type, id uint16, size uint16) []*dnswire.Message {
	plain := dnswire.NewQuery(id, name, typ)
	opt := dnswire.NewQuery(id, name, typ)
	opt.SetEDNS(size, false)
	do := dnswire.NewQuery(id, name, typ)
	do.SetEDNS(size, true)
	do.RecursionDesired = true
	return []*dnswire.Message{plain, opt, do}
}

// TestServedBytesMatchParent: for every owner name of the signed root ×
// {A, NS, DS, SOA, NSEC, ANY} × three EDNS modes × {512, 1232}
// advertised sizes, and for 10 000 junk names, ServeWire's bytes equal
// the parent-style reference — on the first ask (a miss: one pack,
// patch-copied, or for NXDOMAIN the precompiled denial's image) and on
// the second (a packed-cache hit, or for NXDOMAIN the image again).
func TestServedBytesMatchParent(t *testing.T) {
	z := signedRootZone(t)
	s := New(z)
	s.SetAnswerCache(1 << 20) // nothing evicted: every second ask of a cacheable answer is a hit
	from := netip.MustParseAddr("192.0.2.1")
	names := z.Names()
	stride := 1
	if raceEnabled || testing.Short() {
		stride = 16 // the race detector makes the full product minutes long
	}
	exists := existing(z)
	var asked, nx int64
	check := func(q *dnswire.Message) {
		t.Helper()
		qwire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		want := parentWire(t, z, exists, q)
		for pass := 0; pass < 2; pass++ {
			asked++
			if got := s.ServeWire(qwire, from, nil); !bytes.Equal(got, want) {
				t.Fatalf("%v size/do %v pass %d: served bytes differ from the parent-style build\n got %x\nwant %x",
					q.Questions[0], q.Additional, pass, got, want)
			}
		}
		if want[3]&0xF == byte(dnswire.RcodeNXDomain) {
			nx += 2
		}
	}
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeSOA, dnswire.TypeNSEC, dnswire.TypeANY}
	id := uint16(1)
	for i := 0; i < len(names); i += stride {
		for _, typ := range types {
			for _, size := range []uint16{512, 1232} {
				for m, q := range ednsModes(names[i], typ, id, size) {
					if m == 0 && size != 512 {
						continue // without an OPT there is no size to vary
					}
					check(q)
					id++
				}
			}
		}
	}
	owned := s.Stats()
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i += stride {
		name := junkQName(r, i)
		for _, q := range ednsModes(name, dnswire.TypeA, id, 1232) {
			check(q)
			id++
		}
	}

	// The counters keep their meaning: every query looked in the packed
	// cache and either hit or missed; every NXDOMAIN missed; a miss packs
	// at least once (more only when truncating) and a hit never — but an
	// NXDOMAIN miss packs nothing: the only packs the junk made are the
	// ones that precompiled each denial when it was first needed.
	st := s.Stats()
	if st.Queries != asked || st.PackedHits+st.PackedMisses != asked {
		t.Errorf("asked %d: Queries %d, hits %d + misses %d", asked, st.Queries, st.PackedHits, st.PackedMisses)
	}
	if st.NXDomain != nx || owned.NXDomain != 0 {
		t.Errorf("NXDomain = %d (%d among owner names), want %d", st.NXDomain, owned.NXDomain, nx)
	}
	if st.PackedMisses < asked/2+nx/2 || owned.WirePacks < owned.PackedMisses {
		t.Errorf("misses %d (asked %d, nxdomain %d), packs %d for %d misses of owner names",
			st.PackedMisses, asked, nx, owned.WirePacks, owned.PackedMisses)
	}
	if packs, denials := st.WirePacks-owned.WirePacks, len(s.anscache.Load().denials); packs != int64(denials) {
		t.Errorf("%d NXDOMAIN misses made %d packs, want one for each of %d precompiled denials", nx, packs, denials)
	}
	if st.Truncated == 0 {
		t.Error("no reply was truncated: the 512-octet DO cases did not reach the truncation loop")
	}
	t.Logf("%d queries, %d nxdomain, %d truncated, %d hits, %d packs", asked, nx, st.Truncated, st.PackedHits, st.WirePacks)
}

// TestJunkDoesNotPolluteAnswerCache: a flood of unique nonexistent names
// ten times the cache's capacity evicts nothing, adds nothing to the
// packed-answer cache, packs nothing but the denials it precompiles, and
// grows the denial memo no further than the NSEC chain times the depth
// of the names (the pairs of a covering NSEC and a wildcard's).
func TestJunkDoesNotPolluteAnswerCache(t *testing.T) {
	z := signedRootZone(t)
	s := New(z)
	from := netip.MustParseAddr("192.0.2.1")
	serve := func(q *dnswire.Message) {
		t.Helper()
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if s.ServeWire(wire, from, nil) == nil {
			t.Fatalf("%v dropped", q.Questions[0])
		}
	}
	// 1024 positive entries: NS referrals and DS answers at the TLDs.
	var warm []*dnswire.Message
	for _, tld := range z.Delegations() {
		if len(warm) == 1024 {
			break
		}
		typ := dnswire.TypeNS
		if len(warm)%2 == 1 && len(z.Lookup(tld, dnswire.TypeDS)) > 0 {
			typ = dnswire.TypeDS
		}
		warm = append(warm, query(tld, typ))
	}
	if len(warm) != 1024 {
		t.Fatalf("only %d TLDs to warm with", len(warm))
	}
	for _, q := range warm {
		serve(q)
	}
	ac := s.anscache.Load()
	if ac.len() != len(warm) {
		t.Fatalf("cache holds %d entries after warming %d", ac.len(), len(warm))
	}

	r := rand.New(rand.NewSource(6))
	before := s.Stats()
	const junk = 10 * DefaultAnswerCacheSize
	for i := 0; i < junk; i++ {
		q := dnswire.NewQuery(uint16(i), junkQName(r, i), dnswire.TypeA)
		q.SetEDNS(dnswire.DefaultEDNSSize, i%2 == 0) // DO and non-DO alike
		serve(q)
	}
	flood := s.Stats()
	if got := flood.NXDomain - before.NXDomain; got != junk {
		t.Fatalf("%d of %d junk names were NXDOMAIN", got, junk)
	}
	if flood.PackedMisses-before.PackedMisses != junk || flood.PackedHits != before.PackedHits {
		t.Errorf("junk: %d misses, %d hits; every junk query must miss", flood.PackedMisses-before.PackedMisses, flood.PackedHits-before.PackedHits)
	}
	if ac.len() != len(warm) {
		t.Errorf("cache went from %d to %d entries under junk", len(warm), ac.len())
	}
	owners, depth := 0, 0
	for _, n := range z.Names() {
		if len(z.Lookup(n, dnswire.TypeNSEC)) > 0 {
			owners++
		}
		depth = max(depth, n.LabelCount())
	}
	ac.mu.RLock()
	memo := len(ac.denials)
	ac.mu.RUnlock()
	if got := flood.WirePacks - before.WirePacks; got != int64(memo) {
		t.Errorf("junk: %d packs for %d queries, want one for each of %d precompiled denials", got, junk, memo)
	}
	if memo == 0 || memo > owners*depth {
		t.Errorf("denial memo holds %d denials for %d NSEC owners and names %d labels deep", memo, owners, depth)
	}
	t.Logf("%d junk queries: %d precompiled denials, %d NSEC owners, names %d labels deep", junk, memo, owners, depth)

	for _, q := range warm {
		serve(q)
	}
	after := s.Stats()
	if hits := after.PackedHits - flood.PackedHits; hits != int64(len(warm)) || after.PackedMisses != flood.PackedMisses {
		t.Errorf("after the flood %d of %d warm entries hit (%d new misses)", hits, len(warm), after.PackedMisses-flood.PackedMisses)
	}
}

// TestDenialMemoDiscardedWithZone: a memoized authority section must
// not outlive the zone it was cut from.
func TestDenialMemoDiscardedWithZone(t *testing.T) {
	s, _, _ := signedTestServer(t)
	soaSerial := func() uint32 {
		resp := s.Handle(doQuery("nosuch.", dnswire.TypeA), netip.Addr{})
		if resp.Rcode != dnswire.RcodeNXDomain || len(resp.Authority) < 4 {
			t.Fatalf("rcode %v, authority %v", resp.Rcode, resp.Authority)
		}
		return resp.Authority[0].Data.(dnswire.SOA).Serial
	}
	first := soaSerial()
	if again := soaSerial(); again != first { // served from the memo
		t.Fatalf("serial went %d -> %d with no zone change", first, again)
	}
	z2 := s.Zone().Clone()
	soa, _ := z2.SOA()
	data := soa.Data.(dnswire.SOA)
	data.Serial++
	z2.Remove(z2.Origin, dnswire.TypeSOA)
	if err := z2.Add(dnswire.NewRR(z2.Origin, soa.TTL, data)); err != nil {
		t.Fatal(err)
	}
	s.SetZone(z2)
	if got := soaSerial(); got != first+1 {
		t.Errorf("after SetZone the denial carries serial %d, want %d", got, first+1)
	}
}

// TestDenialMemoConcurrent: readers and the first writers of the denial
// memo race with each other and with SetZone swapping it. Run under -race.
func TestDenialMemoConcurrent(t *testing.T) {
	s, _, _ := signedTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if g == 0 && i%60 == 30 {
					s.SetZone(s.Zone())
				}
				name := dnswire.Name(fmt.Sprintf("q%d.%c%d.", i, 'a'+byte((g+i)%26), i%7))
				resp := s.Handle(doQuery(name, dnswire.TypeA), netip.Addr{})
				// SOA, covering NSEC and wildcard NSEC, each signed; the
				// one NSEC twice over for a name in the apex's span.
				if resp == nil || resp.Rcode != dnswire.RcodeNXDomain || len(resp.Authority) != 6 && len(resp.Authority) != 4 {
					t.Errorf("%s: %+v", name, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
