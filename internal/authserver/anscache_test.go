package authserver

import (
	"context"
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

func TestPackedAnswerHitMatchesFreshBuild(t *testing.T) {
	s := testServer(t)
	q1 := query("www.example.com.", dnswire.TypeA)
	fresh := s.Handle(q1, netip.Addr{})
	if fresh == nil {
		t.Fatal("no response")
	}
	st := s.Stats()
	if st.PackedMisses != 1 || st.PackedHits != 0 {
		t.Fatalf("after first query: hits=%d misses=%d", st.PackedHits, st.PackedMisses)
	}

	q2 := query("www.example.com.", dnswire.TypeA)
	q2.ID = 9999
	q2.RecursionDesired = true
	hit := s.Handle(q2, netip.Addr{})
	if hit == nil {
		t.Fatal("no response on hit")
	}
	st = s.Stats()
	if st.PackedHits != 1 || st.PackedMisses != 1 {
		t.Fatalf("after second query: hits=%d misses=%d", st.PackedHits, st.PackedMisses)
	}
	if hit.ID != 9999 || !hit.RecursionDesired {
		t.Errorf("hit header not patched: id=%d rd=%v", hit.ID, hit.RecursionDesired)
	}
	// Everything but the patched header fields must match a fresh build.
	if !reflect.DeepEqual(hit.Answers, fresh.Answers) ||
		!reflect.DeepEqual(hit.Authority, fresh.Authority) ||
		!reflect.DeepEqual(hit.Additional, fresh.Additional) ||
		hit.Rcode != fresh.Rcode || hit.Authoritative != fresh.Authoritative {
		t.Errorf("cached answer differs from fresh build:\nhit:   %+v\nfresh: %+v", hit, fresh)
	}
	// Hits keep the per-class accounting exact: two referrals served.
	if st.Referrals != 2 {
		t.Errorf("Referrals = %d, want 2", st.Referrals)
	}
}

func TestPackedAnswerWireIsPatchedTemplate(t *testing.T) {
	s := testServer(t)
	q := query("com.", dnswire.TypeNS)
	s.Handle(q, netip.Addr{}) // prime

	q2, _ := query("com.", dnswire.TypeNS).Query()
	q2.ID = 777
	r := s.handle(nil, &q2, netip.Addr{})
	if r.hit == nil || r.msg != nil {
		t.Fatal("second identical query did not hand back the cache entry")
	}
	wire, resp := r.wire, r.message(&q2)
	// The stored wire is the neutral template: ID zero, RD clear.
	var tmpl dnswire.Message
	if err := tmpl.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if tmpl.ID != 0 || tmpl.RecursionDesired {
		t.Errorf("cached wire: id=%d rd=%v, want neutral template", tmpl.ID, tmpl.RecursionDesired)
	}
	if !reflect.DeepEqual(tmpl.Answers, resp.Answers) ||
		!reflect.DeepEqual(tmpl.Authority, resp.Authority) {
		t.Error("cached wire sections differ from the returned message")
	}
	if resp.ID != 777 {
		t.Errorf("returned message ID = %d, want 777", resp.ID)
	}
}

func TestPackedAnswerEDNSModesAreDistinct(t *testing.T) {
	s := testServer(t)
	plain := dnswire.NewQuery(1, "com.", dnswire.TypeNS) // no OPT
	edns := query("com.", dnswire.TypeNS)                // OPT, DO clear
	do := query("com.", dnswire.TypeNS)
	do.SetEDNS(dnswire.DefaultEDNSSize, true) // OPT, DO set

	rPlain := s.Handle(plain, netip.Addr{})
	rEDNS := s.Handle(edns, netip.Addr{})
	rDO := s.Handle(do, netip.Addr{})
	if opt, _, _ := rPlain.EDNS(); opt != nil {
		t.Error("no-EDNS query got an OPT record back")
	}
	if opt, _, _ := rEDNS.EDNS(); opt == nil {
		t.Error("EDNS query got no OPT record back")
	}
	if _, _, gotDO := rDO.EDNS(); !gotDO {
		t.Error("DO bit not echoed")
	}
	if ac := s.anscache.Load(); ac.len() != 3 {
		t.Errorf("cache holds %d entries, want 3 (one per EDNS mode)", ac.len())
	}
	if st := s.Stats(); st.PackedHits != 0 || st.PackedMisses != 3 {
		t.Errorf("hits=%d misses=%d, want 0/3", st.PackedHits, st.PackedMisses)
	}
}

func TestPackedAnswerInvalidatedOnZoneReload(t *testing.T) {
	s := testServer(t)
	q := func() *dnswire.Message { return query("com.", dnswire.TypeNS) }
	s.Handle(q(), netip.Addr{})
	s.Handle(q(), netip.Addr{})
	if st := s.Stats(); st.PackedHits != 1 {
		t.Fatalf("hits = %d, want 1", st.PackedHits)
	}

	z2, err := zone.Parse(strings.NewReader(`
$ORIGIN .
. 86400 IN SOA a.root-servers.net. nstld.verisign-grs.com. 2019041101 1800 900 604800 86400
. 518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 198.41.0.4
com. 172800 IN NS z.gtld-servers.net.
z.gtld-servers.net. 172800 IN A 192.5.6.99
`), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	s.SetZone(z2)
	if ac := s.anscache.Load(); ac.len() != 0 {
		t.Fatalf("cache not flushed on SetZone: %d entries", ac.len())
	}
	resp := s.Handle(q(), netip.Addr{})
	if len(resp.Authority) != 1 || resp.Authority[0].Data.(dnswire.NS).Host != "z.gtld-servers.net." {
		t.Errorf("post-reload answer still reflects the old zone: %+v", resp.Authority)
	}
	if st := s.Stats(); st.PackedHits != 1 || st.PackedMisses != 2 {
		t.Errorf("hits=%d misses=%d after reload, want 1/2", st.PackedHits, st.PackedMisses)
	}
}

func TestPackedAnswerTruncationNotCached(t *testing.T) {
	// A fat RRset that fits 4096 bytes but not 512. A big-buffer client
	// populates the cache; a small-buffer client with the same EDNS mode
	// must get a freshly truncated build, not the oversized cached wire.
	z := zone.New(dnswire.Root)
	_ = z.Add(dnswire.NewRR(dnswire.Root, 86400, dnswire.SOA{MName: "m.", RName: "r.", Serial: 1, Minimum: 60}))
	for i := 0; i < 40; i++ {
		_ = z.Add(dnswire.NewRR("fat.example.", 60,
			dnswire.TXT{Strings: []string{strings.Repeat("x", 100) + string(rune('a'+i%26))}}))
	}
	s := New(z)

	// No EDNS (512 limit): truncated, so never cached.
	noEDNS := dnswire.NewQuery(1, "fat.example.", dnswire.TypeTXT)
	if resp := s.Handle(noEDNS, netip.Addr{}); !resp.Truncated {
		t.Fatal("expected truncation at 512")
	}
	if ac := s.anscache.Load(); ac.len() != 0 {
		t.Fatalf("truncated response was cached (%d entries)", ac.len())
	}

	// Big buffer: full answer, cached.
	big := dnswire.NewQuery(2, "fat.example.", dnswire.TypeTXT)
	big.SetEDNS(16384, false)
	if resp := s.Handle(big, netip.Addr{}); resp.Truncated {
		t.Fatal("16k buffer should fit the full RRset")
	}
	if ac := s.anscache.Load(); ac.len() != 1 {
		t.Fatalf("full response not cached (%d entries)", ac.len())
	}

	// Small buffer, same EDNS mode: cached wire is too big, so the hit is
	// refused and a fresh truncated response built instead.
	small := dnswire.NewQuery(3, "fat.example.", dnswire.TypeTXT)
	small.SetEDNS(512, false)
	if resp := s.Handle(small, netip.Addr{}); !resp.Truncated {
		t.Fatal("512-buffer client should get a truncated response")
	}
	if st := s.Stats(); st.PackedHits != 0 {
		t.Errorf("oversized cached wire served as a hit (hits=%d)", st.PackedHits)
	}

	// The big client still hits.
	big2 := dnswire.NewQuery(4, "fat.example.", dnswire.TypeTXT)
	big2.SetEDNS(16384, false)
	s.Handle(big2, netip.Addr{})
	if st := s.Stats(); st.PackedHits != 1 {
		t.Errorf("big-buffer repeat should hit (hits=%d)", st.PackedHits)
	}
}

func TestPackedAnswerDisabled(t *testing.T) {
	s := testServer(t)
	s.SetAnswerCache(0)
	for i := 0; i < 3; i++ {
		if resp := s.Handle(query("com.", dnswire.TypeNS), netip.Addr{}); resp == nil {
			t.Fatal("no response")
		}
	}
	if st := s.Stats(); st.PackedHits != 0 || st.PackedMisses != 0 {
		t.Errorf("disabled cache still counting: hits=%d misses=%d", st.PackedHits, st.PackedMisses)
	}
	if st := s.Stats(); st.Referrals != 3 {
		t.Errorf("Referrals = %d, want 3", st.Referrals)
	}
}

func TestPackedAnswerCapacityBound(t *testing.T) {
	s := testServer(t)
	s.SetAnswerCache(4)
	for i := 0; i < 20; i++ {
		name := dnswire.Name(strings.Repeat("x", i%10+1) + ".com.") // ten distinct referrals
		s.Handle(query(name, dnswire.TypeA), netip.Addr{})
	}
	if n := s.anscache.Load().len(); n != 4 {
		t.Errorf("cache holds %d entries after ten cacheable answers, capacity 4", n)
	}
}

func TestPackedAnswerUDPWirePatch(t *testing.T) {
	// End-to-end over a real socket: the second, cache-served response is
	// byte-identical apart from the patched ID and RD bit.
	s := testServer(t)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeUDP(ctx, conn) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("ServeUDP: %v", err)
		}
	}()

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	exchange := func(id uint16, rd bool) []byte {
		q := query("www.example.com.", dnswire.TypeA)
		q.ID = id
		q.RecursionDesired = rd
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(wire); err != nil {
			t.Fatal(err)
		}
		_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 65536)
		n, err := client.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf[:n]
	}

	first := exchange(0x1234, false)
	second := exchange(0xBEEF, true)
	if s.Stats().PackedHits == 0 {
		t.Fatal("second exchange did not hit the packed-answer cache")
	}
	var m1, m2 dnswire.Message
	if err := m1.Unpack(first); err != nil {
		t.Fatal(err)
	}
	if err := m2.Unpack(second); err != nil {
		t.Fatal(err)
	}
	if m1.ID != 0x1234 || m2.ID != 0xBEEF {
		t.Errorf("IDs = %#x, %#x", m1.ID, m2.ID)
	}
	if m1.RecursionDesired || !m2.RecursionDesired {
		t.Errorf("RD bits = %v, %v", m1.RecursionDesired, m2.RecursionDesired)
	}
	// Beyond the 4 header bytes carrying ID and flags, the wire images of
	// the fresh and cache-served responses must agree byte for byte.
	if len(first) != len(second) {
		t.Fatalf("wire lengths differ: %d vs %d", len(first), len(second))
	}
	for i := 4; i < len(first); i++ {
		if first[i] != second[i] {
			t.Fatalf("wire images diverge at byte %d: %#x vs %#x", i, first[i], second[i])
		}
	}
}

func TestPackedAnswerConcurrent(t *testing.T) {
	s := testServer(t)
	names := []dnswire.Name{"com.", "org.", "www.example.com.", "nonexistent.test."}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%50 == 25 && g == 0 {
					s.SetZone(s.Zone()) // force invalidation mid-stream
				}
				q := query(names[i%len(names)], dnswire.TypeNS)
				q.ID = uint16(g*1000 + i)
				if resp := s.Handle(q, netip.Addr{}); resp == nil || resp.ID != q.ID {
					t.Error("bad response under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPackedEntriesKeepTheirNames serves every owner name of the signed
// root as a packed-answer miss, then a run of junk, all from one request
// buffer rewritten in place. ServeWire reads the question name as a view
// of its Query; a packed entry must key by a copy of its own — the one in
// its template's question — so every key still reads as the question it
// was made for once the buffer and the Query have moved on.
func TestPackedEntriesKeepTheirNames(t *testing.T) {
	z := signedRootZone(t)
	s := New(z)
	from := netip.MustParseAddr("192.0.2.1")
	req := make([]byte, 0, 512)
	out := make([]byte, 0, 4096)
	serve := func(name dnswire.Name, typ dnswire.Type, do bool) {
		q := dnswire.NewQuery(1, name, typ)
		q.SetEDNS(dnswire.DefaultEDNSSize, do)
		var err error
		if req, err = q.AppendPack(req[:0]); err != nil {
			t.Fatal(err)
		}
		if s.ServeWire(req, from, out[:0]) == nil {
			t.Fatalf("%s %s dropped", name, typ)
		}
	}
	asked := make(map[dnswire.Name]bool)
	for i, name := range z.Names() {
		asked[name] = true
		serve(name, []dnswire.Type{dnswire.TypeNS, dnswire.TypeA, dnswire.TypeDS}[i%3], i%2 == 0)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		serve(junkQName(r, i), dnswire.TypeA, true)
	}

	ac := s.anscache.Load()
	ac.mu.RLock()
	defer ac.mu.RUnlock()
	if len(ac.entries) < len(asked)/2 {
		t.Fatalf("%d packed entries for %d names asked", len(ac.entries), len(asked))
	}
	for k, e := range ac.entries {
		q := e.template.Questions[0]
		if k.name != q.Name || k.typ != q.Type || !asked[k.name] {
			t.Errorf("entry keyed %q/%s holds the answer to %q/%s", k.name, k.typ, q.Name, q.Type)
		}
		var m dnswire.Message
		if err := m.Unpack(e.wire); err != nil || m.Questions[0] != q {
			t.Errorf("entry %q/%s: wire question %v, %v", k.name, k.typ, m.Questions, err)
		}
	}
}
