package resolver

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/authserver"
	"rootless/internal/dnswire"
	"rootless/internal/netsim"
	"rootless/internal/zone"
)

var (
	rootV4    = netip.MustParseAddr("198.41.0.4")
	root2V4   = netip.MustParseAddr("199.9.14.201")
	comV4     = netip.MustParseAddr("192.5.6.30")
	exampleV4 = netip.MustParseAddr("192.0.2.53")
	localV4   = netip.MustParseAddr("127.8.8.8")

	locClient = anycast.GeoPoint{Lat: 51.5, Lon: -0.1}  // London
	locRoot   = anycast.GeoPoint{Lat: 40.7, Lon: -74.0} // NYC
	locCom    = anycast.GeoPoint{Lat: 39.0, Lon: -77.5} // Ashburn
	locAuth   = anycast.GeoPoint{Lat: 50.1, Lon: 8.7}   // Frankfurt
)

const rootZoneSrc = `
. 86400 IN SOA a.root-servers.net. nstld.verisign-grs.com. 2019041100 1800 900 604800 3600
. 518400 IN NS a.root-servers.net.
. 518400 IN NS b.root-servers.net.
a.root-servers.net. 518400 IN A 198.41.0.4
b.root-servers.net. 518400 IN A 199.9.14.201
com. 172800 IN NS a.gtld-servers.net.
a.gtld-servers.net. 172800 IN A 192.5.6.30
org. 172800 IN NS a.gtld-servers.net.
`

const comZoneSrc = `
$ORIGIN com.
com. 86400 IN SOA a.gtld-servers.net. nstld.verisign-grs.com. 7 1800 900 604800 900
com. 86400 IN NS a.gtld-servers.net.
example.com. 172800 IN NS ns1.example.com.
ns1.example.com. 172800 IN A 192.0.2.53
`

const exampleZoneSrc = `
$ORIGIN example.com.
example.com. 86400 IN SOA ns1.example.com. admin.example.com. 3 1800 900 604800 300
example.com. 86400 IN NS ns1.example.com.
ns1.example.com. 86400 IN A 192.0.2.53
www.example.com. 3600 IN A 192.0.2.80
alias.example.com. 3600 IN CNAME www.example.com.
text.example.com. 3600 IN TXT "hello"
deep.sub.example.com. 3600 IN A 192.0.2.81
`

// topo is the simulated internet every resolver test runs on.
type topo struct {
	net      *netsim.Network
	rootZone *zone.Zone
	rootSrv  *authserver.Server
	comSrv   *authserver.Server
	exSrv    *authserver.Server
	start    time.Time
}

func mustZone(t testing.TB, src string, origin dnswire.Name) *zone.Zone {
	t.Helper()
	z, err := zone.Parse(strings.NewReader(src), origin)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func newTopo(t testing.TB) *topo {
	t.Helper()
	start := time.Unix(1555000000, 0)
	n := netsim.New(1, start)
	tp := &topo{
		net:      n,
		rootZone: mustZone(t, rootZoneSrc, dnswire.Root),
		start:    start,
	}
	tp.rootSrv = authserver.New(tp.rootZone)
	tp.comSrv = authserver.New(mustZone(t, comZoneSrc, "com."))
	tp.exSrv = authserver.New(mustZone(t, exampleZoneSrc, "example.com."))
	n.AddHost("a-root", rootV4, locRoot, tp.rootSrv)
	n.AddHost("b-root", root2V4, locRoot, tp.rootSrv)
	n.AddHost("gtld", comV4, locCom, tp.comSrv)
	n.AddHost("ns1.example", exampleV4, locAuth, tp.exSrv)
	return tp
}

// hints returns a two-letter hints set matching the topology.
func testHints() []dnswire.RR {
	return []dnswire.RR{
		dnswire.NewRR(dnswire.Root, 3600000, dnswire.NS{Host: "a.root-servers.net."}),
		dnswire.NewRR(dnswire.Root, 3600000, dnswire.NS{Host: "b.root-servers.net."}),
		dnswire.NewRR("a.root-servers.net.", 3600000, dnswire.A{Addr: rootV4}),
		dnswire.NewRR("b.root-servers.net.", 3600000, dnswire.A{Addr: root2V4}),
	}
}

func (tp *topo) resolver(t testing.TB, mode RootMode, opts ...func(*Config)) *Resolver {
	t.Helper()
	cfg := Config{
		Mode:      mode,
		Hints:     testHints(),
		Transport: tp.net.Client(locClient),
		Clock:     tp.net.Now,
		Seed:      7,
	}
	switch mode {
	case RootModePreload, RootModeLookaside:
		cfg.LocalZone = tp.rootZone.Clone()
	case RootModeLocalAuth:
		cfg.LocalAuthAddr = localV4
		// Loopback root server: same zone, colocated with the client.
		tp.net.AddHost("localroot", localV4, locClient, authserver.New(tp.rootZone.Clone()))
	}
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

func allModes() []RootMode {
	return []RootMode{RootModeHints, RootModePreload, RootModeLookaside, RootModeLocalAuth}
}

func TestResolveAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			tp := newTopo(t)
			r := tp.resolver(t, mode)
			res, err := r.Resolve("www.example.com.", dnswire.TypeA)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rcode != dnswire.RcodeSuccess {
				t.Fatalf("rcode = %v", res.Rcode)
			}
			if len(res.Answers) != 1 || res.Answers[0].Data.(dnswire.A).Addr.String() != "192.0.2.80" {
				t.Fatalf("answers = %+v", res.Answers)
			}
			if res.Latency <= 0 || res.Queries == 0 {
				t.Errorf("latency=%v queries=%d", res.Latency, res.Queries)
			}
			st := r.Stats()
			switch mode {
			case RootModeHints:
				if st.RootQueries == 0 {
					t.Error("hints mode did not query the root")
				}
			default:
				if st.RootQueries != 0 {
					t.Errorf("%s mode sent %d root queries", mode, st.RootQueries)
				}
			}
		})
	}
}

func TestCachingEliminatesRepeatTraffic(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints)
	res1, err := r.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Queries != 0 || !res2.FromCache {
		t.Errorf("second resolution used %d queries", res2.Queries)
	}
	if res2.Latency != 0 {
		t.Errorf("cache hit cost %v", res2.Latency)
	}
	if res1.Queries == 0 {
		t.Error("first resolution should use the network")
	}
	// A sibling name skips root and com (delegations cached).
	before := r.Stats()
	if _, err := r.Resolve("text.example.com.", dnswire.TypeTXT); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	if after.RootQueries != before.RootQueries {
		t.Error("sibling lookup re-queried the root")
	}
	if after.TotalQueries-before.TotalQueries != 1 {
		t.Errorf("sibling lookup used %d queries, want 1", after.TotalQueries-before.TotalQueries)
	}
}

func TestNXDomainAllModes(t *testing.T) {
	for _, mode := range allModes() {
		t.Run(mode.String(), func(t *testing.T) {
			tp := newTopo(t)
			r := tp.resolver(t, mode)
			res, err := r.Resolve("anything.bogustld12345.", dnswire.TypeA)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rcode != dnswire.RcodeNXDomain {
				t.Fatalf("rcode = %v", res.Rcode)
			}
			// In the local modes a bogus TLD must cost zero network queries
			// — the heart of the paper's junk-traffic argument.
			if mode != RootModeHints && mode != RootModeLocalAuth && res.Queries != 0 {
				t.Errorf("bogus TLD cost %d network queries in %s mode", res.Queries, mode)
			}
			// Negative caching: the repeat is free in every mode.
			res2, err := r.Resolve("anything.bogustld12345.", dnswire.TypeA)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Queries != 0 {
				t.Errorf("negative answer not cached: %d queries", res2.Queries)
			}
		})
	}
}

func TestCNAMEChase(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints)
	res, err := r.Resolve("alias.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	var sawCNAME, sawA bool
	for _, rr := range res.Answers {
		if rr.Type == dnswire.TypeCNAME {
			sawCNAME = true
		}
		if rr.Type == dnswire.TypeA && rr.Name == "www.example.com." {
			sawA = true
		}
	}
	if !sawCNAME || !sawA {
		t.Fatalf("CNAME chain incomplete: %+v", res.Answers)
	}
	if r.Stats().CNAMEChases == 0 {
		t.Error("CNAME chase not counted")
	}
}

func TestNodata(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints)
	res, err := r.Resolve("www.example.com.", dnswire.TypeAAAA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeSuccess || len(res.Answers) != 0 {
		t.Fatalf("NODATA: rcode=%v answers=%d", res.Rcode, len(res.Answers))
	}
}

func TestRootOutageFailover(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints)
	// Kill a-root; b-root still answers (the robustness §4 describes).
	tp.net.SetAddrDown(rootV4, true)
	res, err := r.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("rcode = %v", res.Rcode)
	}
	if r.Stats().Timeouts == 0 {
		t.Error("expected at least one timeout against the dead root")
	}
}

func TestTotalRootOutage(t *testing.T) {
	// With every root letter dead, classic resolution of an uncached TLD
	// fails, while lookaside keeps working — §4 Robustness.
	tp := newTopo(t)
	classic := tp.resolver(t, RootModeHints)
	local := tp.resolver(t, RootModeLookaside)
	tp.net.SetAddrDown(rootV4, true)
	tp.net.SetAddrDown(root2V4, true)

	if _, err := classic.Resolve("www.example.com.", dnswire.TypeA); err == nil {
		t.Error("classic resolution should fail with all roots down")
	}
	res, err := local.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil || res.Rcode != dnswire.RcodeSuccess {
		t.Errorf("lookaside resolution failed during root outage: %v %v", res, err)
	}
}

func TestLocalModesSendNoRootQueries(t *testing.T) {
	// Drive many distinct TLD lookups; local modes must never touch a
	// root address.
	tp := newTopo(t)
	for _, mode := range []RootMode{RootModePreload, RootModeLookaside} {
		r := tp.resolver(t, mode)
		names := []dnswire.Name{
			"www.example.com.", "x.example.org.", "nothere.zz-bogus.", "text.example.com.",
		}
		for _, n := range names {
			_, _ = r.Resolve(n, dnswire.TypeA)
		}
		if st := r.Stats(); st.RootQueries != 0 {
			t.Errorf("%s: %d root queries", mode, st.RootQueries)
		}
	}
}

func TestLookasideCountsConsults(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeLookaside)
	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if r.Stats().LocalRootConsults == 0 {
		t.Error("lookaside consult not counted")
	}
	// Second, different .com name: delegation is cached, so no new consult.
	before := r.Stats().LocalRootConsults
	if _, err := r.Resolve("text.example.com.", dnswire.TypeTXT); err != nil {
		t.Fatal(err)
	}
	if r.Stats().LocalRootConsults != before {
		t.Error("cached delegation still consulted local root")
	}
}

func TestQNameMinimisation(t *testing.T) {
	tp := newTopo(t)
	// Observe what the root sees with and without QMIN.
	var rootSees []dnswire.Name
	tp.net.AddObserver(func(_ anycast.GeoPoint, dst netip.Addr, q *dnswire.Message) {
		if dst == rootV4 || dst == root2V4 {
			rootSees = append(rootSees, q.Questions[0].Name)
		}
	})

	r := tp.resolver(t, RootModeHints, func(c *Config) { c.QNameMinimisation = true })
	res, err := r.Resolve("deep.sub.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeSuccess || len(res.Answers) == 0 {
		t.Fatalf("qmin resolution failed: %+v", res)
	}
	for _, n := range rootSees {
		if n != "com." {
			t.Errorf("root saw %q with QMIN on, want only com.", n)
		}
	}
	if len(rootSees) == 0 {
		t.Error("root saw nothing; expected the minimised com. query")
	}

	// Without QMIN the root sees the full name.
	rootSees = nil
	tp2 := newTopo(t)
	var rootSees2 []dnswire.Name
	tp2.net.AddObserver(func(_ anycast.GeoPoint, dst netip.Addr, q *dnswire.Message) {
		if dst == rootV4 || dst == root2V4 {
			rootSees2 = append(rootSees2, q.Questions[0].Name)
		}
	})
	r2 := tp2.resolver(t, RootModeHints)
	if _, err := r2.Resolve("deep.sub.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	full := false
	for _, n := range rootSees2 {
		if n == "deep.sub.example.com." {
			full = true
		}
	}
	if !full {
		t.Errorf("root did not see the full qname without QMIN: %v", rootSees2)
	}
}

func TestSRTTPrefersFasterRoot(t *testing.T) {
	// Client in London; add a root instance in London for b-root only.
	// After a few resolutions the resolver should prefer b-root.
	tp := newTopo(t)
	tp.net.AddHost("b-root-lon", root2V4, locClient, tp.rootSrv)
	r := tp.resolver(t, RootModeHints)
	// Force repeated root queries by resolving distinct bogus TLDs
	// (NXDOMAIN is cached per-name, so each costs a root query).
	for i := 0; i < 12; i++ {
		name := dnswire.Name(strings.Repeat(string(rune('a'+i)), 3) + "-bogus.")
		_, _ = r.Resolve(name, dnswire.TypeA)
	}
	if r.SRTTStateSize() < 2 {
		t.Fatalf("srtt state = %d entries", r.SRTTStateSize())
	}
	st := r.Stats()
	if st.ServerSelections == 0 || st.SRTTUpdates == 0 {
		t.Errorf("selection machinery idle: %+v", st)
	}
	// The last root queries should mostly hit the fast (London) instance:
	// measure by one more resolution's latency being small.
	res, err := r.Resolve("final-bogus-check.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %v", res.Rcode)
	}
	if res.Latency > 50*time.Millisecond {
		t.Errorf("after SRTT warmup, root query took %v (not using London instance?)", res.Latency)
	}
}

func TestLocalAuthUsesLoopback(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeLocalAuth)
	res, err := r.Resolve("nothere.bogus-xyz.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("rcode = %v", res.Rcode)
	}
	st := r.Stats()
	if st.RootQueries != 0 {
		t.Errorf("localauth sent %d root queries", st.RootQueries)
	}
	if st.LocalRootConsults == 0 {
		t.Error("localauth consult not counted")
	}
	// Loopback query should be fast (colocated).
	if res.Latency > 20*time.Millisecond {
		t.Errorf("loopback root query took %v", res.Latency)
	}
}

func TestQueryBudget(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetLossRate(1.0) // nothing ever answers
	r := tp.resolver(t, RootModeHints, func(c *Config) { c.MaxQueries = 5 })
	_, err := r.Resolve("www.example.com.", dnswire.TypeA)
	if err == nil {
		t.Fatal("expected failure with full loss")
	}
	if r.Stats().TotalQueries > 5 {
		t.Errorf("budget exceeded: %d queries", r.Stats().TotalQueries)
	}
}

func TestSetLocalZoneRefresh(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeLookaside)
	// Replace the local zone with one lacking com.: resolution must now
	// see NXDOMAIN for com names (stale/err zone swapped in).
	empty := zone.New(dnswire.Root)
	_ = empty.Add(dnswire.NewRR(dnswire.Root, 86400, dnswire.SOA{
		MName: "m.", RName: "r.", Serial: 2, Minimum: 300}))
	r.SetLocalZone(empty)
	res, err := r.Resolve("brandnew.example2.com.", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("rcode = %v after zone swap", res.Rcode)
	}
}

func TestMinimiseHelper(t *testing.T) {
	cases := []struct {
		zone, qname dnswire.Name
		wantName    dnswire.Name
		wantType    dnswire.Type
	}{
		{dnswire.Root, "www.example.com.", "com.", dnswire.TypeNS},
		{"com.", "www.example.com.", "example.com.", dnswire.TypeNS},
		{"example.com.", "www.example.com.", "www.example.com.", dnswire.TypeA},
		{dnswire.Root, "com.", "com.", dnswire.TypeA},
	}
	for _, c := range cases {
		name, typ := minimise(c.zone, c.qname, dnswire.TypeA)
		if name != c.wantName || typ != c.wantType {
			t.Errorf("minimise(%q, %q) = %q/%v, want %q/%v",
				c.zone, c.qname, name, typ, c.wantName, c.wantType)
		}
	}
}

func TestPreloadPinsCache(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModePreload)
	if r.Cache().PinnedLen() == 0 {
		t.Fatal("preload mode cached nothing")
	}
	// The com. delegation must be answerable without any network query.
	res, err := r.Resolve("com.", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 0 {
		t.Errorf("com. NS needed %d queries in preload mode", res.Queries)
	}
}

func TestServeStaleRobustness(t *testing.T) {
	// RFC 8767 serve-stale: with every nameserver unreachable, a warmed
	// resolver keeps answering previously-seen names from expired cache —
	// but unlike a local root zone, it cannot answer anything new.
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints, func(c *Config) {
		c.ServeStale = true
		c.StaleLimit = 24 * time.Hour
	})
	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}

	// Expire everything (www TTL 3600) and kill the whole infrastructure.
	tp.net.Advance(2 * time.Hour)
	tp.net.SetAddrDown(rootV4, true)
	tp.net.SetAddrDown(root2V4, true)
	tp.net.SetAddrDown(comV4, true)
	tp.net.SetAddrDown(exampleV4, true)

	res, err := r.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("serve-stale failed: %v", err)
	}
	if res.Rcode != dnswire.RcodeSuccess || len(res.Answers) == 0 {
		t.Fatalf("stale answer: %+v", res)
	}
	if res.Answers[0].TTL != 30 {
		t.Errorf("stale TTL = %d, want 30", res.Answers[0].TTL)
	}
	if r.Stats().StaleAnswers == 0 {
		t.Error("stale answer not counted")
	}

	// A name never seen before still fails — the limit of serve-stale.
	if _, err := r.Resolve("fresh.example.com.", dnswire.TypeA); err == nil {
		t.Error("unseen name should fail with everything down")
	}

	// StaleLimit is honored: once the entry has been expired for longer
	// than the limit, serve-stale refuses it and the resolution fails.
	staleBefore := r.Stats().StaleAnswers
	tp.net.Advance(25 * time.Hour)
	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err == nil {
		t.Error("expected failure once the entry outlived StaleLimit")
	}
	if r.Stats().StaleAnswers != staleBefore {
		t.Error("stale answer served beyond StaleLimit")
	}

	// Without ServeStale the same situation fails outright.
	tp2 := newTopo(t)
	r2 := tp2.resolver(t, RootModeHints)
	if _, err := r2.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	tp2.net.Advance(2 * time.Hour)
	tp2.net.SetAddrDown(rootV4, true)
	tp2.net.SetAddrDown(root2V4, true)
	tp2.net.SetAddrDown(comV4, true)
	tp2.net.SetAddrDown(exampleV4, true)
	if _, err := r2.Resolve("www.example.com.", dnswire.TypeA); err == nil {
		t.Error("expected failure without serve-stale")
	}
}

// A cold stream meets new nameservers without end; the timing table
// must stay bounded, evicting rather than growing, and keep learning.
func TestSRTTTableBounded(t *testing.T) {
	r := newTopo(t).resolver(t, RootModeHints)
	var last netip.Addr
	for i := 0; i < maxSRTTEntries+1000; i++ {
		last = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		r.updateSRTT(last, 5*time.Millisecond, false)
	}
	if got := r.SRTTStateSize(); got != maxSRTTEntries {
		t.Errorf("SRTT table holds %d entries, want the bound %d", got, maxSRTTEntries)
	}
	if got := r.srttFor(last); got != 5*time.Millisecond {
		t.Errorf("newest server's SRTT = %v, want 5ms: a full table must still admit", got)
	}
}
