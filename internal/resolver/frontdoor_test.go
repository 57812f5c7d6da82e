package resolver

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
	"rootless/internal/udpengine"
)

// The three shapes a stub's query comes in.
type ednsMode int

const (
	noOPT ednsMode = iota
	withOPT
	withDO
)

func packQuery(t testing.TB, id uint16, name dnswire.Name, typ dnswire.Type, mode ednsMode) []byte {
	t.Helper()
	q := dnswire.NewQuery(id, name, typ)
	if mode != noOPT {
		q.SetEDNS(4096, mode == withDO)
	}
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// door is a resolver behind its front door with every instrument a query
// touches attached, so two of them built alike can be compared reading
// by reading.
type door struct {
	tp  *topo
	r   *Resolver
	srv *Server
	an  *traffic.Analyzer
}

// doorWorld names one configuration and the resolutions that bring its
// cache to the state the corpus needs.
type doorWorld struct {
	name string
	mode RootMode
	opts func(tp *topo) []func(*Config)
	warm []dnswire.Question
}

func (w doorWorld) build(t *testing.T) *door {
	t.Helper()
	tp := newTopo(t)
	r := tp.resolver(t, w.mode, w.opts(tp)...)
	d := &door{tp: tp, r: r, srv: NewServer(r),
		an: traffic.NewAnalyzer(traffic.NewTLDSet([]dnswire.Name{"com.", "org."}), 8)}
	r.SetTraffic(d.an)
	r.Instrument(obs.NewRegistry())
	for _, q := range w.warm {
		if _, err := r.Resolve(q.Name, q.Type); err != nil {
			t.Fatalf("%s: warming %s: %v", w.name, q, err)
		}
	}
	return d
}

// readings is everything a query is allowed to move.
type readings struct {
	stats    Stats
	latCount int64
	latSum   int64
	classes  [traffic.NumClasses]int64
	observed int64
}

func (d *door) read() readings {
	return readings{d.r.Stats(), d.r.latency.Count(), d.r.latency.Sum(), d.an.Counts(), d.an.Observed()}
}

func (a readings) minus(b readings) readings {
	out := readings{latCount: a.latCount - b.latCount, latSum: a.latSum - b.latSum, observed: a.observed - b.observed}
	as, bs, os := reflect.ValueOf(a.stats), reflect.ValueOf(b.stats), reflect.ValueOf(&out.stats).Elem()
	for i := 0; i < os.NumField(); i++ {
		os.Field(i).SetInt(as.Field(i).Int() - bs.Field(i).Int())
	}
	for i := range out.classes {
		out.classes[i] = a.classes[i] - b.classes[i]
	}
	return out
}

func a(name dnswire.Name) dnswire.Question {
	return dnswire.Question{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET}
}

// TestFrontDoorRoutesAgree is the differential test behind the front
// door's two routes: for every kind of answer the resolver can give
// without I/O, in each EDNS mode, the bytes written on the socket worker
// equal the bytes the pool would have written for the same question and
// cache state, and the query moves every counter, the latency summary
// and the traffic classes by the same amounts either way. Two worlds are
// built alike; the first is asked through the front door, the second
// through the pool's route.
func TestFrontDoorRoutesAgree(t *testing.T) {
	signed := func(more ...func(*Config)) func(*topo) []func(*Config) {
		return func(tp *topo) []func(*Config) {
			return append([]func(*Config){withValidation(signRoot(t, tp), validator.PolicyStrict)}, more...)
		}
	}
	// Thirty addresses at one name: too much for 512 octets.
	var big []dnswire.RR
	for i := 0; i < 30; i++ {
		big = append(big, dnswire.NewRR("big.example.com.", 300,
			dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})}))
	}

	type probe struct {
		kind    string
		q       func(mode ednsMode) dnswire.Question // a fresh name per mode where the first ask changes the state
		rcode   dnswire.Rcode
		answers int
		ad      bool
		miss    bool // needs upstream work: must take the pool on both sides
		tc      bool // without EDNS
		moved   func(Stats) int64
	}
	fixed := func(q dnswire.Question) func(ednsMode) dnswire.Question {
		return func(ednsMode) dnswire.Question { return q }
	}
	worlds := []struct {
		doorWorld
		probes []probe
	}{
		{doorWorld{"lookaside", RootModeLookaside, signed(),
			[]dnswire.Question{a("www.example.com."), a("alias.example.com."), a("nope.example.com."),
				{Name: "text.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET}}},
			[]probe{
				{kind: "positive", q: fixed(a("www.example.com.")), answers: 1,
					moved: func(s Stats) int64 { return s.CacheAnswers }},
				{kind: "cname chain", q: fixed(a("alias.example.com.")), answers: 2,
					moved: func(s Stats) int64 { return s.CNAMEChases }},
				{kind: "nxdomain", q: fixed(a("nope.example.com.")), rcode: dnswire.RcodeNXDomain,
					moved: func(s Stats) int64 { return s.NegCacheAnswers }},
				{kind: "nodata", q: fixed(a("text.example.com.")),
					moved: func(s Stats) int64 { return s.NegCacheAnswers }},
				{kind: "oversize", q: fixed(dnswire.Question{Name: "big.example.com.", Type: dnswire.TypeAAAA, Class: dnswire.ClassINET}),
					answers: 30, tc: true, moved: func(s Stats) int64 { return s.CacheAnswers }},
				{kind: "local-root junk", q: func(m ednsMode) dnswire.Question { return a(dnswire.Name(fmt.Sprintf("host%d.bogus-zz.", m))) },
					rcode: dnswire.RcodeNXDomain, ad: true, moved: func(s Stats) int64 { return s.LocalRootConsults }},
				{kind: "local-root apex data", q: func(m ednsMode) dnswire.Question {
					return dnswire.Question{Name: ".", Type: []dnswire.Type{dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeDNSKEY}[m], Class: dnswire.ClassINET}
				}, answers: -1, ad: true, moved: func(s Stats) int64 { return s.LocalRootConsults }},
				{kind: "local-root nodata", q: func(m ednsMode) dnswire.Question {
					return dnswire.Question{Name: ".", Type: []dnswire.Type{dnswire.TypeA, dnswire.TypeMX, dnswire.TypeTXT}[m], Class: dnswire.ClassINET}
				}, ad: true, moved: func(s Stats) int64 { return s.LocalRootConsults }},
				{kind: "plain miss", q: func(m ednsMode) dnswire.Question {
					// The second is cached as far as its CNAME: a probe that
					// gets halfway must leave nothing counted behind.
					return []dnswire.Question{a("deep.sub.example.com."),
						{Name: "alias.example.com.", Type: dnswire.TypeTXT, Class: dnswire.ClassINET},
						{Name: "text.example.com.", Type: dnswire.TypeTXT, Class: dnswire.ClassINET}}[m]
				}, answers: 1, miss: true, moved: func(s Stats) int64 { return s.TotalQueries }},
			}},
		{doorWorld{"hints+nsec", RootModeHints, signed(func(c *Config) { c.NSECAggressive = true }),
			[]dnswire.Question{a("one.invalid-zz.")}},
			[]probe{{kind: "nsec-synthesized", q: func(m ednsMode) dnswire.Question { return a(dnswire.Name(fmt.Sprintf("n%d.dd-zz.", m))) },
				rcode: dnswire.RcodeNXDomain, ad: true, moved: func(s Stats) int64 { return s.NSECSynthesized }}}},
		{doorWorld{"hints+cut", RootModeHints, func(*topo) []func(*Config) { return []func(*Config){func(c *Config) { c.NXDomainCut = true }} },
			[]dnswire.Question{a("junk.printer-zz.")}},
			[]probe{{kind: "cut-covered", q: func(m ednsMode) dnswire.Question { return a(dnswire.Name(fmt.Sprintf("u%d.printer-zz.", m))) },
				rcode: dnswire.RcodeNXDomain, moved: func(s Stats) int64 { return s.NXDomainCutHits }}}},
	}

	for _, w := range worlds {
		worker, pool := w.build(t), w.build(t)
		worker.r.Cache().Put(big, false)
		pool.r.Cache().Put(big, false)
		for _, p := range w.probes {
			for mode := noOPT; mode <= withDO; mode++ {
				q := p.q(mode)
				name := fmt.Sprintf("%s/%s/%s/edns%d", w.name, p.kind, q.Name, mode)
				req := packQuery(t, 0x4000|uint16(mode), q.Name, q.Type, mode)

				before := worker.read()
				door0 := worker.srv.FrontDoorStats()
				got := worker.srv.serveDatagram(req, udpengine.Peer{}, nil)
				door1 := worker.srv.FrontDoorStats()
				if p.miss {
					if got != nil || door1.Pool != door0.Pool+1 {
						t.Fatalf("%s: needs upstream work but was not handed to the pool (reply %x)", name, got)
					}
					// Its pool goroutine answers a Peer that goes nowhere;
					// wait for the resolution it runs.
					for deadline := time.Now().Add(5 * time.Second); worker.r.latency.Count() == before.latCount; {
						if time.Now().After(deadline) {
							t.Fatalf("%s: the pool never resolved it", name)
						}
						time.Sleep(time.Millisecond)
					}
				} else if got == nil || door1.Sync != door0.Sync+1 {
					t.Fatalf("%s: not answered on the worker (front door %+v -> %+v)", name, door0, door1)
				}
				workerMoved := worker.read().minus(before)

				before = pool.read()
				var parsed dnswire.Query
				if err := parsed.Parse(req); err != nil {
					t.Fatal(err)
				}
				want := pool.srv.answerJob(&job{q: parsed}, nil)
				poolMoved := pool.read().minus(before)

				if !p.miss && !bytes.Equal(got, want) {
					t.Errorf("%s: routes disagree\nworker %x\npool   %x", name, got, want)
				}
				if workerMoved != poolMoved {
					t.Errorf("%s: accounting differs\nworker %+v\npool   %+v", name, workerMoved, poolMoved)
				}
				if workerMoved.stats.Resolutions != 1 || workerMoved.latCount != 1 || workerMoved.observed != 1 || p.moved(workerMoved.stats) == 0 {
					t.Errorf("%s: the query was not counted as the %s it is: %+v", name, p.kind, workerMoved)
				}

				// Equal is not yet right: read the reply back.
				var m dnswire.Message
				if err := m.Unpack(want); err != nil {
					t.Fatalf("%s: reply does not parse: %v", name, err)
				}
				opt, size, do := m.EDNS()
				switch {
				case m.ID != 0x4000|uint16(mode) || !m.Response || !m.RecursionDesired || !m.RecursionAvailable:
					t.Errorf("%s: header %+v", name, m)
				case len(m.Questions) != 1 || m.Questions[0] != q:
					t.Errorf("%s: question %v", name, m.Questions)
				case m.Rcode != p.rcode || m.AuthenticData != p.ad:
					t.Errorf("%s: rcode %s AD %v, want %s %v", name, m.Rcode, m.AuthenticData, p.rcode, p.ad)
				case (opt != nil) != (mode != noOPT) || (opt != nil && (size != dnswire.DefaultEDNSSize || do != (mode == withDO))):
					t.Errorf("%s: OPT %v size %d DO %v", name, opt, size, do)
				case p.tc && mode == noOPT:
					if !m.Truncated || len(m.Answers) != 0 || len(want) > dnswire.MaxUDPSize {
						t.Errorf("%s: %d octets, TC %v, %d answers to a client that takes 512", name, len(want), m.Truncated, len(m.Answers))
					}
				case m.Truncated:
					t.Errorf("%s: truncated", name)
				case p.answers >= 0 && len(m.Answers) != p.answers, p.answers < 0 && len(m.Answers) == 0:
					t.Errorf("%s: %d answers, want %d", name, len(m.Answers), p.answers)
				}
			}
		}
	}
}

// TestFrontDoorTruncates pins the UDP size rules on their own: a
// 30-record RRset to a client without EDNS comes back inside 512 octets
// with TC set and no OPT; the same question with a 4096-octet OPT comes
// back whole and carries one.
func TestFrontDoorTruncates(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints)
	var rrs []dnswire.RR
	for i := 0; i < 30; i++ {
		rrs = append(rrs, dnswire.NewRR("big.example.com.", 300, dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})}))
	}
	r.Cache().Put(rrs, false)
	srv := NewServer(r)

	var m dnswire.Message
	out := srv.serveDatagram(packQuery(t, 1, "big.example.com.", dnswire.TypeA, noOPT), udpengine.Peer{}, nil)
	if err := m.Unpack(out); err != nil {
		t.Fatal(err)
	}
	if opt, _, _ := m.EDNS(); len(out) > 512 || !m.Truncated || len(m.Answers) != 0 || len(m.Questions) != 1 || opt != nil {
		t.Errorf("no EDNS: %d octets, TC %v, %d answers, OPT %v", len(out), m.Truncated, len(m.Answers), opt)
	}
	out = srv.serveDatagram(packQuery(t, 2, "big.example.com.", dnswire.TypeA, withOPT), udpengine.Peer{}, nil)
	if err := m.Unpack(out); err != nil {
		t.Fatal(err)
	}
	if opt, size, _ := m.EDNS(); m.Truncated || len(m.Answers) != 30 || opt == nil || size != dnswire.DefaultEDNSSize {
		t.Errorf("4096 OPT: TC %v, %d answers, OPT %v size %d", m.Truncated, len(m.Answers), opt, size)
	}
	// An OPT that advertises less than 512 is read as 512.
	q := dnswire.NewQuery(3, "www.example.com.", dnswire.TypeA)
	q.SetEDNS(100, false)
	wire, _ := q.Pack()
	r.Cache().Put([]dnswire.RR{dnswire.NewRR("www.example.com.", 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.80")})}, false)
	if err := m.Unpack(srv.serveDatagram(wire, udpengine.Peer{}, nil)); err != nil || m.Truncated || len(m.Answers) != 1 {
		t.Errorf("size 100: err %v TC %v answers %d", err, m.Truncated, len(m.Answers))
	}
}

// TestFrontDoorRefusals: what is answered without being looked up.
func TestFrontDoorRefusals(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeLookaside)
	srv := NewServer(r)
	notify := dnswire.NewQuery(1, "example.com.", dnswire.TypeSOA)
	notify.Opcode = dnswire.OpcodeNotify
	chaos := dnswire.NewQuery(2, "version.bind.", dnswire.TypeTXT)
	chaos.Questions[0].Class = 3
	two := dnswire.NewQuery(3, "a.example.", dnswire.TypeA)
	two.Questions = append(two.Questions, two.Questions[0])
	none := dnswire.NewQuery(4, "a.example.", dnswire.TypeA)
	none.Questions = nil
	for _, c := range []struct {
		q         *dnswire.Message
		rcode     dnswire.Rcode
		questions int
	}{
		{notify, dnswire.RcodeNotImpl, 1}, {chaos, dnswire.RcodeRefused, 1},
		{two, dnswire.RcodeFormat, 0}, {none, dnswire.RcodeFormat, 0},
	} {
		wire, err := c.q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		var m dnswire.Message
		if err := m.Unpack(srv.serveDatagram(wire, udpengine.Peer{}, nil)); err != nil {
			t.Fatalf("%v: %v", c.q.Questions, err)
		}
		if m.ID != c.q.ID || !m.Response || m.Opcode != c.q.Opcode || m.Rcode != c.rcode || len(m.Questions) != c.questions {
			t.Errorf("%v: replied %+v, want %s with %d questions", c.q.Questions, m, c.rcode, c.questions)
		}
	}
	if st := r.Stats(); st.Resolutions != 0 {
		t.Errorf("refusals reached the resolver: %d resolutions", st.Resolutions)
	}
	wire, _ := dnswire.NewQuery(5, "www.example.com.", dnswire.TypeA).Pack()
	for _, bad := range [][]byte{nil, wire[:11], wire[:len(wire)-2], append(append([]byte{}, wire...), 0)} {
		if out := srv.serveDatagram(bad, udpengine.Peer{}, nil); out != nil {
			t.Errorf("malformed datagram %x answered with %x", bad, out)
		}
	}
	if st := srv.FrontDoorStats(); st.Sync != 4 || st.Malformed != 4 || st.Pool+st.Shed+st.Limited != 0 {
		t.Errorf("front door counted %+v, want 4 sync and 4 malformed", st)
	}

	// A limited client is turned away before it is parsed, and all five
	// verdicts reach /metrics as one family.
	srv.SetClientLimit(1, 1)
	r.Cache().Put([]dnswire.RR{dnswire.NewRR("www.example.com.", 60, dnswire.A{Addr: exampleV4})}, false)
	srv.serveDatagram(wire, udpengine.Peer{Addr: netip.MustParseAddrPort("192.0.2.9:5353")}, nil)
	srv.serveDatagram(wire, udpengine.Peer{Addr: netip.MustParseAddrPort("192.0.2.9:5353")}, nil)
	reg := obs.NewRegistry()
	reg.AddCollector(srv)
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`rootless_resolver_frontdoor_total{path="sync"} 5`,
		`rootless_resolver_frontdoor_total{path="pool"} 0`,
		`rootless_resolver_frontdoor_total{path="shed"} 0`,
		`rootless_resolver_frontdoor_total{path="malformed"} 4`,
		`rootless_resolver_frontdoor_total{path="limited"} 1`,
	} {
		if !bytes.Contains(text.Bytes(), []byte(line+"\n")) {
			t.Errorf("/metrics lacks %q:\n%s", line, text.Bytes())
		}
	}
}

// TestFrontDoorAllocs pins what a datagram costs on the socket worker:
// a cache hit allocates nothing, with the latency summary and the traffic
// analyzer attached — the question name is a view of the Query on the
// worker's stack, and nothing on a hit keeps it. Junk that dies at the
// local root allocates what it leaves behind: the copy of the name its
// negative-cache entry is keyed by, the SOA slice of the zone lookup, and
// the entry and LRU element. (The analyzer is left off there: a stream
// of never-repeated names makes its top-K table admit a newcomer per
// query, which is its cost, not the front door's.)
func TestFrontDoorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts not meaningful")
	}
	tp := newTopo(t)
	buf := make([]byte, 0, 4096)

	r := tp.resolver(t, RootModeLookaside)
	r.SetTraffic(traffic.NewAnalyzer(traffic.NewTLDSet([]dnswire.Name{"com.", "org."}), 8))
	r.Instrument(obs.NewRegistry())
	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	hit := packQuery(t, 1, "www.example.com.", dnswire.TypeA, withDO)
	if got := testing.AllocsPerRun(200, func() {
		if out := srv.serveDatagram(hit, udpengine.Peer{}, buf); len(out) == 0 {
			t.Fatal("cache hit not answered on the worker")
		}
	}); got != 0 {
		t.Errorf("cache hit: %v allocs/datagram, want 0", got)
	}

	const runs = 200
	r = tp.resolver(t, RootModeLookaside)
	r.Instrument(obs.NewRegistry())
	srv = NewServer(r)
	junk := make([][]byte, runs+1) // AllocsPerRun makes one warm-up call
	for i := range junk {
		junk[i] = packQuery(t, 2, dnswire.Name(fmt.Sprintf("h%d.junk%d-zz.", i, i)), dnswire.TypeA, withDO)
	}
	next := 0
	if got := testing.AllocsPerRun(runs, func() {
		out := srv.serveDatagram(junk[next], udpengine.Peer{}, buf)
		next++
		if len(out) < 4 || dnswire.Rcode(out[3]&0xF) != dnswire.RcodeNXDomain {
			t.Fatalf("junk not denied on the worker: %x", out)
		}
	}); got > 4 {
		t.Errorf("local-root junk: %v allocs/datagram, want <= 4", got)
	} else {
		t.Logf("local-root junk: %v allocs/datagram", got)
	}
	if st := srv.FrontDoorStats(); st.Pool != 0 || st.Sync != runs+1 {
		t.Errorf("front door counted %+v, want everything answered on the worker", st)
	}
}

// serveLoopback puts srv behind a real socket and returns a connected
// client.
func serveLoopback(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.ServeUDP(ctx, conn) }()
	t.Cleanup(func() { cancel(); <-done })
	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// TestResponseDatagramNotAnswered: a datagram with QR set is a response,
// and answering it would let one spoofed packet make two servers reply
// to each other for good. Over a real socket it must get silence, be
// counted, and leave the server answering the query that follows it.
func TestResponseDatagramNotAnswered(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeLookaside)
	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	client := serveLoopback(t, srv)

	reflected := packQuery(t, 1, "www.example.com.", dnswire.TypeA, noOPT)
	reflected[2] |= 0x80
	for _, wire := range [][]byte{reflected, packQuery(t, 2, "www.example.com.", dnswire.TypeA, noOPT)} {
		if _, err := client.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	// The socket is served in order, so the first reply to arrive says
	// whether the response datagram was answered.
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if id := uint16(buf[0])<<8 | uint16(buf[1]); n < 12 || id != 2 {
		t.Fatalf("first reply has ID %d: the response datagram was answered", id)
	}
	if st := srv.FrontDoorStats(); st.Malformed != 1 || st.Sync != 1 {
		t.Errorf("front door counted %+v, want 1 malformed and 1 sync", st)
	}
	if got := r.Stats().Resolutions; got != 2 { // the warm-up and the real query
		t.Errorf("Resolutions = %d, want 2: the response datagram reached the resolver", got)
	}
}

// gatedTransport parks every exchange about a name under hold until
// released.
type gatedTransport struct {
	inner   Transport
	hold    dnswire.Name
	release chan struct{}
}

func (g *gatedTransport) Exchange(dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	if len(q.Questions) == 1 && q.Questions[0].Name.IsSubdomainOf(g.hold) {
		<-g.release
	}
	return g.inner.Exchange(dst, q)
}

// lockedTransport serialises a transport that is not safe for concurrent
// use (netsim's client advances one virtual clock).
type lockedTransport struct {
	mu    sync.Mutex
	inner Transport
}

func (l *lockedTransport) Exchange(dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.inner.Exchange(dst, q)
}

// TestFrontDoorFloodIsBounded sends ten times the pool's bound of
// questions whose upstream never answers. The pool must fill and stop
// there: goroutines stay within the bound, the excess is shed on the
// socket worker and counted, cache hits keep being answered meanwhile;
// and once the upstream answers, every admitted question gets its reply
// and the idle pool goroutines go away.
func TestFrontDoorFloodIsBounded(t *testing.T) {
	const maxInflight = 4
	const bound = poolPerInflight * maxInflight
	const flood = 10 * bound
	tp := newTopo(t)
	gate := &gatedTransport{hold: "hang.example.com.", release: make(chan struct{})}
	r := tp.resolver(t, RootModeLookaside, func(c *Config) {
		gate.inner = &lockedTransport{inner: c.Transport}
		c.Transport = gate
		c.MaxInflight = maxInflight
		c.QueueDeadline = time.Minute // the gate queues; only the pool sheds
	})
	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err) // warms the delegation chain: each flood name costs one parked exchange
	}
	srv := NewServer(r)
	if srv.bound != bound {
		t.Fatalf("pool bound %d, want %d from MaxInflight %d", srv.bound, bound, maxInflight)
	}
	srv.idleExit = 50 * time.Millisecond
	client := serveLoopback(t, srv)
	buf := make([]byte, 4096)
	askKnown := func() {
		t.Helper()
		if _, err := client.Write(packQuery(t, 7, "www.example.com.", dnswire.TypeA, noOPT)); err != nil {
			t.Fatal(err)
		}
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := client.Read(buf); err != nil || n < 12 || buf[1] != 7 {
			t.Fatalf("cache hit: n=%d err=%v id=%d", n, err, buf[1])
		}
	}
	askKnown() // the engine's goroutines are all up once it has answered
	baseline := runtime.NumGoroutine()

	for i := 0; i < flood; i++ {
		name := dnswire.Name(fmt.Sprintf("h%d.hang.example.com.", i))
		if _, err := client.Write(packQuery(t, uint16(1000+i), name, dnswire.TypeA, noOPT)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the flood to be read", func() bool {
		st := srv.FrontDoorStats()
		return st.Pool+st.Shed == flood
	})
	if st := srv.FrontDoorStats(); st.Pool != bound || st.Shed != flood-bound {
		t.Errorf("front door counted %+v, want %d to the pool and %d shed", st, bound, flood-bound)
	}
	if n := runtime.NumGoroutine(); n > baseline+bound+2 {
		t.Errorf("%d goroutines with the pool full, want <= %d + %d", n, baseline, bound)
	}
	askKnown() // what the resolver knows is still answered, from the worker

	close(gate.release)
	answered := make(map[uint16]bool)
	for len(answered) < bound {
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := client.Read(buf)
		if err != nil {
			t.Fatalf("%d of %d admitted questions answered: %v", len(answered), bound, err)
		}
		var m dnswire.Message
		if err := m.Unpack(buf[:n]); err != nil {
			t.Fatal(err)
		}
		if m.ID < 1000 || m.ID >= 1000+flood || answered[m.ID] || m.Rcode != dnswire.RcodeNXDomain {
			t.Fatalf("unexpected reply id=%d rcode=%s (repeat %v)", m.ID, m.Rcode, answered[m.ID])
		}
		answered[m.ID] = true
	}
	waitFor(t, "idle pool goroutines to exit", func() bool { return srv.workers.Load() == 0 })
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after the pool drained, %d before the flood\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestPoolKeepsNoView hammers the miss pool over a real socket with
// distinct names from several clients at once, some asked by two clients
// together so that flights are shared. The socket worker reads the
// question name as a view of its Query, and a pool goroutine reuses one
// job for every question it takes: what a miss keeps — the flight key,
// the negative-cache entry keyed by the question — must be a copy. So
// every name asked must still be cached under itself, each record under
// its own owner, and the flight table must end empty.
func TestPoolKeepsNoView(t *testing.T) {
	const clients, perClient = 6, 40
	tp := newTopo(t)
	r := tp.resolver(t, RootModeLookaside, func(c *Config) {
		c.Transport = &lockedTransport{inner: c.Transport}
		c.Coalesce, c.MaxInflight = true, clients
	})
	srv := NewServer(r)
	names := func(c int) []dnswire.Name {
		var out []dnswire.Name
		for i := 0; i < perClient; i++ {
			out = append(out, dnswire.Name(fmt.Sprintf("h%d-%d.example.com.", c, i)))
			if i%4 == 0 { // asked by clients c and c+1 alike
				out = append(out, dnswire.Name(fmt.Sprintf("shared%d-%d.example.com.", c/2, i)))
			}
		}
		return append(out, "www.example.com.", "deep.sub.example.com.")
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		client := serveLoopback(t, srv)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i, name := range names(c) {
				id := uint16(c<<10 | i)
				if _, err := client.Write(packQuery(t, id, name, dnswire.TypeA, withOPT)); err != nil {
					t.Error(err)
					return
				}
				client.SetReadDeadline(time.Now().Add(10 * time.Second))
				n, err := client.Read(buf)
				var m dnswire.Message
				if err == nil {
					err = m.Unpack(buf[:n])
				}
				if err != nil || m.ID != id || len(m.Questions) != 1 || m.Questions[0].Name != name {
					t.Errorf("client %d, %s: %v, reply %v", c, name, err, m.Questions)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := srv.FrontDoorStats(); st.Pool == 0 || st.Shed != 0 {
		t.Errorf("front door counted %+v: want misses on the pool and none shed", st)
	}
	if n := r.flight.Inflight(); n != 0 {
		t.Errorf("%d flights left in the table", n)
	}
	for c := 0; c < clients; c++ {
		for _, name := range names(c) {
			hit, ok := r.cache.Get(name, dnswire.TypeA)
			if !ok {
				t.Errorf("%s is not cached under its own name", name)
				continue
			}
			for _, rr := range hit.RRs {
				if rr.Name != name {
					t.Errorf("%s is cached with a record owned by %s", name, rr.Name)
				}
			}
		}
	}
}
