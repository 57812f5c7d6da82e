package resolver

import (
	"errors"
	"net/netip"
	"slices"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/dnswire/dnswiretest"
	"rootless/internal/udpengine"
)

// deadTransport fails every exchange at once: what the fuzz target's
// misses meet on the pool's goroutines.
type deadTransport struct{}

func (deadTransport) Exchange(netip.Addr, *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	return nil, 0, errors.New("no upstream")
}

// FuzzResolverDatagram drives the front door with arbitrary datagrams.
// It must never panic; it must never answer a datagram that is itself a
// response; and whatever it writes on the socket worker must parse, echo
// the query's ID and fit the size the query advertised (512 octets
// without EDNS, and never held to less).
func FuzzResolverDatagram(f *testing.F) {
	for _, seed := range dnswiretest.DatagramSeeds() {
		f.Add(seed)
	}
	tp := newTopo(f)
	r := tp.resolver(f, RootModeLookaside, func(c *Config) {
		c.Transport = deadTransport{}
		c.NXDomainCut = true
		c.MaxInflight = 2
	})
	r.Cache().Put([]dnswire.RR{dnswire.NewRR("www.example.com.", 3600, dnswire.A{Addr: exampleV4})}, false)
	srv := NewServer(r)
	srv.idleExit = 10 * time.Millisecond
	var buf []byte

	f.Fuzz(func(t *testing.T, data []byte) {
		out := srv.serveDatagram(data, udpengine.Peer{}, buf[:0])
		if len(out) == 0 {
			return // dropped, shed, or on its way through the pool
		}
		buf = out
		if data[2]&0x80 != 0 {
			t.Fatalf("answered a response datagram: %x", data)
		}
		var q dnswire.Query
		if err := q.Parse(data); err != nil && !errors.Is(err, dnswire.ErrQuestionCount) {
			t.Fatalf("answered a datagram it cannot parse (%v): %x", err, data)
		}
		if limit := max(dnswire.MaxUDPSize, int(q.UDPSize)); len(out) > limit {
			t.Fatalf("%d octets to a client that takes %d: %x", len(out), limit, data)
		}
		var m dnswire.Message
		if err := m.Unpack(out); err != nil {
			t.Fatalf("reply does not parse (%v): %x -> %x", err, data, out)
		}
		if m.ID != q.ID || !m.Response || m.Opcode != q.Opcode() {
			t.Fatalf("reply header %+v to %x", m, data)
		}
	})
}

// FuzzUpstreamResponse feeds arbitrary responses to the path that takes
// an upstream server's word: whatever a server of tld. sends, classifying
// it must not panic, and nothing owned outside tld. may be in the cache or
// the delegation table afterwards.
func FuzzUpstreamResponse(f *testing.F) {
	const zone = dnswire.Name("tld.")
	ns := dnswire.NewRR("d.tld.", 172800, dnswire.NS{Host: "ns1.d.tld."})
	glue := dnswire.NewRR("ns1.d.tld.", 172800, dnswire.A{Addr: exampleV4})
	foreignA := dnswire.NewRR("www.bank.example.", 3600, dnswire.A{Addr: localV4})
	foreignNS := dnswire.NewRR("bank.example.", 3600, dnswire.NS{Host: "www.bank.example."})
	soa := dnswire.NewRR("example.", 900, dnswire.SOA{MName: "ns.example.", RName: "h.example.", Minimum: 300})
	for _, m := range []*dnswire.Message{
		{Response: true, Authority: []dnswire.RR{ns}, Additional: []dnswire.RR{glue}},
		{Response: true, Authority: []dnswire.RR{ns, foreignNS}, Additional: []dnswire.RR{foreignA, glue}},
		{Response: true, Authority: []dnswire.RR{foreignNS}, Additional: []dnswire.RR{foreignA}},
		{Response: true, Authoritative: true, Answers: []dnswire.RR{
			dnswire.NewRR("h.d.tld.", 60, dnswire.CNAME{Target: "www.bank.example."}), foreignA}},
		{Response: true, Authoritative: true, Answers: []dnswire.RR{ns, foreignNS}, Additional: []dnswire.RR{glue, foreignA}},
		{Response: true, Authoritative: true, Rcode: dnswire.RcodeNXDomain, Authority: []dnswire.RR{soa}},
		{Response: true, Authoritative: true, Authority: []dnswire.RR{soa}},
	} {
		m.Questions = []dnswire.Question{{Name: "h.d.tld.", Type: dnswire.TypeA, Class: dnswire.ClassINET}}
		wire, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire, false)
		f.Add(wire, true)
	}
	w := newCutWorld(f)

	f.Fuzz(func(t *testing.T, data []byte, minimised bool) {
		var resp dnswire.Message
		if resp.Unpack(data) != nil {
			return
		}
		r := w.resolver(func(c *Config) { c.NXDomainCut = true; c.CacheShards = 1 })
		cur := &delegation{zone: zone, hosts: []dnswire.Name{"ns0.nic.tld."}}
		sentName, sentType := dnswire.Name("h.d.tld."), dnswire.TypeA
		if minimised {
			sentName, sentType = "d.tld.", dnswire.TypeNS
		}
		st := r.processResponse(cur, sentName, sentType, !minimised, &resp, nil)
		if !st.done && (st.next == nil || !st.next.zone.IsSubdomainOf(zone)) {
			t.Fatalf("iteration continues at %+v", st.next)
		}
		for _, rr := range st.rrs {
			if !rr.Name.IsSubdomainOf(zone) {
				t.Fatalf("%s %s is served from a response of %s's servers", rr.Name, rr.Type, zone)
			}
		}
		for _, section := range [][]dnswire.RR{resp.Answers, resp.Authority, resp.Additional} {
			for _, rr := range section {
				if rr.Name.IsSubdomainOf(zone) {
					continue
				}
				if r.cache.Peek(rr.Name, rr.Type) || r.cache.NXDomainCovered(rr.Name) {
					t.Fatalf("%s %s is in the cache on the word of %s's servers", rr.Name, rr.Type, zone)
				}
			}
		}
		for _, gen := range []map[dnswire.Name]*delegation{r.cuts.young, r.cuts.old} {
			for cut, d := range gen {
				if !descends(cut, zone) || d.zone != cut {
					t.Fatalf("delegation table holds %s -> %+v", cut, d)
				}
				if len(d.addrs) > 0 && !slices.ContainsFunc(resp.Additional, func(rr dnswire.RR) bool {
					return rr.Name.IsSubdomainOf(zone) && d.names(rr.Name)
				}) {
					t.Fatalf("%s has addresses %v that no in-zone glue for its hosts gave", cut, d.addrs)
				}
			}
		}
	})
}
