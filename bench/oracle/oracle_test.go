package oracle

import (
	"net/netip"
	"strings"
	"testing"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

const testZone = `
. 86400 IN SOA a.root-servers.net. nstld.verisign-grs.com. 2019041100 1800 900 604800 86400
. 518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 198.41.0.4
com. 172800 IN NS a.gtld-servers.net.
com. 172800 IN NS b.gtld-servers.net.
a.gtld-servers.net. 172800 IN A 192.5.6.30
b.gtld-servers.net. 172800 IN A 192.33.14.30
org. 172800 IN NS a0.org.afilias-nst.info.
`

func parseZone(t *testing.T) *zone.Zone {
	t.Helper()
	z, err := zone.Parse(strings.NewReader(testZone), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

// reply builds what an honest server answers from z.
func reply(z *zone.Zone, name dnswire.Name, typ dnswire.Type) *dnswire.Message {
	ans := z.Query(name, typ)
	return &dnswire.Message{
		Response: true, Rcode: ans.Rcode, Authoritative: ans.Authoritative,
		Questions: []dnswire.Question{{Name: name, Type: typ, Class: dnswire.ClassINET}},
		Answers:   ans.Answer, Authority: ans.Authority, Additional: ans.Additional,
	}
}

func TestHeader(t *testing.T) {
	m := reply(parseZone(t), "www.example.com.", dnswire.TypeA)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !Header(wire, dnswire.RcodeSuccess) {
		t.Fatal("a plain referral was refused")
	}
	if Header(wire, dnswire.RcodeNXDomain) {
		t.Fatal("NOERROR accepted where NXDOMAIN was expected")
	}
	for name, mutate := range map[string]func([]byte){
		"query, not response": func(b []byte) { b[2] &^= 0x80 },
		"truncated":           func(b []byte) { b[2] |= 0x02 },
		"opcode not QUERY":    func(b []byte) { b[2] |= 0x10 },
		"SERVFAIL":            func(b []byte) { b[3] = b[3]&0xf0 | 2 },
		"no question":         func(b []byte) { b[5] = 0 },
	} {
		bad := append([]byte(nil), wire...)
		mutate(bad)
		if Header(bad, dnswire.RcodeSuccess) {
			t.Errorf("%s: accepted", name)
		}
	}
	if Header(wire[:11], dnswire.RcodeSuccess) {
		t.Error("a short datagram was accepted")
	}
}

func TestAuthAcceptsTheZonesOwnAnswers(t *testing.T) {
	z := parseZone(t)
	for _, q := range []dnswire.Question{
		{Name: "www.example.com.", Type: dnswire.TypeA}, // referral
		{Name: "com.", Type: dnswire.TypeNS},            // referral at the cut
		{Name: ".", Type: dnswire.TypeNS},               // answer
		{Name: "nosuchtld.", Type: dnswire.TypeA},       // NXDOMAIN
	} {
		if err := Auth(z, reply(z, q.Name, q.Type), false, true); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
}

// A server that always answers quickly and wrongly must not pass.
func TestAuthRefusesWrongAnswers(t *testing.T) {
	z := parseZone(t)

	m := reply(z, "www.example.com.", dnswire.TypeA)
	m.Authority = m.Authority[:1]
	if err := Auth(z, m, false, true); err == nil {
		t.Error("a referral missing one of its NS records was accepted")
	}

	m = reply(z, "www.example.com.", dnswire.TypeA)
	m.Authority = reply(z, "www.example.org.", dnswire.TypeA).Authority
	if err := Auth(z, m, false, true); err == nil {
		t.Error("a referral to another TLD's servers was accepted")
	}

	m = reply(z, "nosuchtld.", dnswire.TypeA)
	m.Rcode = dnswire.RcodeSuccess
	if err := Auth(z, m, false, true); err == nil {
		t.Error("NOERROR for a name under no TLD was accepted")
	}

	m = reply(z, ".", dnswire.TypeNS)
	m.Answers = []dnswire.RR{dnswire.NewRR(".", 518400, dnswire.NS{Host: "evil.example."})}
	if err := Auth(z, m, false, true); err == nil {
		t.Error("a forged apex NS answer was accepted")
	}
	// Names and types still match, so the relaxed mode used while the
	// zone is being replaced lets it through; that is its stated limit.
	if err := Auth(z, m, false, false); err != nil {
		t.Errorf("relaxed mode compares names and types only: %v", err)
	}
}

func TestAuthWantsSignedDenialWhenDOIsSet(t *testing.T) {
	z := parseZone(t)
	m := reply(z, "nosuchtld.", dnswire.TypeA)
	if err := Auth(z, m, true, true); err == nil {
		t.Fatal("an NXDOMAIN with no NSEC passed the DO check")
	}
	nsec := dnswire.NewRR("com.", 86400, dnswire.NSEC{NextName: "org.", Types: []dnswire.Type{dnswire.TypeNS}})
	m.Authority = append(m.Authority, nsec)
	if err := Auth(z, m, true, true); err == nil {
		t.Fatal("an unsigned NSEC passed")
	}
	sig := dnswire.NewRR("com.", 86400, dnswire.RRSIG{TypeCovered: dnswire.TypeNSEC, SignerName: "."})
	m.Authority = append(m.Authority, sig)
	if err := Auth(z, m, true, true); err != nil {
		t.Fatalf("com. -> org. covers nosuchtld. and is signed: %v", err)
	}
	// The same proof does not cover a name outside its range.
	other := reply(z, "zzz.", dnswire.TypeA)
	other.Authority = append(other.Authority, nsec, sig)
	if err := Auth(z, other, true, true); err == nil {
		t.Fatal("com. -> org. was taken to cover zzz.")
	}
}

func TestCoversWrapsAtTheEndOfTheChain(t *testing.T) {
	for _, c := range []struct {
		owner, next, name dnswire.Name
		want              bool
	}{
		{"com.", "org.", "net.", true},
		{"com.", "org.", "com.", false}, // the owner exists
		{"com.", "org.", "zzz.", false},
		{"org.", ".", "zzz.", true}, // last link wraps to the apex
		{"org.", ".", "com.", false},
	} {
		if got := covers(c.owner, c.next, c.name); got != c.want {
			t.Errorf("covers(%s, %s, %s) = %v, want %v", c.owner, c.next, c.name, got, c.want)
		}
	}
}

func TestResolvedAndDenied(t *testing.T) {
	want := netip.MustParseAddr("203.0.1.2")
	addrFor := func(dnswire.Name) netip.Addr { return want }
	q := []dnswire.Question{{Name: "www.site1.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET}}
	good := &dnswire.Message{Response: true, Questions: q,
		Answers: []dnswire.RR{dnswire.NewRR("www.site1.com.", 3600, dnswire.A{Addr: want})}}
	if err := Resolved(good, addrFor); err != nil {
		t.Fatal(err)
	}
	wrong := &dnswire.Message{Response: true, Questions: q,
		Answers: []dnswire.RR{dnswire.NewRR("www.site1.com.", 3600, dnswire.A{Addr: netip.MustParseAddr("203.0.9.9")})}}
	if err := Resolved(wrong, addrFor); err == nil {
		t.Error("an answer with another address was accepted")
	}
	if err := Resolved(&dnswire.Message{Response: true, Questions: q}, addrFor); err == nil {
		t.Error("an empty answer was accepted")
	}
	if err := Resolved(&dnswire.Message{Response: true, Questions: q, Rcode: dnswire.RcodeServFail}, addrFor); err == nil {
		t.Error("SERVFAIL was accepted")
	}
	if err := Denied(&dnswire.Message{Response: true, Rcode: dnswire.RcodeNXDomain}); err != nil {
		t.Error(err)
	}
	if err := Denied(good); err == nil {
		t.Error("an answer for a junk name was accepted as a denial")
	}
}

func TestSamplerKeepsCopiesAndStopsWhenFull(t *testing.T) {
	s := NewSampler(2, 64)
	m := &dnswire.Message{ID: 7, Response: true,
		Questions: []dnswire.Question{{Name: "com.", Type: dnswire.TypeNS, Class: dnswire.ClassINET}}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), wire...)
	s.Add(1, 10, buf)
	for i := range buf {
		buf[i] = 0xff // the driver's receive buffer is reused at once
	}
	s.Add(2, 11, wire)
	s.Add(3, 12, wire)
	if s.Len() != 2 || s.Skipped != 1 {
		t.Fatalf("room for 2: kept %d, skipped %d", s.Len(), s.Skipped)
	}
	var seen []uint64
	rejected, first := s.Each(func(smp Sample, m *dnswire.Message) error {
		seen = append(seen, smp.Seq)
		if m.ID != 7 {
			t.Errorf("sample %d does not hold the bytes it was given", smp.Seq)
		}
		return nil
	})
	if rejected != 0 || first != nil || len(seen) != 2 || seen[0] != 10 || seen[1] != 11 {
		t.Fatalf("Each: rejected %d, %v, saw %v", rejected, first, seen)
	}
	if s.Len() != 0 {
		t.Fatal("Each did not empty the sampler")
	}
	s.Add(4, 13, []byte{1, 2, 3})
	if rejected, first := s.Each(func(Sample, *dnswire.Message) error { return nil }); rejected != 1 || first == nil {
		t.Fatalf("an unparseable sample must count as rejected: %d, %v", rejected, first)
	}
}
