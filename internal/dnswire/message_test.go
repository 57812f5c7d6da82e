package dnswire

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

func sampleRRs() []RR {
	return []RR{
		NewRR("example.com.", 300, A{Addr: mustAddr("192.0.2.1")}),
		NewRR("example.com.", 300, AAAA{Addr: mustAddr("2001:db8::1")}),
		NewRR("example.com.", 172800, NS{Host: "ns1.example.com."}),
		NewRR("www.example.com.", 60, CNAME{Target: "example.com."}),
		NewRR("example.com.", 86400, SOA{
			MName: "ns1.example.com.", RName: "hostmaster.example.com.",
			Serial: 2019041100, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		}),
		NewRR("example.com.", 3600, MX{Preference: 10, Host: "mail.example.com."}),
		NewRR("example.com.", 3600, TXT{Strings: []string{"v=spf1 -all", "second"}}),
		NewRR("_sip._tcp.example.com.", 600, SRV{Priority: 1, Weight: 5, Port: 5060, Target: "sip.example.com."}),
		NewRR("1.2.0.192.in-addr.arpa.", 600, PTR{Target: "example.com."}),
		NewRR("example.com.", 86400, DS{KeyTag: 12345, Algorithm: AlgEd25519, DigestType: 2, Digest: []byte{1, 2, 3, 4}}),
		NewRR("example.com.", 86400, DNSKEY{Flags: DNSKEYFlagZone, Protocol: 3, Algorithm: AlgEd25519, PublicKey: []byte{9, 8, 7}}),
		NewRR("example.com.", 86400, RRSIG{
			TypeCovered: TypeNS, Algorithm: AlgEd25519, Labels: 2, OrigTTL: 172800,
			Expiration: 1600000000, Inception: 1590000000, KeyTag: 4242,
			SignerName: "example.com.", Signature: []byte{0xde, 0xad, 0xbe, 0xef},
		}),
		NewRR("example.com.", 86400, NSEC{NextName: "ftp.example.com.", Types: []Type{TypeA, TypeNS, TypeSOA, TypeRRSIG, TypeCAA}}),
		NewRR("example.com.", 86400, ZONEMD{Serial: 2019041100, Scheme: ZONEMDSchemeSimple, Hash: ZONEMDHashSHA256, Digest: make([]byte, 32)}),
		NewRR("example.com.", 3600, CAA{Flags: 0, Tag: "issue", Value: "ca.example.net"}),
		{Name: "example.com.", Type: Type(999), Class: ClassINET, TTL: 60,
			Data: Unknown{RRType: Type(999), Data: []byte{1, 2, 3}}},
	}
}

func TestRRRoundTrip(t *testing.T) {
	for _, rr := range sampleRRs() {
		wire, err := appendRR(nil, rr, nil)
		if err != nil {
			t.Fatalf("appendRR(%s): %v", rr.Type, err)
		}
		u := newUnpacker()
		got, off, err := unpackRR(u, wire, 0, false)
		u.release()
		if err != nil {
			t.Fatalf("unpackRR(%s): %v", rr.Type, err)
		}
		if off != len(wire) {
			t.Errorf("%s: offset %d, want %d", rr.Type, off, len(wire))
		}
		if !reflect.DeepEqual(got, rr) {
			t.Errorf("%s round trip:\n got %+v\nwant %+v", rr.Type, got, rr)
		}
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		ID:                 0xBEEF,
		Opcode:             OpcodeQuery,
		Rcode:              RcodeSuccess,
		Response:           true,
		Authoritative:      true,
		RecursionDesired:   true,
		RecursionAvailable: true,
		Questions:          []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}},
		Answers:            sampleRRs()[:4],
		Authority:          []RR{NewRR("example.com.", 172800, NS{Host: "ns2.example.com."})},
		Additional:         []RR{NewRR("ns2.example.com.", 172800, A{Addr: mustAddr("192.0.2.53")})},
	}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Errorf("message round trip:\n got %s\nwant %s", got.String(), m.String())
	}
}

func TestMessageCompressionShrinks(t *testing.T) {
	m := &Message{ID: 1, Questions: []Question{{Name: "a.verylongdomainnamelabel.example.", Type: TypeNS, Class: ClassINET}}}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers,
			NewRR("a.verylongdomainnamelabel.example.", 60, NS{Host: "ns.verylongdomainnamelabel.example."}))
	}
	compressed, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Rough uncompressed size estimate: every record repeats two long names.
	var uncompressed int
	for _, rr := range m.Answers {
		w, _ := rr.AppendCanonicalWire(nil)
		uncompressed += len(w)
	}
	if len(compressed) >= uncompressed {
		t.Errorf("compression did not shrink: %d >= %d", len(compressed), uncompressed)
	}
	var got Message
	if err := got.Unpack(compressed); err != nil {
		t.Fatal(err)
	}
	if len(got.Answers) != 10 || got.Answers[9].Data.(NS).Host != "ns.verylongdomainnamelabel.example." {
		t.Error("compressed message did not decode faithfully")
	}
}

func TestMessageFlags(t *testing.T) {
	m := &Message{ID: 7, Opcode: OpcodeNotify, Rcode: RcodeRefused,
		Truncated: true, AuthenticData: true, CheckingDisabled: true}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got.Opcode != OpcodeNotify || got.Rcode != RcodeRefused ||
		!got.Truncated || !got.AuthenticData || !got.CheckingDisabled ||
		got.Response || got.Authoritative {
		t.Errorf("flags mismatched: %+v", got)
	}
}

func TestEDNS(t *testing.T) {
	m := NewQuery(42, "example.com.", TypeA)
	m.SetEDNS(DefaultEDNSSize, true)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	opt, size, do := got.EDNS()
	if opt == nil || size != DefaultEDNSSize || !do {
		t.Fatalf("EDNS = %v, %d, %v", opt, size, do)
	}
	// Replacing EDNS must not duplicate the OPT record.
	m.SetEDNS(MaxUDPSize, false)
	count := 0
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			count++
		}
	}
	if count != 1 {
		t.Errorf("OPT records = %d, want 1", count)
	}
}

func TestUnpackErrors(t *testing.T) {
	var m Message
	if err := m.Unpack(nil); err == nil {
		t.Error("empty message should fail")
	}
	if err := m.Unpack(make([]byte, 11)); err == nil {
		t.Error("11-byte message should fail")
	}
	// Claim one question but supply none.
	hdr := make([]byte, 12)
	hdr[5] = 1
	if err := m.Unpack(hdr); err == nil {
		t.Error("missing question should fail")
	}
	// Trailing garbage.
	q := NewQuery(1, "example.com.", TypeA)
	wire, _ := q.Pack()
	if err := m.Unpack(append(wire, 0xFF)); err != ErrTrailingBytes {
		t.Errorf("trailing bytes: got %v", err)
	}
}

func TestTruncatedRDataRejected(t *testing.T) {
	rr := NewRR("example.com.", 60, A{Addr: mustAddr("192.0.2.1")})
	m := &Message{ID: 1, Answers: []RR{rr}}
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Chop off the last byte of the A rdata.
	var got Message
	if err := got.Unpack(wire[:len(wire)-1]); err == nil {
		t.Error("truncated rdata should fail")
	}
}

func TestTypeClassStrings(t *testing.T) {
	if TypeNS.String() != "NS" || Type(4242).String() != "TYPE4242" {
		t.Error("Type.String")
	}
	if ClassINET.String() != "IN" || Class(42).String() != "CLASS42" {
		t.Error("Class.String")
	}
	for _, s := range []string{"A", "NS", "SOA", "TYPE4242"} {
		typ, err := ParseType(s)
		if err != nil {
			t.Errorf("ParseType(%q): %v", s, err)
		}
		if typ.String() != s {
			t.Errorf("ParseType(%q).String() = %q", s, typ)
		}
	}
	if _, err := ParseType("NOPE"); err == nil {
		t.Error("ParseType should reject NOPE")
	}
	if c, err := ParseClass("IN"); err != nil || c != ClassINET {
		t.Error("ParseClass IN")
	}
	if c, err := ParseClass("CLASS7"); err != nil || c != Class(7) {
		t.Error("ParseClass CLASS7")
	}
	if _, err := ParseClass("XX"); err == nil {
		t.Error("ParseClass should reject XX")
	}
	if RcodeNXDomain.String() != "NXDOMAIN" || Rcode(13).String() != "RCODE13" {
		t.Error("Rcode.String")
	}
	if OpcodeQuery.String() != "QUERY" || Opcode(7).String() != "OPCODE7" {
		t.Error("Opcode.String")
	}
}

func TestKeyTagStable(t *testing.T) {
	k := DNSKEY{Flags: DNSKEYFlagZone | DNSKEYFlagSEP, Protocol: 3, Algorithm: AlgEd25519,
		PublicKey: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	tag1, tag2 := k.KeyTag(), k.KeyTag()
	if tag1 != tag2 {
		t.Error("KeyTag is not deterministic")
	}
	k2 := k
	k2.PublicKey = []byte{1, 2, 3, 4, 5, 6, 7, 9}
	if k.KeyTag() == k2.KeyTag() {
		t.Error("KeyTag did not change with key material")
	}
}

func TestGroupRRsets(t *testing.T) {
	rrs := []RR{
		NewRR("a.example.", 60, A{Addr: mustAddr("192.0.2.1")}),
		NewRR("a.example.", 60, A{Addr: mustAddr("192.0.2.2")}),
		NewRR("a.example.", 60, NS{Host: "ns.example."}),
		NewRR("b.example.", 60, A{Addr: mustAddr("192.0.2.3")}),
	}
	order, sets := GroupRRsets(rrs)
	if len(order) != 3 {
		t.Fatalf("got %d rrsets, want 3", len(order))
	}
	if len(sets[RRsetKey{"a.example.", TypeA, ClassINET}]) != 2 {
		t.Error("a.example. A rrset should have 2 records")
	}
	if order[0] != (RRsetKey{"a.example.", TypeA, ClassINET}) {
		t.Error("order not preserved")
	}
}

// EachRRset must yield what GroupRRsets yields — same sets, same order,
// same records — on sections with few owners (so sets repeat, together and
// scattered), on both sides of the length where it stops scanning, and
// without touching the section.
func TestEachRRsetMatchesGroupRRsets(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	owners := []Name{"a.example.", "b.example.", "c.example."}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(12)
		if trial%10 == 0 {
			n = maxScanRRsets - 2 + r.Intn(5)
		}
		rrs := make([]RR, n)
		for i := range rrs {
			rrs[i] = NewRR(owners[r.Intn(len(owners))], uint32(i), A{Addr: mustAddr("192.0.2.1")})
			if r.Intn(3) == 0 {
				rrs[i] = NewRR(rrs[i].Name, uint32(i), NS{Host: "ns.example."})
			}
		}
		before := append([]RR(nil), rrs...)
		order, sets := GroupRRsets(rrs)
		var got [][]RR
		EachRRset(rrs, func(set []RR) { got = append(got, append([]RR(nil), set...)) })
		if len(got) != len(order) {
			t.Fatalf("trial %d: %d sets, want %d", trial, len(got), len(order))
		}
		for i, k := range order {
			if !reflect.DeepEqual(got[i], sets[k]) {
				t.Fatalf("trial %d: set %d = %v, want %v", trial, i, got[i], sets[k])
			}
		}
		if !reflect.DeepEqual(rrs, before) {
			t.Fatalf("trial %d: section modified", trial)
		}
	}
	// A section of whole sets, as messages carry them, costs nothing.
	msg := sampleRRs()
	if allocs := testing.AllocsPerRun(100, func() { EachRRset(msg, func([]RR) {}) }); allocs != 0 {
		t.Errorf("grouping a section of contiguous sets made %v allocations", allocs)
	}
}

// randomRR builds a random well-formed RR for property testing.
func randomRR(r *rand.Rand) RR {
	name := randomName(r)
	ttl := uint32(r.Intn(1 << 20))
	switch r.Intn(8) {
	case 0:
		var a4 [4]byte
		r.Read(a4[:])
		return NewRR(name, ttl, A{Addr: netip.AddrFrom4(a4)})
	case 1:
		var a16 [16]byte
		r.Read(a16[:])
		a16[0] = 0x20 // avoid 4-in-6 forms
		return NewRR(name, ttl, AAAA{Addr: netip.AddrFrom16(a16)})
	case 2:
		return NewRR(name, ttl, NS{Host: randomName(r)})
	case 3:
		return NewRR(name, ttl, CNAME{Target: randomName(r)})
	case 4:
		return NewRR(name, ttl, MX{Preference: uint16(r.Intn(1 << 16)), Host: randomName(r)})
	case 5:
		n := 1 + r.Intn(3)
		ss := make([]string, n)
		for i := range ss {
			b := make([]byte, r.Intn(50))
			r.Read(b)
			ss[i] = string(b)
		}
		return NewRR(name, ttl, TXT{Strings: ss})
	case 6:
		d := make([]byte, 1+r.Intn(40))
		r.Read(d)
		return NewRR(name, ttl, DS{KeyTag: uint16(r.Intn(1 << 16)), Algorithm: 15, DigestType: 2, Digest: d})
	default:
		d := make([]byte, 1+r.Intn(63))
		r.Read(d)
		return RR{Name: name, Type: Type(300 + r.Intn(100)), Class: ClassINET, TTL: ttl,
			Data: Unknown{RRType: Type(0), Data: d}}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{
			ID:        uint16(r.Intn(1 << 16)),
			Opcode:    Opcode(r.Intn(3)),
			Rcode:     Rcode(r.Intn(6)),
			Response:  r.Intn(2) == 0,
			Questions: []Question{{Name: randomName(r), Type: TypeA, Class: ClassINET}},
		}
		for i := 0; i < r.Intn(6); i++ {
			rr := randomRR(r)
			if u, ok := rr.Data.(Unknown); ok {
				u.RRType = rr.Type
				rr.Data = u
			}
			m.Answers = append(m.Answers, rr)
		}
		wire, err := m.Pack()
		if err != nil {
			t.Logf("pack: %v", err)
			return false
		}
		var got Message
		if err := got.Unpack(wire); err != nil {
			t.Logf("unpack: %v", err)
			return false
		}
		return reflect.DeepEqual(&got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnpackFuzzLikeGarbage(t *testing.T) {
	// Random bytes must never panic; errors are fine.
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(200))
		r.Read(b)
		var m Message
		_ = m.Unpack(b) // must not panic
	}
	// Mutated valid messages must never panic.
	q := NewQuery(9, "www.example.com.", TypeAAAA)
	q.Answers = sampleRRs()
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), wire...)
		b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
		var m Message
		_ = m.Unpack(b)
	}
}

func TestRRString(t *testing.T) {
	rr := NewRR("example.com.", 300, A{Addr: mustAddr("192.0.2.1")})
	want := "example.com.\t300\tIN\tA\t192.0.2.1"
	if rr.String() != want {
		t.Errorf("String = %q, want %q", rr.String(), want)
	}
}
