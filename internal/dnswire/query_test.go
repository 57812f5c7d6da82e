package dnswire

import (
	"bytes"
	"errors"
	"net/netip"
	"strings"
	"testing"
)

// agreesWithUnpack checks that Query.Parse reads wire as Unpack does,
// and that the name it hands out behaves as a view: a copy taken from it
// survives the datagram and the next Parse, and a Query copied by value
// reads its own name.
func agreesWithUnpack(t *testing.T, wire []byte) {
	t.Helper()
	var m Message
	if err := m.Unpack(wire); err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	req := bytes.Clone(wire)
	var q Query
	if err := q.Parse(req); err != nil {
		t.Fatalf("Unpack accepts what Query.Parse refuses: %v\n%x", err, wire)
	}
	if q.ID != m.ID || q.Opcode() != m.Opcode ||
		(q.Flags&FlagRD != 0) != m.RecursionDesired || (q.Flags&FlagQR != 0) != m.Response {
		t.Errorf("header: Query %#04x/%#04x, Message %+v", q.ID, q.Flags, m)
	}
	want := m.Questions[0]
	if q.Name() != want.Name || q.Question() != want {
		t.Errorf("question: Query %v, Message %v", q.Question(), want)
	}
	opt, size, do := m.EDNS()
	if q.EDNS != (opt != nil) || q.UDPSize != size || q.DO != do {
		t.Errorf("EDNS: Query %v/%d/%v, Message %v/%d/%v", q.EDNS, q.UDPSize, q.DO, opt != nil, size, do)
	}
	if tc, _, _ := m.TraceOption(); q.Trace != tc {
		t.Errorf("trace: Query %+v, Message %+v", q.Trace, tc)
	}
	// A Message reads as its wire image does, but for the header's Z bit,
	// which a Message does not carry.
	const z = 0x0040
	fromMessage, err := m.Query()
	fromMessage.Flags |= q.Flags & z
	if err != nil || !sameQuery(&fromMessage, &q) {
		t.Errorf("Message.Query: %+v, %v; Parse: %+v", fromMessage.Question(), err, q.Question())
	}

	// Keep a copy of the name and a copy of the Query, then wipe the
	// datagram and parse another name into q.
	kept, copied := q.Name().Clone(), q
	clear(req)
	other := Name("other.invalid.")
	if other == want.Name {
		other = "another.invalid."
	}
	next, err := NewQuery(1, other, TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Parse(next); err != nil || q.Name() != other {
		t.Fatalf("second parse: %q, %v", q.Name(), err)
	}
	if kept != want.Name {
		t.Errorf("a copy of the name changed with the datagram and the next parse: %q, want %q", kept, want.Name)
	}
	if copied.Name() != want.Name {
		t.Errorf("a Query copied by value reads %q, want its own %q", copied.Name(), want.Name)
	}
}

// sameQuery reports whether a and b hold the same header, question and
// EDNS parameters.
func sameQuery(a, b *Query) bool {
	return a.ID == b.ID && a.Flags == b.Flags && a.Question() == b.Question() &&
		a.EDNS == b.EDNS && a.UDPSize == b.UDPSize && a.DO == b.DO && a.Trace == b.Trace
}

func TestQueryParseAgreesWithUnpack(t *testing.T) {
	plain := NewQuery(0x1234, "www.example.com.", TypeA)
	edns := NewQuery(2, "Example.ORG.", TypeAAAA)
	edns.SetEDNS(4096, false)
	do := NewQuery(3, ".", TypeNS)
	do.RecursionDesired = false
	do.SetEDNS(1232, true)
	traced := NewQuery(4, "example.com.", TypeA)
	traced.SetEDNS(1232, true)
	traced.SetTraceOption(TraceContext{TraceID: 7, SpanID: 9, Sampled: true}, nil)
	// Records in every section, and the OPT not last among the additionals.
	busy := NewQuery(5, "a.example.", TypeTXT)
	busy.Opcode = OpcodeNotify
	busy.Answers = sampleRRs()
	busy.Authority = []RR{NewRR("example.", 60, NS{Host: "ns.example."})}
	busy.SetEDNS(512, true)
	busy.Additional = append(busy.Additional, NewRR("ns.example.", 60, A{Addr: netip.MustParseAddr("192.0.2.1")}))
	// Two OPTs, the trace option on the second: only the first is read.
	twoOPT := NewQuery(6, "example.net.", TypeNS)
	twoOPT.SetEDNS(4096, false)
	twoOPT.Additional = append(twoOPT.Additional, RR{Name: Root, Type: TypeOPT, Class: 1232, TTL: 1 << 15,
		Data: OPT{Options: []EDNSOption{{Code: OptionCodeTrace, Data: TraceContext{TraceID: 3, Sampled: true}.Encode(nil)}}}})
	// A short trace option beside others: malformed, so no trace.
	badTrace := NewQuery(7, "example.net.", TypeNS)
	badTrace.SetEDNS(1232, false)
	badTrace.Additional[0].Data = OPT{Options: []EDNSOption{{Code: 10, Data: []byte{1, 2}}, {Code: OptionCodeTrace, Data: []byte{1}}}}
	for _, m := range []*Message{plain, edns, do, traced, busy, twoOPT, badTrace} {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		agreesWithUnpack(t, wire)
		wire[3] |= 0x40 // the Z bit, which only Query.Flags keeps
		agreesWithUnpack(t, wire)
	}
}

// A name whose presentation form outgrows the Query's array — octets that
// print as \DDD — is read as Unpack reads it, from a copy of its own.
func TestQueryParseLongName(t *testing.T) {
	label := strings.Repeat(`\000`, 60)
	name := MustParseName(label + "." + label + "." + label + "." + label + ".")
	if len(name) <= 256 || name.WireLen() > 255 {
		t.Fatalf("test name is %d octets, %d on the wire", len(name), name.WireLen())
	}
	wire, err := NewQuery(1, name, TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	agreesWithUnpack(t, wire)
}

func TestQueryParseErrors(t *testing.T) {
	wire, err := NewQuery(9, "example.com.", TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var q Query
	if err := q.Parse(wire[:11]); !errors.Is(err, ErrMessageTruncated) {
		t.Errorf("short header: %v", err)
	}
	for _, qd := range []byte{0, 2} {
		bad := append([]byte{}, wire...)
		bad[5] = qd
		if err := q.Parse(bad); err != ErrQuestionCount {
			t.Errorf("qdcount %d: %v, want ErrQuestionCount", qd, err)
		}
		if q.ID != 9 || q.Flags != FlagRD {
			t.Errorf("qdcount %d: header not filled in: %+v", qd, q)
		}
	}
	if err := q.Parse(append(append([]byte{}, wire...), 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("trailing byte: %v", err)
	}
	if err := q.Parse(wire[:len(wire)-1]); err == nil {
		t.Error("question cut short was accepted")
	}
	// An additional record whose rdlength runs past the datagram.
	over := append([]byte{}, wire...)
	over[11] = 1
	over = append(over, 0, 0, 41, 4, 0xD0, 0, 0, 0, 0, 0, 9, 1, 2)
	if err := q.Parse(over); err == nil {
		t.Error("record running past the datagram was accepted")
	}
	// A name that never ends.
	runaway := append([]byte{}, wire[:12]...)
	runaway = append(runaway, 0x3F, 'a')
	if err := q.Parse(runaway); err == nil {
		t.Error("runaway name was accepted")
	}
	// An option that overruns its OPT's rdata is refused as Unpack refuses
	// it, whichever OPT carries it.
	for _, section := range []int{7, 9, 11} { // ancount, nscount, arcount low bytes
		bad := append([]byte{}, wire...)
		bad[section] = 1
		bad = append(bad, 0, 0, 41, 4, 0xD0, 0, 0, 0, 0, 0, 6, 0xFF, 0x20, 0, 9, 1, 2)
		var m Message
		if err := m.Unpack(bad); err == nil {
			t.Fatalf("section %d: Unpack accepts the overrun option", section)
		}
		if err := q.Parse(bad); err == nil {
			t.Errorf("section %d: option overrunning its OPT was accepted", section)
		}
	}
}

func TestMessageQuery(t *testing.T) {
	m := NewQuery(3, "a.example.", TypeA)
	m.Questions = append(m.Questions, m.Questions[0])
	m.Opcode = OpcodeNotify
	q, err := m.Query()
	if err != ErrQuestionCount || q.ID != 3 || q.Opcode() != OpcodeNotify || q.Flags&FlagRD == 0 || q.Question() != (Question{}) {
		t.Errorf("two questions: %+v, %v", q, err)
	}
}

// Parse allocates nothing: the question name is decoded into the Query,
// and Name is a view of it.
func TestQueryParseAllocs(t *testing.T) {
	skipUnderRace(t)
	m := NewQuery(1, "www.example.com.", TypeA)
	m.SetEDNS(1232, true)
	wire, _ := m.Pack()
	var q Query
	got := testing.AllocsPerRun(200, func() {
		if err := q.Parse(wire); err != nil || q.Name() != "www.example.com." {
			t.Fatal(q.Name(), err)
		}
	})
	if got != 0 {
		t.Errorf("Query.Parse: %v allocs/op, want 0", got)
	}
}

// builderPack writes m's question, answers and OPT through a Builder.
func builderPack(t *testing.T, m *Message, buf []byte) []byte {
	t.Helper()
	var flags uint16
	hdr := *m
	hdr.Questions, hdr.Answers, hdr.Authority, hdr.Additional = nil, nil, nil, nil
	w, _ := hdr.Pack()
	flags = uint16(w[2])<<8 | uint16(w[3])
	var b Builder
	b.Start(buf, m.ID, flags)
	if err := b.Question(m.Questions[0]); err != nil {
		t.Fatal(err)
	}
	for _, rr := range m.Answers {
		if err := b.Answer(rr, rr.TTL); err != nil {
			t.Fatal(err)
		}
	}
	if _, size, do := m.EDNS(); size > 0 {
		b.OPT(size, do)
	}
	return b.Finish()
}

func TestBuilderMatchesAppendPack(t *testing.T) {
	m := &Message{
		ID: 0xBEEF, Response: true, RecursionDesired: true, RecursionAvailable: true, AuthenticData: true,
		Rcode:     RcodeSuccess,
		Questions: []Question{{Name: "alias.example.com.", Type: TypeA, Class: ClassINET}},
		Answers: []RR{
			NewRR("alias.example.com.", 300, CNAME{Target: "www.example.com."}),
			NewRR("www.example.com.", 60, A{Addr: netip.MustParseAddr("192.0.2.80")}),
			NewRR("www.example.com.", 60, A{Addr: netip.MustParseAddr("192.0.2.81")}),
		},
	}
	for _, edns := range []bool{false, true} {
		if edns {
			m.SetEDNS(DefaultEDNSSize, true)
		}
		want, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		// A dirty, too-small buffer: Start discards it, append grows it.
		got := builderPack(t, m, []byte("leftover"))
		if !bytes.Equal(got, want) {
			t.Errorf("edns=%v:\nBuilder    %x\nAppendPack %x", edns, got, want)
		}
	}
}

func TestBuilderTTLOverrideAndTruncate(t *testing.T) {
	q := Question{Name: "big.example.", Type: TypeA, Class: ClassINET}
	rr := NewRR("big.example.", 3600, A{Addr: netip.MustParseAddr("192.0.2.1")})
	var b Builder
	b.Start(nil, 1, FlagQR)
	if err := b.Question(q); err != nil {
		t.Fatal(err)
	}
	if err := b.Answer(rr, 17); err != nil {
		t.Fatal(err)
	}
	if rr.TTL != 3600 {
		t.Fatal("Answer changed the caller's record")
	}
	whole := append([]byte{}, b.buf...)
	b.Truncate()
	b.OPT(1232, true)
	cut := b.Finish()

	var m Message
	if err := m.Unpack(whole); err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].TTL != 17 {
		t.Errorf("answer went out as %+v, want TTL 17", m.Answers)
	}
	if err := m.Unpack(cut); err != nil {
		t.Fatalf("truncated message does not parse: %v", err)
	}
	_, size, do := m.EDNS()
	if !m.Truncated || len(m.Answers) != 0 || len(m.Questions) != 1 || size != 1232 || !do {
		t.Errorf("truncated message: %+v", m)
	}
}

func TestBuilderReuseAllocs(t *testing.T) {
	skipUnderRace(t)
	q := Question{Name: "www.example.com.", Type: TypeA, Class: ClassINET}
	rr := NewRR("www.example.com.", 3600, A{Addr: netip.MustParseAddr("192.0.2.1")})
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(200, func() {
		var b Builder
		b.Start(buf, 1, FlagQR)
		_ = b.Question(q)
		_ = b.Answer(rr, 5)
		b.OPT(1232, false)
		buf = b.Finish()
	})
	if got != 0 {
		t.Errorf("Builder into a reused buffer: %v allocs/op, want 0", got)
	}
}
