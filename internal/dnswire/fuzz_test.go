package dnswire

import (
	"strings"
	"testing"
)

// FuzzMessageUnpack drives the decoder with arbitrary bytes: it must
// never panic, and anything it accepts must survive a pack/unpack round
// trip (decode-encode-decode stability).
func FuzzMessageUnpack(f *testing.F) {
	// Seed corpus: valid messages of increasing complexity plus a few
	// known-nasty shapes.
	q := NewQuery(1, "example.com.", TypeA)
	w1, _ := q.Pack()
	f.Add(w1)

	resp := &Message{
		ID: 2, Response: true,
		Questions: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}},
		Answers:   sampleRRs(),
	}
	w2, _ := resp.Pack()
	f.Add(w2)

	f.Add([]byte{})                                               // empty
	f.Add(make([]byte, 12))                                       // bare header
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C}) // self-pointer qname
	f.Add(append(append([]byte{}, w2...), 0xFF))                  // trailing garbage

	// The golden wire vectors from golden_test.go: byte-exact encodings a
	// real implementation emits, so mutation starts from realistic bytes.
	f.Add([]byte{
		0x12, 0x34, 0x01, 0x00,
		0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x07, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0x03, 'c', 'o', 'm', 0x00,
		0x00, 0x01, 0x00, 0x01,
	})
	f.Add([]byte{
		0x00, 0xFF, 0x81, 0x80,
		0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		0x07, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0x03, 'c', 'o', 'm', 0x00,
		0x00, 0x01, 0x00, 0x01,
		0xC0, 0x0C, // compression pointer to the qname
		0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x0E, 0x10,
		0x00, 0x04, 93, 184, 216, 34,
	})
	// Known-nasty shapes around the compression and count machinery.
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0x03, 'a', 'b', 'c', 0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01}) // pointer loop via own label
	f.Add([]byte{0, 2, 0x80, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}) // counts claim records absent from the body
	f.Add([]byte{0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0xFF})      // pointer past the end
	// Pointer pathologies targeting the memoizing decoder: two names
	// pointing at each other, a forward pointer (illegal: targets must
	// precede the pointer), and a chain of pointers to pointers.
	f.Add([]byte{0, 4, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0,
		0xC0, 0x12, 0x00, 0x01, 0x00, 0x01, // q1 name points forward at q2's name
		0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01}) // q2 name points back at q1's — mutual loop
	f.Add([]byte{0, 5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0xC0, 0x10, 0x00, 0x01, 0x00, 0x01, // forward pointer into own fixed fields
		0x01, 'x', 0x00})
	f.Add([]byte{0, 6, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0,
		0x01, 'a', 0x00, 0x00, 0x01, 0x00, 0x01, // q1: "a."
		0xC0, 0x15, 0x00, 0x01, 0x00, 0x01, // q2 → trailing pointer → pointer → q1
		0xC0, 0x0C, 0xC0, 0x13})
	f.Add([]byte{0, 7, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
		0x3F, 'a', 0xC0, 0x0C, 0x00, 0x01, 0x00, 0x01}) // label length runs into its own pointer

	// DNSSEC rdata shapes: valid NSEC/RRSIG/DS/DNSKEY records so mutation
	// explores the bitmap and embedded-name decoders from realistic bytes.
	dnssecResp := &Message{
		ID: 8, Response: true, AuthenticData: true,
		Questions: []Question{{Name: "aa.", Type: TypeA, Class: ClassINET}},
		Authority: []RR{
			NewRR(".", 86400, NSEC{NextName: "com.", Types: []Type{TypeNS, TypeSOA, TypeRRSIG, TypeNSEC, TypeDNSKEY}}),
			// A second window block: type 1234 lives in window 4.
			NewRR("com.", 86400, NSEC{NextName: "org.", Types: []Type{TypeNS, TypeDS, Type(1234)}}),
			NewRR(".", 86400, RRSIG{
				TypeCovered: TypeNSEC, Algorithm: 15, Labels: 0, OrigTTL: 86400,
				Expiration: 1556209600, Inception: 1555000000, KeyTag: 0x1234,
				SignerName: ".", Signature: make([]byte, 64),
			}),
			NewRR("com.", 86400, DS{KeyTag: 0xBEEF, Algorithm: 15, DigestType: 2, Digest: make([]byte, 32)}),
			NewRR(".", 86400, DNSKEY{Flags: 257, Protocol: 3, Algorithm: 15, PublicKey: make([]byte, 32)}),
		},
	}
	w3, _ := dnssecResp.Pack()
	f.Add(w3)
	// Hand-built pathologies the encoder cannot produce.
	f.Add([]byte{0, 9, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0,
		0x00, 0x00, 0x2F, 0x00, 0x01, 0, 0, 0, 0, // ". NSEC" with rdlen 5:
		0x00, 0x05, 0x00, 0x00, 0x04, 0x00, 0x80}) // window claims 4 octets, only 2 present
	f.Add([]byte{0, 10, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0,
		0x00, 0x00, 0x2F, 0x00, 0x01, 0, 0, 0, 0,
		0x00, 0x04, 0x00, 0x01, 0x21, 0x01}) // window block longer than the 32-octet max
	f.Add([]byte{0, 11, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0,
		0x00, 0x00, 0x2E, 0x00, 0x01, 0, 0, 0, 0, // ". RRSIG" with rdlen 20:
		0x00, 0x14, 0x00, 0x01, 0x0F, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C,
		0x01, 'x'}) // signer name truncated mid-label and compressed (illegal in RRSIG)
	f.Add([]byte{0, 12, 0x80, 0, 0, 0, 0, 0, 0, 1, 0, 0,
		0x00, 0x00, 0x2B, 0x00, 0x01, 0, 0, 0, 0,
		0x00, 0x03, 0xBE, 0xEF, 0x0F}) // DS rdata cut off before digest type

	// EDNS0 trace-option shapes (OptionCodeTrace = 65312 = 0xFF20): a
	// well-formed stamped query, a truncated option body (header cut mid
	// trace ID), an option whose TLV length overruns the OPT rdata, and an
	// unknown local-use option code that must pass through untouched.
	traced := NewQuery(13, "example.com.", TypeA)
	traced.SetEDNS(1232, true)
	traced.SetTraceOption(TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99AABBCCDDEEFF00, Sampled: true}, nil)
	w4, _ := traced.Pack()
	f.Add(w4)
	f.Add([]byte{0, 14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		0x00, 0x00, 0x29, 0x04, 0xD0, 0, 0, 0x80, 0, // . OPT, size 1232, DO
		0x00, 0x09, // rdlen 9: option header + 5 of the 8 trace-ID bytes
		0xFF, 0x20, 0x00, 0x05, 0x11, 0x22, 0x33, 0x44, 0x55}) // truncated trace option
	f.Add([]byte{0, 15, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		0x00, 0x00, 0x29, 0x04, 0xD0, 0, 0, 0, 0,
		0x00, 0x06, // rdlen 6, but the option claims 0xFFFF bytes of data
		0xFF, 0x20, 0xFF, 0xFF, 0x01, 0x02}) // oversized option length overruns rdata
	f.Add([]byte{0, 16, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1,
		0x00, 0x00, 0x29, 0x04, 0xD0, 0, 0, 0, 0,
		0x00, 0x07, // unknown local-use code 65313: decoder must carry it through
		0xFF, 0x21, 0x00, 0x03, 0xAA, 0xBB, 0xCC})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if err := m.Unpack(data); err != nil {
			return // rejects are fine; panics are not
		}
		// Whatever Unpack takes, the front-door parser takes and reads
		// the same way (the converse does not hold: Query.Parse steps
		// over rdata it has no use for).
		if len(m.Questions) == 1 {
			agreesWithUnpack(t, data)
		}
		// Accepted messages must re-encode and re-decode to the same
		// structure (the encoder may compress differently, so compare
		// after a second decode).
		w, err := m.Pack()
		if err != nil {
			// Some decodable messages exceed encoder limits (e.g. a
			// label that only existed via compression). That is
			// acceptable as long as it is an error, not a panic.
			return
		}
		var m2 Message
		if err := m2.Unpack(w); err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		w2, err := m2.Pack()
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if string(w) != string(w2) {
			t.Fatalf("encode not stable:\n%x\n%x", w, w2)
		}
	})
}

// FuzzNameParse drives the presentation-form name parser.
func FuzzNameParse(f *testing.F) {
	for _, seed := range []string{
		"", ".", "com", "www.example.com.", `ex\.ample.com`, `a\032b.tld`,
		`bad\`, "..", "xn--idn00.", "_sip._tcp.example.com.",
		// Edge cases around the length limits and escape decoder.
		"a.root-servers.net.", "nstld.verisign-grs.com.",
		strings.Repeat("a", 63) + ".com.",          // maximum label
		strings.Repeat("a", 64) + ".com.",          // over-long label
		strings.Repeat("abcdefg.", 31) + "owner.",  // near the 255-octet name cap
		`\000.com.`, `\255.`, `\999.`, `a\`, `\04`, // escape-decoder edges
		"*.example.com.", "-lead.trail-.dash.",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseName(s)
		if err != nil {
			return
		}
		// Valid names round-trip through the wire codec.
		wire, err := appendName(nil, n, nil)
		if err != nil {
			t.Fatalf("ParseName accepted %q but wire encoding failed: %v", s, err)
		}
		back, _, err := unpackName(wire, 0)
		if err != nil {
			t.Fatalf("wire round trip of %q failed: %v", n, err)
		}
		if back != n {
			t.Fatalf("round trip drift: %q -> %q", n, back)
		}
		// And re-parsing the canonical form is a fixed point.
		again, err := ParseName(string(n))
		if err != nil || again != n {
			t.Fatalf("canonical form not a fixed point: %q -> %q (%v)", n, again, err)
		}
	})
}
