package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

// Golden wire vectors: byte-exact encodings a real DNS implementation
// would produce, guarding against silent codec drift.

func TestGoldenQueryEncoding(t *testing.T) {
	// Standard recursive query: id 0x1234, RD, one question
	// "example.com. IN A".
	m := &Message{
		ID:               0x1234,
		Opcode:           OpcodeQuery,
		RecursionDesired: true,
		Questions:        []Question{{Name: "example.com.", Type: TypeA, Class: ClassINET}},
	}
	want := []byte{
		0x12, 0x34, // id
		0x01, 0x00, // flags: RD
		0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // counts
		0x07, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
		0x03, 'c', 'o', 'm', 0x00, // qname
		0x00, 0x01, // qtype A
		0x00, 0x01, // qclass IN
	}
	got, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drift:\n got %x\nwant %x", got, want)
	}
}

func TestGoldenResponseWithCompression(t *testing.T) {
	// Response reusing the question name via a compression pointer to
	// offset 12 (0xC00C), the encoding every real server emits.
	m := &Message{
		ID:                 0x00FF,
		Response:           true,
		Opcode:             OpcodeQuery,
		RecursionDesired:   true,
		RecursionAvailable: true,
		Questions:          []Question{{Name: "example.com.", Type: TypeA, Class: ClassINET}},
		Answers: []RR{{
			Name: "example.com.", Type: TypeA, Class: ClassINET, TTL: 3600,
			Data: A{Addr: netip.MustParseAddr("93.184.216.34")},
		}},
	}
	want := []byte{
		0x00, 0xFF,
		0x81, 0x80, // QR RD RA
		0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
		0x07, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
		0x03, 'c', 'o', 'm', 0x00,
		0x00, 0x01, 0x00, 0x01,
		0xC0, 0x0C, // pointer to the qname at offset 12
		0x00, 0x01, 0x00, 0x01, // A IN
		0x00, 0x00, 0x0E, 0x10, // TTL 3600
		0x00, 0x04, // rdlength
		93, 184, 216, 34,
	}
	got, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drift:\n got %x\nwant %x", got, want)
	}
	// And the golden bytes decode back to the same message.
	var back Message
	if err := back.Unpack(want); err != nil {
		t.Fatal(err)
	}
	if back.Answers[0].Data.(A).Addr != netip.MustParseAddr("93.184.216.34") {
		t.Fatal("golden decode mismatch")
	}
}

func TestGoldenReferralCompression(t *testing.T) {
	// A full referral (question + 2 NS + 2 glue A records) exercises every
	// compression case: owner names via whole-name pointers, an NS target
	// compressed as a new label plus a suffix pointer, and glue owners
	// pointing into earlier rdata. 113 bytes versus 161 uncompressed.
	want := []byte{
		0x00, '*', 0x80, 0x00, // id 42, QR
		0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x02, // counts
		0x03, 'w', 'w', 'w', 0x07, 'e', 'x', 'a', 'm', 'p', 'l', 'e',
		0x03, 'c', 'o', 'm', 0x00, // qname, offset 12
		0x00, 0x01, 0x00, 0x01, // A IN
		0xC0, 0x18, // "com." → pointer to qname suffix at offset 24
		0x00, 0x02, 0x00, 0x01, 0x00, 0x02, 0xA3, 0x00, // NS IN TTL 172800
		0x00, 0x14, // rdlength 20
		0x01, 'a', 0x0C, 'g', 't', 'l', 'd', '-', 's', 'e', 'r', 'v', 'e', 'r', 's',
		0x03, 'n', 'e', 't', 0x00, // a.gtld-servers.net., offset 45
		0xC0, 0x18, // "com." again
		0x00, 0x02, 0x00, 0x01, 0x00, 0x02, 0xA3, 0x00,
		0x00, 0x04, // rdlength 4: label "b" + suffix pointer
		0x01, 'b', 0xC0, 0x2F, // b + "gtld-servers.net." at offset 47
		0xC0, 0x2D, // glue owner a.gtld-servers.net. → offset 45
		0x00, 0x01, 0x00, 0x01, 0x00, 0x02, 0xA3, 0x00,
		0x00, 0x04, 192, 5, 6, 30,
		0xC0, 0x4D, // glue owner b.gtld-servers.net. → offset 77
		0x00, 0x01, 0x00, 0x01, 0x00, 0x02, 0xA3, 0x00,
		0x00, 0x04, 192, 33, 14, 30,
	}
	m := benchReferral()
	got, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("referral encoding drift:\n got %x\nwant %x", got, want)
	}
	var back Message
	if err := back.Unpack(want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, m) {
		t.Fatalf("golden referral decode mismatch:\n got %+v\nwant %+v", &back, m)
	}
}

func TestGoldenRootSOAEncoding(t *testing.T) {
	// The root SOA RR as the root servers serve it (uncompressed form).
	rr := NewRR(Root, 86400, SOA{
		MName: "a.root-servers.net.", RName: "nstld.verisign-grs.com.",
		Serial: 2019060700, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	})
	wire, err := rr.AppendCanonicalWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x00,       // root owner
		0x00, 0x06, // SOA
		0x00, 0x01, // IN
		0x00, 0x01, 0x51, 0x80, // TTL 86400
		0x00, 0x40, // rdlength 64
		0x01, 'a', 0x0C, 'r', 'o', 'o', 't', '-', 's', 'e', 'r', 'v', 'e', 'r', 's',
		0x03, 'n', 'e', 't', 0x00,
		0x05, 'n', 's', 't', 'l', 'd',
		0x0C, 'v', 'e', 'r', 'i', 's', 'i', 'g', 'n', '-', 'g', 'r', 's',
		0x03, 'c', 'o', 'm', 0x00,
		0x78, 0x58, 0x6B, 0xDC, // serial 2019060700
		0x00, 0x00, 0x07, 0x08, // refresh 1800
		0x00, 0x00, 0x03, 0x84, // retry 900
		0x00, 0x09, 0x3A, 0x80, // expire 604800
		0x00, 0x01, 0x51, 0x80, // minimum 86400
	}
	if !bytes.Equal(wire, want) {
		t.Fatalf("SOA encoding drift:\n got %x\nwant %x", wire, want)
	}
}
