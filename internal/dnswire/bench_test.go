package dnswire

import (
	"net/netip"
	"testing"
)

// benchReferral builds a root-referral-shaped message (question, NS
// authority, A glue) — the wire shape the resolver packs and unpacks
// on every upstream exchange.
func benchReferral() *Message {
	m := &Message{
		ID:        42,
		Response:  true,
		Questions: []Question{{Name: "www.example.com.", Type: TypeA, Class: ClassINET}},
	}
	for _, host := range []Name{"a.gtld-servers.net.", "b.gtld-servers.net."} {
		m.Authority = append(m.Authority, NewRR("com.", 172800, NS{Host: host}))
	}
	m.Additional = append(m.Additional,
		NewRR("a.gtld-servers.net.", 172800, A{Addr: netip.MustParseAddr("192.5.6.30")}),
		NewRR("b.gtld-servers.net.", 172800, A{Addr: netip.MustParseAddr("192.33.14.30")}))
	return m
}

func BenchmarkMessagePack(b *testing.B) {
	m := benchReferral()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageAppendPack(b *testing.B) {
	m := benchReferral()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = m.AppendPack(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageUnpack(b *testing.B) {
	wire, err := benchReferral().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m Message
		if err := m.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageUnpackShared(b *testing.B) {
	wire, err := benchReferral().Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var m Message
		if err := m.UnpackShared(wire); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkInt int

// BenchmarkNameCompare is DNSSEC canonical ordering over escape-free
// names of the root zone's shapes: TLDs (decided in the first label),
// glue hosts under one TLD (decided in the last), and equal names.
func BenchmarkNameCompare(b *testing.B) {
	names := []Name{
		"com.", "org.", "xn--vermgensberatung-pwb.", "a.nic.abogado.", "b.nic.abogado.",
		"ns1.dns.nic.aaa.", "ns1.dns.nic.aarp.", "a.gtld-servers.net.", "m.gtld-servers.net.",
		"www.example.com.", "www.example.com.", ".",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt += names[i%len(names)].Compare(names[(i+1)%len(names)])
	}
}
