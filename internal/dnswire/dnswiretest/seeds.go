// Package dnswiretest holds wire-format fixtures shared by the fuzz
// targets of the packages that face the network.
package dnswiretest

import "rootless/internal/dnswire"

// DatagramSeeds is a fuzz corpus for anything handed raw query datagrams:
// well-formed queries in each EDNS mode, the EDNS0 trace-option shapes
// and compressed-name pathologies FuzzMessageUnpack starts from, the
// question counts and OPT shapes where Query.Parse and Unpack may part
// (no question, two, an OPT of size zero, two OPTs, rdata only Unpack
// reads), and datagrams that are not queries at all.
func DatagramSeeds() [][]byte {
	pack := func(m *dnswire.Message) []byte {
		w, err := m.Pack()
		if err != nil {
			panic(err)
		}
		return w
	}
	plain := dnswire.NewQuery(1, "www.example.com.", dnswire.TypeA)
	edns := dnswire.NewQuery(2, "com.", dnswire.TypeNS)
	edns.SetEDNS(4096, false)
	do := dnswire.NewQuery(3, "nosuchtld-zz.", dnswire.TypeA)
	do.SetEDNS(dnswire.DefaultEDNSSize, true)
	tiny := dnswire.NewQuery(4, ".", dnswire.TypeNS)
	tiny.SetEDNS(1, true) // advertises less than 512: clamped
	traced := dnswire.NewQuery(13, "example.com.", dnswire.TypeA)
	traced.SetEDNS(dnswire.DefaultEDNSSize, true)
	traced.SetTraceOption(dnswire.TraceContext{TraceID: 0x1122334455667788, SpanID: 0x99AABBCCDDEEFF00, Sampled: true}, nil)
	notify := dnswire.NewQuery(5, "example.com.", dnswire.TypeSOA)
	notify.Opcode = dnswire.OpcodeNotify
	chaos := dnswire.NewQuery(6, "version.bind.", dnswire.TypeTXT)
	chaos.Questions[0].Class = 3
	response := dnswire.NewQuery(7, "www.example.com.", dnswire.TypeA)
	response.Response = true
	sizeZero := dnswire.NewQuery(17, "com.", dnswire.TypeNS)
	sizeZero.SetEDNS(0, true) // an OPT that advertises nothing: read as none
	twoOPT := dnswire.NewQuery(18, "com.", dnswire.TypeNS)
	twoOPT.SetEDNS(4096, false)
	twoOPT.Additional = append(twoOPT.Additional, traced.Additional[0]) // a second OPT, DO and trace
	none := dnswire.NewQuery(19, "com.", dnswire.TypeNS)
	none.Questions = nil
	none.SetEDNS(dnswire.DefaultEDNSSize, true)
	two := dnswire.NewQuery(20, "a.", dnswire.TypeA)
	two.Questions = append(two.Questions, dnswire.Question{Name: "b.", Type: dnswire.TypeNS, Class: dnswire.ClassINET})
	two.Opcode = dnswire.OpcodeNotify

	return [][]byte{
		pack(plain), pack(edns), pack(do), pack(tiny), pack(traced),
		pack(notify), pack(chaos), pack(response),
		pack(sizeZero), pack(twoOPT), pack(none), pack(two),
		{0, 21, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, // an additional A record with 3 octets of rdata
			0x03, 'c', 'o', 'm', 0x00, 0, 2, 0, 1,
			0xC0, 0x0C, 0, 1, 0, 1, 0, 0, 0, 60, 0, 3, 192, 0, 2},
		{},                        // empty
		make([]byte, 12),          // bare header, no question
		append(pack(plain), 0xFF), // trailing garbage
		{0, 8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C},                                   // self-pointer qname
		{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0xFF},                                   // pointer past the end
		{0, 10, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x03, 'a', 'b', 'c', 0xC0, 0x0C, 0, 1, 0, 1}, // pointer loop via own label
		{0, 11, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x3F, 'a', 0xC0, 0x0C, 0, 1, 0, 1},           // label runs into its own pointer
		{0, 12, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, // two questions, the second compressed against the first
			0x01, 'a', 0x00, 0, 1, 0, 1, 0xC0, 0x0C, 0, 1, 0, 1},
		{0, 14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, // no question; truncated trace option
			0x00, 0x00, 0x29, 0x04, 0xD0, 0, 0, 0x80, 0, 0x00, 0x09, 0xFF, 0x20, 0x00, 0x05, 0x11, 0x22, 0x33, 0x44, 0x55},
		{0, 15, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, // option length overruns the OPT rdata
			0x01, 'a', 0x00, 0, 1, 0, 1,
			0x00, 0x00, 0x29, 0x04, 0xD0, 0, 0, 0, 0, 0x00, 0x06, 0xFF, 0x20, 0xFF, 0xFF, 0x01, 0x02},
		{0, 16, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, // rdlength runs past the datagram
			0x01, 'a', 0x00, 0, 1, 0, 1,
			0x00, 0x00, 0x29, 0xFF, 0xFF, 0, 0, 0, 0, 0x00, 0x40, 0xFF},
	}
}
