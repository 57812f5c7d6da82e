package authserver

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"

	"rootless/internal/dnswire"
	"rootless/internal/dnswire/dnswiretest"
)

// referenceServeWire is the route ServeWire replaced, kept as its
// reference: UnpackShared, Handle, and a pack of the reply — which, with
// ID and RD set by Handle, is the cached wire patched as ServeWire
// patches it.
func referenceServeWire(s *Server, req []byte, from netip.Addr) (reply []byte, questions int) {
	if len(req) > 2 && req[2]&(dnswire.FlagQR>>8) != 0 {
		return nil, 0
	}
	var q dnswire.Message
	if q.UnpackShared(req) != nil {
		return nil, 0
	}
	resp := s.Handle(&q, from)
	if resp == nil {
		return nil, 0
	}
	out, err := resp.AppendPack(nil)
	if err != nil {
		return nil, 0
	}
	return out, len(q.Questions)
}

// essentials rebuilds a datagram Query.Parse accepted from what a server
// reads of it — header, question and the additional section's first OPT,
// its owner written as the root — and drops every other record.
func essentials(data []byte) []byte {
	skip := func(off int) int { // past the name at off; Parse has vetted it
		for data[off] != 0 && data[off]&0xC0 != 0xC0 {
			off += 1 + int(data[off])
		}
		if data[off] == 0 {
			return off + 1
		}
		return off + 2
	}
	end := skip(12) + 4
	out := append([]byte(nil), data[:end]...)
	clear(out[6:12]) // no records in any section, until the OPT
	skipped := int(binary.BigEndian.Uint16(data[6:])) + int(binary.BigEndian.Uint16(data[8:]))
	records := skipped + int(binary.BigEndian.Uint16(data[10:]))
	for i, off := 0, end; i < records; i++ {
		off = skip(off)
		next := off + 10 + int(binary.BigEndian.Uint16(data[off+8:]))
		if i >= skipped && dnswire.Type(binary.BigEndian.Uint16(data[off:])) == dnswire.TypeOPT {
			out[11] = 1
			return append(append(out, 0), data[off:next]...)
		}
		off = next
	}
	return out
}

// FuzzServeWire drives the UDP front door with arbitrary datagrams and
// holds it to the route it replaced (referenceServeWire) on a twin
// server fed the same stream — two twin pairs, one serving a small root
// and one nonRootZone, whose NXDOMAINs are written from denial images
// that a question may or may not fit. It must never panic, never answer
// a response datagram, and never write more than the query advertised.
// Every datagram the reference answers that has one question gets the
// same bytes from both. Anything else ServeWire answers is one of two
// kinds: a datagram whose header does not announce exactly one question,
// answered FORMERR (NOTIMP for another opcode) with the header alone; or
// one Query.Parse accepts and Unpack refuses for a record Parse steps
// over — which, rebuilt from its header, question and first OPT, the
// reference accepts and answers with the same bytes.
func FuzzServeWire(f *testing.F) {
	for _, seed := range dnswiretest.DatagramSeeds() {
		f.Add(seed)
	}
	for i, name := range nonRootQNames {
		for _, q := range ednsModes(name, dnswire.TypeA, uint16(i), uint16(512+720*(i%2))) {
			wire, err := q.Pack()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(wire)
		}
	}
	below := nonRootZone(f, false) // one zone: the signer adds RRSIGs in map order
	pairs := [][2]*Server{
		{testServer(f), testServer(f)},
		{New(below), New(below)},
	}
	from := netip.MustParseAddr("192.0.2.1")
	var buf []byte

	serve := func(t *testing.T, s, ref *Server, data []byte) {
		out := s.ServeWire(data, from, buf[:0])
		want, questions := referenceServeWire(ref, data, from)
		if len(out) > 0 {
			buf = out
		}
		if questions == 1 {
			if !bytes.Equal(out, want) {
				t.Fatalf("%x:\n got %x\nwant %x", data, out, want)
			}
		}
		if len(out) == 0 {
			return
		}
		if data[2]&0x80 != 0 {
			t.Fatalf("answered a response datagram: %x", data)
		}
		var q dnswire.Query
		err := q.Parse(data)
		if limit := max(dnswire.MaxUDPSize, int(q.UDPSize)); len(out) > limit {
			t.Fatalf("%d octets to a client that takes %d: %x", len(out), limit, data)
		}
		switch {
		case questions == 1:
			// compared above
		case err == dnswire.ErrQuestionCount:
			rcode := dnswire.RcodeFormat
			if q.Opcode() != dnswire.OpcodeQuery {
				rcode = dnswire.RcodeNotImpl
			}
			flags := q.Flags&(0xF<<11|dnswire.FlagRD) | dnswire.FlagQR | uint16(rcode)
			hdr := binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(nil, q.ID), flags)
			if !bytes.Equal(out, append(hdr, 0, 0, 0, 0, 0, 0, 0, 0)) {
				t.Fatalf("%x: question count %d answered %x, want a header-only %s", data, binary.BigEndian.Uint16(data[4:]), out, rcode)
			}
		case err != nil:
			t.Fatalf("answered a datagram Query.Parse refuses (%v): %x", err, data)
		default:
			var m dnswire.Message
			if m.Unpack(data) == nil {
				t.Fatalf("Unpack accepts %x with %d questions where Parse finds one", data, len(m.Questions))
			}
			core := essentials(data)
			var again dnswire.Query
			if again.Parse(core) != nil || again != q {
				return // a question compressed against the header counts: no rebuild to compare
			}
			if m.Unpack(core) != nil {
				t.Fatalf("Unpack refuses %x in its question or first OPT, Query.Parse accepts it", data)
			}
			if want, _ := referenceServeWire(ref, core, from); !bytes.Equal(out, want) {
				t.Fatalf("%x (as %x):\n got %x\nwant %x", data, core, out, want)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range pairs {
			serve(t, p[0], p[1], data)
		}
	})
}
