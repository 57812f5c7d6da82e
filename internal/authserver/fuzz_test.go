package authserver

import (
	"net/netip"
	"testing"

	"rootless/internal/dnswire"
	"rootless/internal/dnswire/dnswiretest"
)

// FuzzServeWire drives the UDP front door with arbitrary datagrams. It
// must never panic and never answer a datagram that is itself a
// response; whatever it writes must parse, echo the query's ID and fit
// the size the query advertised.
func FuzzServeWire(f *testing.F) {
	for _, seed := range dnswiretest.DatagramSeeds() {
		f.Add(seed)
	}
	s := testServer(f)
	from := netip.MustParseAddr("192.0.2.1")
	var buf []byte

	f.Fuzz(func(t *testing.T, data []byte) {
		out := s.ServeWire(data, from, buf[:0])
		if len(out) == 0 {
			return
		}
		buf = out
		var q, m dnswire.Message
		if err := q.Unpack(data); err != nil {
			t.Fatalf("answered a datagram it cannot parse (%v): %x", err, data)
		}
		if q.Response {
			t.Fatalf("answered a response datagram: %x", data)
		}
		if err := m.Unpack(out); err != nil {
			t.Fatalf("reply does not parse (%v): %x -> %x", err, data, out)
		}
		if m.ID != q.ID || !m.Response {
			t.Fatalf("reply header %+v to %x", m, data)
		}
		_, size, _ := q.EDNS()
		if limit := max(dnswire.MaxUDPSize, int(size)); len(out) > limit {
			t.Fatalf("%d octets to a client that takes %d: %x", len(out), limit, data)
		}
	})
}
