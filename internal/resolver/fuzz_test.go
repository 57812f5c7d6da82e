package resolver

import (
	"errors"
	"net/netip"
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
