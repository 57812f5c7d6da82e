package authserver

import (
	"math/rand"
	"net/netip"
	"testing"

	"rootless/internal/dnswire"
)

// BenchmarkHandle measures one admitted referral query end to end.
// PackedHit is the steady state for a hot TLD: the packs/op metric must
// be zero, proving hits never serialize a message. ColdBuild disables
// the answer cache to show what every query cost before precompilation.
func BenchmarkHandle(b *testing.B) {
	run := func(b *testing.B, s *Server) {
		q := query("www.example.com.", dnswire.TypeA)
		s.Handle(q, netip.Addr{}) // warm (a no-op when the cache is off)
		packs0 := s.Stats().WirePacks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if resp := s.Handle(q, netip.Addr{}); resp == nil {
				b.Fatal("no response")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.Stats().WirePacks-packs0)/float64(b.N), "packs/op")
	}
	b.Run("PackedHit", func(b *testing.B) {
		run(b, testServer(b))
	})
	b.Run("ColdBuild", func(b *testing.B) {
		s := testServer(b)
		s.SetAnswerCache(0)
		run(b, s)
	})
}

// junkDOWires packs n distinct junk queries with DO set, the benchmark's
// auth_junk_do stream.
func junkDOWires(tb testing.TB, n int) [][]byte {
	tb.Helper()
	r := rand.New(rand.NewSource(9))
	wires := make([][]byte, n)
	for i := range wires {
		q := dnswire.NewQuery(uint16(i), junkQName(r, i), dnswire.TypeA)
		q.SetEDNS(dnswire.DefaultEDNSSize, true)
		wire, err := q.Pack()
		if err != nil {
			tb.Fatal(err)
		}
		wires[i] = wire
	}
	return wires
}

// BenchmarkServeWire is the full UDP datagram path minus the socket:
// parse the query with the shared-buffer unpacker, handle it, and
// append the response bytes to the engine's buffer. PackedHit is a hot
// referral patched from the cached wire (packs/op 0). JunkDO is the
// paper's dominant class on the signed root: a nonexistent name with DO
// set, never cached, so every query is a zone lookup, two binary
// searches of the canonical index, the memoized denial section and one
// pack (packs/op 1).
func BenchmarkServeWire(b *testing.B) {
	run := func(b *testing.B, s *Server, wires [][]byte) {
		out := make([]byte, 0, 4096)
		for _, w := range wires { // warm: every answer and denial precompiled
			if s.ServeWire(w, netip.Addr{}, out) == nil {
				b.Fatal("no response")
			}
		}
		packs0 := s.Stats().WirePacks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.ServeWire(wires[i%len(wires)], netip.Addr{}, out) == nil {
				b.Fatal("no response")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(s.Stats().WirePacks-packs0)/float64(b.N), "packs/op")
	}
	b.Run("PackedHit", func(b *testing.B) {
		qwire, err := query("www.example.com.", dnswire.TypeA).Pack()
		if err != nil {
			b.Fatal(err)
		}
		run(b, testServer(b), [][]byte{qwire})
	})
	b.Run("JunkDO", func(b *testing.B) {
		run(b, New(signedRootZone(b)), junkDOWires(b, 4096))
	})
}
