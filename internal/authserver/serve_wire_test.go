package authserver

import (
	"bytes"
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs/traffic"
	"rootless/internal/udpengine"
)

// TestServeWireMatchesServeUDP: the extracted datagram handler must be
// byte-identical to what the classic ServeUDP loop wrote — same packed
// cache patching (ID, RD bit) and same fresh-pack fallback.
func TestServeWireMatchesServeUDP(t *testing.T) {
	s := testServer(t)
	from := netip.MustParseAddr("192.0.2.1")
	cases := []*dnswire.Message{
		query("www.example.com.", dnswire.TypeA), // referral, cacheable
		query("foo.bogustld.", dnswire.TypeA),    // NXDomain
		query(dnswire.Root, dnswire.TypeNS),      // apex answer
	}
	for _, q := range cases {
		q.RecursionDesired = true
		wire, err := q.Pack()
		if err != nil {
			t.Fatal(err)
		}
		// First call warms the packed cache, second hits it; both must
		// agree with a reference rebuild through Handle+Pack.
		var got []byte
		for pass := 0; pass < 2; pass++ {
			got = s.ServeWire(wire, from, nil)
			if got == nil {
				t.Fatalf("%v: dropped", q.Questions)
			}
		}
		var ref dnswire.Message
		if err := ref.Unpack(got); err != nil {
			t.Fatalf("%v: response does not parse: %v", q.Questions, err)
		}
		if ref.ID != q.ID || !ref.Response || !ref.RecursionDesired {
			t.Errorf("%v: header: id=%d qr=%v rd=%v", q.Questions, ref.ID, ref.Response, ref.RecursionDesired)
		}
		// The hit-path wire must equal the cold-path wire for the same query.
		s2 := testServer(t)
		want := s2.ServeWire(wire, from, nil)
		if !bytes.Equal(got, want) {
			t.Errorf("%v: hit-path wire differs from cold-path wire", q.Questions)
		}
	}
}

// TestServeWireAppends: ServeWire appends after existing bytes and
// patches the header at the right offset, so engine buffer adoption
// composes with any prefix the caller keeps.
func TestServeWireAppends(t *testing.T) {
	s := testServer(t)
	q := query("www.example.com.", dnswire.TypeA)
	wire, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	plain := s.ServeWire(wire, netip.Addr{}, nil)
	prefixed := s.ServeWire(wire, netip.Addr{}, []byte("head"))
	if string(prefixed[:4]) != "head" || !bytes.Equal(prefixed[4:], plain) {
		t.Fatal("ServeWire did not append cleanly after a prefix")
	}
}

// TestServeWireAllocs pins the packed-answer hit path at zero: reading
// the datagram is the engine's job (zero-alloc there), Query.Parse
// decodes the question name into the Query on ServeWire's stack, and the
// hit hands back the cache entry, whose wire is byte-copied into the
// caller's buffer; no Message is built. The name is a view of the Query,
// and nothing on a hit keeps it: not the cache lookup, not RRL, which
// copies a name only when it opens a bucket for it, and not the traffic
// analyzer, which copies one only when its top-K admits it.
func TestServeWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	for _, c := range []struct {
		name  string
		setup func(*Server)
	}{
		{"plain", func(*Server) {}},
		{"rrl", func(s *Server) { s.SetOverload(OverloadConfig{RRLRate: 1 << 30}) }},
		{"traffic", func(s *Server) {
			s.SetTraffic(traffic.NewAnalyzer(traffic.NewTLDSet([]dnswire.Name{"com."}), 8))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := testServer(t)
			c.setup(s)
			q := query("www.example.com.", dnswire.TypeA)
			q.RecursionDesired = true
			wire, err := q.Pack()
			if err != nil {
				t.Fatal(err)
			}
			from := netip.MustParseAddr("127.0.0.1")
			out := make([]byte, 0, 1024)
			if s.ServeWire(wire, from, out) == nil { // warm the packed cache
				t.Fatal("warmup dropped")
			}
			got := testing.AllocsPerRun(500, func() {
				if s.ServeWire(wire, from, out[:0]) == nil {
					t.Fatal("dropped")
				}
			})
			if got != 0 {
				t.Errorf("ServeWire packed hit: %v allocs/op, want 0", got)
			}
		})
	}
}

// TestHandleHitAllocs pins the packed hit through Handle, the route
// netsim, TCP and rootbench's handle_ns replay take: the caller gets a
// Message, so the one allocation is the template copy it is handed.
func TestHandleHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	s := testServer(t)
	q := query("www.example.com.", dnswire.TypeA)
	from := netip.MustParseAddr("127.0.0.1")
	if s.Handle(q, from) == nil { // warm the packed cache
		t.Fatal("warmup dropped")
	}
	got := testing.AllocsPerRun(500, func() {
		if s.Handle(q, from) == nil {
			t.Fatal("dropped")
		}
	})
	if got > 1 {
		t.Errorf("Handle packed hit: %v allocs/op, want <= 1", got)
	}
}

// TestEngineHandlerRetentionRace hammers the real authd handler through
// a multi-worker batch engine with EDNS queries under concurrent load.
// Under -race this checks the buffer-ownership contract end to end: the
// handler reads the engine's per-slot rx buffer in place, so any
// retention of query bytes past ServeDatagram shows up as a race with
// the next recvmmsg into the same slot.
func TestEngineHandlerRetentionRace(t *testing.T) {
	s := testServer(t)
	eng, err := udpengine.New(udpengine.Config{
		Addr: "127.0.0.1:0", Workers: 4, Batch: 8,
		Handler: s.DatagramHandler(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	names := []dnswire.Name{"www.example.com.", "x.org.", "foo.bogustld.", "."}
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := net.Dial("udp", eng.LocalAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			buf := make([]byte, 64*1024)
			for i := 0; i < 60; i++ {
				q := query(names[(c+i)%len(names)], dnswire.TypeA)
				q.ID = uint16(c<<8 | i)
				wire, err := q.Pack()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := client.Write(wire); err != nil {
					t.Error(err)
					return
				}
				client.SetReadDeadline(time.Now().Add(5 * time.Second))
				n, err := client.Read(buf)
				if err != nil {
					t.Errorf("client %d query %d: %v", c, i, err)
					return
				}
				var resp dnswire.Message
				if err := resp.Unpack(buf[:n]); err != nil {
					t.Errorf("client %d: bad response: %v", c, err)
					return
				}
				if resp.ID != q.ID {
					t.Errorf("client %d: response ID %d for query %d — cross-slot mixup", c, resp.ID, q.ID)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if st := eng.Stats(); st.Total.Packets < 6*60 {
		t.Errorf("engine saw %d packets, want >= %d", st.Total.Packets, 6*60)
	}
}

// TestServeWireJunkDOAllocs pins the denial path on the signed root at
// zero: an NXDOMAIN with DO reads the qname in place in the Query, the
// zone's denial lookup allocates nothing and keeps nothing of the name
// (the closest encloser it returns is the zone's own), and the reply is
// the precompiled denial's image written straight into the caller's
// buffer: no Message, no pack.
func TestServeWireJunkDOAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	s := New(signedRootZone(t))
	wires := junkDOWires(t, 512)
	from := netip.MustParseAddr("127.0.0.1")
	out := make([]byte, 0, 4096)
	for _, w := range wires { // precompile every denial these names need
		if s.ServeWire(w, from, out) == nil {
			t.Fatal("warmup dropped")
		}
	}
	i := 0
	packs := s.Stats().WirePacks
	got := testing.AllocsPerRun(2000, func() {
		if s.ServeWire(wires[i%len(wires)], from, out) == nil {
			t.Fatal("dropped")
		}
		i++
	})
	if got != 0 {
		t.Errorf("ServeWire junk DO: %v allocs/op, want 0", got)
	}
	if packs = s.Stats().WirePacks - packs; packs != 0 {
		t.Errorf("ServeWire junk DO: %d packs for %d queries, want none", packs, i)
	}
	t.Logf("ServeWire junk DO: %v allocs/op, %d packs", got, packs)
}

// TestResponseDatagramNotAnswered: a datagram with QR set is a response,
// and answering it would let one spoofed packet make two servers reply
// to each other for good. Over a real socket it must get silence, be
// counted, and leave the server answering the query that follows it.
func TestResponseDatagramNotAnswered(t *testing.T) {
	s := testServer(t)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = s.ServeUDP(ctx, conn) }()
	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	reflected := query("www.example.com.", dnswire.TypeA)
	reflected.ID, reflected.Response = 1, true
	real := query("www.example.com.", dnswire.TypeA)
	real.ID = 2
	for _, m := range []*dnswire.Message{reflected, real} {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	// The socket is served in order, so the first reply to arrive says
	// whether the response datagram was answered.
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 {
		t.Fatalf("first reply has ID %d: the response datagram was answered", resp.ID)
	}
	if got := s.Stats().ResponsesDropped; got != 1 {
		t.Errorf("ResponsesDropped = %d, want 1", got)
	}
	if got := s.Stats().Queries; got != 1 {
		t.Errorf("Queries = %d, want 1: the response datagram was counted as a query", got)
	}
}
