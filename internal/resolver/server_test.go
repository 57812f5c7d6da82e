package resolver

import (
	"context"
	"net"
	"net/netip"
	"testing"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/dnswire"
)

// TestRecursiveServerOverRealSockets stands up the full resolverd stack
// on loopback UDP: an authoritative root server, a lookaside resolver
// wrapping it, and a stub client — the cmd/resolverd data path as a test.
func TestRecursiveServerOverRealSockets(t *testing.T) {
	// Authoritative root on a real UDP socket.
	rootZone := mustZone(t, rootZoneSrc, dnswire.Root)
	auth := authserver.New(rootZone)
	authConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = auth.ServeUDP(ctx, authConn) }()
	authPort := uint16(authConn.LocalAddr().(*net.UDPAddr).Port)

	// com/example servers on real sockets too.
	comSrv := authserver.New(mustZone(t, comZoneSrc, "com."))
	comConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = comSrv.ServeUDP(ctx, comConn) }()
	exSrv := authserver.New(mustZone(t, exampleZoneSrc, "example.com."))
	exConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = exSrv.ServeUDP(ctx, exConn) }()

	// The resolver's transport rewrites the zone's glue addresses to the
	// loopback listeners' ports.
	loop := netip.MustParseAddr("127.0.0.1")
	overrides := map[netip.Addr]uint16{}
	addOverride := func(glue string, conn net.PacketConn) {
		overrides[netip.MustParseAddr(glue)] = uint16(conn.LocalAddr().(*net.UDPAddr).Port)
	}
	addOverride("192.5.6.30", comConn)
	addOverride("192.0.2.53", exConn)
	_ = authPort

	transport := &rewriteTransport{
		inner:     &UDPTransport{Timeout: 2 * time.Second},
		loop:      loop,
		portByDst: overrides,
	}
	// Lookaside resolver: local root zone replaces the root servers.
	r := New(Config{
		Mode:      RootModeLookaside,
		LocalZone: rootZone,
		Transport: transport,
	})
	srv := NewServer(r)
	srvConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeUDP(ctx, srvConn) }()

	// Stub query through the whole chain.
	stub, err := net.Dial("udp", srvConn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()
	q := dnswire.NewQuery(99, "www.example.com.", dnswire.TypeA)
	wire, _ := q.Pack()
	if _, err := stub.Write(wire); err != nil {
		t.Fatal(err)
	}
	_ = stub.SetReadDeadline(time.Now().Add(3 * time.Second))
	buf := make([]byte, 65536)
	n, err := stub.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	var resp dnswire.Message
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 99 || !resp.RecursionAvailable || resp.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("stub response: %+v", resp)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(dnswire.A).Addr.String() != "192.0.2.80" {
		t.Fatalf("answers: %+v", resp.Answers)
	}
	if r.Stats().RootQueries != 0 {
		t.Error("lookaside stack queried a root")
	}

	// Malformed opcode and multi-question messages get sane rcodes.
	bad := dnswire.NewQuery(7, "x.example.com.", dnswire.TypeA)
	bad.Opcode = dnswire.OpcodeNotify
	wire, _ = bad.Pack()
	_, _ = stub.Write(wire)
	_ = stub.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err = stub.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Unpack(buf[:n]); err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != dnswire.RcodeNotImpl {
		t.Errorf("notify rcode = %v", resp.Rcode)
	}
}

// rewriteTransport redirects queries for production glue addresses to
// loopback test listeners.
type rewriteTransport struct {
	inner     *UDPTransport
	loop      netip.Addr
	portByDst map[netip.Addr]uint16
}

func (t *rewriteTransport) Exchange(dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	port, ok := t.portByDst[dst]
	if !ok {
		return nil, 0, &net.OpError{Op: "dial", Err: errNoTestRoute}
	}
	inner := &UDPTransport{Timeout: t.inner.Timeout, Port: port}
	return inner.Exchange(t.loop, q)
}

var errNoTestRoute = net.UnknownNetworkError("no test route")

func TestUDPTransportTimeout(t *testing.T) {
	// A black-hole destination (loopback port with no listener) times out.
	tr := &UDPTransport{Timeout: 200 * time.Millisecond, Port: 1}
	start := time.Now()
	_, _, err := tr.Exchange(netip.MustParseAddr("127.0.0.1"), dnswire.NewQuery(1, "example.com.", dnswire.TypeA))
	if err == nil {
		t.Fatal("expected timeout or refusal")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout not honoured")
	}
}

var (
	realV4   = netip.MustParseAddr("192.0.2.1")
	forgedV4 = netip.MustParseAddr("192.0.2.66")
)

// exchangePastForgeries asks a loopback responder for ExAmPlE.CoM. A (ID
// 42). The responder first sends one forged reply per edit, each the real
// reply with its address replaced by forgedV4 and the edit applied, then
// the real reply, whose question name reads in lower case once unpacked.
// Exchange must return the real one.
func exchangePastForgeries(t *testing.T, edits ...func(*dnswire.Message)) {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		buf := make([]byte, 65536)
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			return
		}
		var q dnswire.Message
		if err := q.Unpack(buf[:n]); err != nil || len(q.Questions) != 1 {
			return
		}
		send := func(question dnswire.Question, a netip.Addr, edit func(*dnswire.Message)) {
			m := &dnswire.Message{ID: q.ID, Response: true, Questions: []dnswire.Question{question},
				Answers: []dnswire.RR{dnswire.NewRR(question.Name, 60, dnswire.A{Addr: a})}}
			edit(m)
			w, _ := m.Pack()
			_, _ = conn.WriteTo(w, addr)
		}
		for _, edit := range edits {
			send(q.Questions[0], forgedV4, edit)
		}
		send(q.Questions[0], realV4, func(*dnswire.Message) {})
	}()

	port := uint16(conn.LocalAddr().(*net.UDPAddr).Port)
	tr := &UDPTransport{Timeout: 2 * time.Second, Port: port}
	resp, _, err := tr.Exchange(netip.MustParseAddr("127.0.0.1"), dnswire.NewQuery(42, "ExAmPlE.CoM.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 42 || len(resp.Answers) != 1 || resp.Answers[0].Data.(dnswire.A).Addr != realV4 {
		t.Fatalf("accepted a forged reply: %+v", resp)
	}
}

func TestUDPTransportIDMismatchIgnored(t *testing.T) {
	exchangePastForgeries(t, func(m *dnswire.Message) { m.ID++ })
}

// TestUDPTransportQuestionMismatchIgnored is the off-path forger who
// guessed the ID: replies with the right ID but another name, type or
// class must be passed over for the real one (RFC 5452 §9.1).
func TestUDPTransportQuestionMismatchIgnored(t *testing.T) {
	exchangePastForgeries(t,
		func(m *dnswire.Message) { m.Questions[0].Name = "www.bank.example." },
		func(m *dnswire.Message) { m.Questions[0].Type = dnswire.TypeAAAA },
		func(m *dnswire.Message) { m.Questions[0].Class = dnswire.ClassINET + 1 })
}

// TestUDPTransportOffPathPortIgnored is the forger who guessed the ID and
// the question but sends from another port of the server's address: its
// reply reaches the client's port first, and Exchange must wait for the
// real server's. The connected socket Exchange dials is what filters it,
// so a transport that reads from an unconnected socket must check the
// source address and port itself.
func TestUDPTransportOffPathPortIgnored(t *testing.T) {
	server, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	forger, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer forger.Close()
	go func() {
		buf := make([]byte, 65536)
		n, client, err := server.ReadFrom(buf)
		if err != nil {
			return
		}
		var q dnswire.Message
		if err := q.Unpack(buf[:n]); err != nil || len(q.Questions) != 1 {
			return
		}
		reply := func(a netip.Addr) []byte {
			m := &dnswire.Message{ID: q.ID, Response: true, Questions: q.Questions,
				Answers: []dnswire.RR{dnswire.NewRR(q.Questions[0].Name, 60, dnswire.A{Addr: a})}}
			w, _ := m.Pack()
			return w
		}
		_, _ = forger.WriteTo(reply(forgedV4), client)
		time.Sleep(50 * time.Millisecond) // the forgery is delivered, or dropped, first
		_, _ = server.WriteTo(reply(realV4), client)
	}()

	port := uint16(server.LocalAddr().(*net.UDPAddr).Port)
	tr := &UDPTransport{Timeout: 2 * time.Second, Port: port}
	resp, _, err := tr.Exchange(netip.MustParseAddr("127.0.0.1"), dnswire.NewQuery(42, "example.com.", dnswire.TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(dnswire.A).Addr != realV4 {
		t.Fatalf("accepted the reply from another port: %+v", resp)
	}
}

func TestUDPTransportPortOverrides(t *testing.T) {
	tr := &UDPTransport{
		Timeout:       100 * time.Millisecond,
		Port:          1, // black hole
		PortOverrides: map[netip.Addr]uint16{netip.MustParseAddr("127.0.0.9"): 2},
	}
	// Both fail fast, but exercise the override path.
	_, _, err1 := tr.Exchange(netip.MustParseAddr("127.0.0.1"), dnswire.NewQuery(1, "a.", dnswire.TypeA))
	_, _, err2 := tr.Exchange(netip.MustParseAddr("127.0.0.9"), dnswire.NewQuery(2, "a.", dnswire.TypeA))
	if err1 == nil || err2 == nil {
		t.Fatal("black holes answered")
	}
}
