package authserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/udpengine"
	"rootless/internal/zone"
)

// ServeWire answers one raw query datagram: parse, run the overload
// pipeline and lookup, and append the response wire format to out.
// Returns nil when the datagram is malformed, is itself a response, or
// is dropped by rate limiting or admission control. A datagram without
// exactly one question is answered FORMERR, header only. req is only
// read during the call, matching the udpengine buffer-ownership
// contract: Query.Parse decodes the question name into the Query on this
// frame and aliases nothing. The name is handed around as a view of that
// Query, so a hit allocates nothing; what keeps it — a packed entry and
// its template, a denial message, a joined trace, an RRL bucket, a top-K
// slot — keeps a copy.
func (s *Server) ServeWire(req []byte, from netip.Addr, out []byte) []byte {
	// A response is never a query. Answering one would let a single
	// spoofed packet set two servers replying to each other for good.
	if len(req) > 2 && req[2]&(dnswire.FlagQR>>8) != 0 {
		atomic.AddInt64(&s.stats.ResponsesDropped, 1)
		return nil
	}
	var q dnswire.Query
	if err := q.Parse(req); err != nil && !errors.Is(err, dnswire.ErrQuestionCount) {
		return nil
	}
	tr := s.joinRemoteTrace(&q)
	r := s.handle(tr, &q, from)
	if tr != nil {
		r = s.attachTrace(tr, &q, r)
	}
	if r.denial != nil {
		// A precompiled NXDOMAIN: header, question and the denial's image,
		// its pointers moved past this question, written straight into
		// out. No Message, no pack.
		return r.denial.image.Append(out, q.ID, q.Flags&dnswire.FlagRD != 0, q.Question())
	}
	if r.wire != nil {
		// Precompiled answer, from the cache or from the one pack a miss
		// makes: copy the wire (ID 0, RD clear) and patch the two
		// query-specific header bits in place.
		start := len(out)
		out = append(out, r.wire...)
		binary.BigEndian.PutUint16(out[start:start+2], q.ID)
		if q.Flags&dnswire.FlagRD != 0 {
			out[start+2] |= 0x01
		}
		return out
	}
	if r.dropped() {
		return nil // dropped by rate limiting or admission control
	}
	// No precompiled image: a question refused before the cache, an RRL
	// slip, or a reply carrying a trace payload.
	atomic.AddInt64(&s.stats.WirePacks, 1)
	out, err := r.msg.AppendPack(out)
	if err != nil {
		return nil
	}
	return out
}

// DatagramHandler adapts the server to the udpengine handler contract.
func (s *Server) DatagramHandler() udpengine.Handler {
	return udpengine.HandlerFunc(func(req []byte, src udpengine.Peer, resp []byte) []byte {
		return s.ServeWire(req, src.Addr.Addr(), resp)
	})
}

// ServeUDP answers queries on conn until the connection is closed or ctx
// is cancelled. Malformed packets are dropped silently, as real servers
// do. This is the single-socket compatibility path: one engine worker on
// the caller's conn performs exactly the classic read→handle→write loop.
// Multi-core serving builds the engine directly (see cmd/authd).
func (s *Server) ServeUDP(ctx context.Context, conn net.PacketConn) error {
	eng, err := udpengine.New(udpengine.Config{
		Conns:     []net.PacketConn{conn},
		Handler:   s.DatagramHandler(),
		MaxPacket: 64 * 1024,
	})
	if err != nil {
		return err
	}
	return eng.Serve(ctx)
}

// ServeTCP accepts DNS-over-TCP connections (RFC 1035 §4.2.2 two-byte
// length framing) on l. AXFR questions stream the whole zone.
func (s *Server) ServeTCP(ctx context.Context, l net.Listener) error {
	go func() {
		<-ctx.Done()
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveTCPConn(conn)
	}
}

// tcpTimeout returns the per-I/O deadline for TCP connections.
func (s *Server) tcpTimeout() time.Duration {
	if s.TCPTimeout > 0 {
		return s.TCPTimeout
	}
	return 30 * time.Second
}

// deadlineWriter refreshes the write deadline before every Write, so a
// peer that accepts a connection but stops reading cannot park the
// handler goroutine — including mid-AXFR/IXFR stream — indefinitely.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (d deadlineWriter) Write(p []byte) (int, error) {
	_ = d.conn.SetWriteDeadline(time.Now().Add(d.timeout))
	return d.conn.Write(p)
}

func (s *Server) serveTCPConn(conn net.Conn) {
	defer conn.Close()
	timeout := s.tcpTimeout()
	w := deadlineWriter{conn: conn, timeout: timeout}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
		q, err := ReadTCPMessage(conn)
		if err != nil {
			return
		}
		if len(q.Questions) == 1 && q.Questions[0].Type == dnswire.TypeAXFR {
			atomic.AddInt64(&s.stats.AXFRs, 1)
			atomic.AddInt64(&s.stats.Queries, 1)
			if err := s.streamAXFR(w, q); err != nil {
				return
			}
			continue
		}
		if len(q.Questions) == 1 && q.Questions[0].Type == dnswire.TypeIXFR {
			atomic.AddInt64(&s.stats.IXFRs, 1)
			atomic.AddInt64(&s.stats.Queries, 1)
			if err := s.streamIXFR(w, q); err != nil {
				return
			}
			continue
		}
		// The zero from-address exempts TCP from per-client limiting and
		// RRL (the connection already validates the return path), but the
		// admission gate still applies: a shed query closes the
		// connection rather than promising an answer that never comes.
		resp := s.Handle(q, netip.Addr{})
		if resp == nil {
			return
		}
		resp.Truncated = false // no truncation over TCP
		if err := WriteTCPMessage(w, resp); err != nil {
			return
		}
	}
}

// streamAXFR sends the zone as a record stream bracketed by the SOA.
func (s *Server) streamAXFR(w io.Writer, q *dnswire.Message) error {
	z := s.Zone()
	if q.Questions[0].Name != z.Origin {
		resp := &dnswire.Message{ID: q.ID, Response: true, Rcode: dnswire.RcodeNotAuth,
			Questions: q.Questions}
		return WriteTCPMessage(w, resp)
	}
	soa, ok := z.SOA()
	if !ok {
		resp := &dnswire.Message{ID: q.ID, Response: true, Rcode: dnswire.RcodeServFail,
			Questions: q.Questions}
		return WriteTCPMessage(w, resp)
	}
	records := z.Records()
	// Batch records into messages of ~100 RRs, SOA first and last.
	const batch = 100
	var out []dnswire.RR
	out = append(out, soa)
	flush := func(final bool) error {
		if final {
			out = append(out, soa)
		}
		if len(out) == 0 {
			return nil
		}
		m := &dnswire.Message{ID: q.ID, Response: true, Authoritative: true,
			Questions: q.Questions, Answers: out}
		out = nil
		return WriteTCPMessage(w, m)
	}
	for _, rr := range records {
		if rr.Type == dnswire.TypeSOA && rr.Name == z.Origin {
			continue
		}
		out = append(out, rr)
		if len(out) >= batch {
			if err := flush(false); err != nil {
				return err
			}
		}
	}
	return flush(true)
}

// ReadTCPMessage reads one length-framed DNS message.
func ReadTCPMessage(r io.Reader) (*dnswire.Message, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lenBuf[:])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	var m dnswire.Message
	if err := m.Unpack(buf); err != nil {
		return nil, err
	}
	return &m, nil
}

// WriteTCPMessage writes one length-framed DNS message.
func WriteTCPMessage(w io.Writer, m *dnswire.Message) error {
	wire, err := m.Pack()
	if err != nil {
		return err
	}
	if len(wire) > 0xFFFF {
		return errors.New("authserver: message exceeds TCP frame limit")
	}
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(wire)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = w.Write(wire)
	return err
}

// AXFR fetches a zone over TCP from addr ("host:port").
func AXFR(ctx context.Context, addr string, origin dnswire.Name) (*zone.Zone, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	// With a ctx deadline the whole transfer is bounded by it; without
	// one, fall back to a rolling per-message deadline so a stalled
	// server still cannot hang the client forever.
	deadline, bounded := ctx.Deadline()
	if bounded {
		_ = conn.SetDeadline(deadline)
	} else {
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	}

	q := &dnswire.Message{
		ID:        1,
		Opcode:    dnswire.OpcodeQuery,
		Questions: []dnswire.Question{{Name: origin, Type: dnswire.TypeAXFR, Class: dnswire.ClassINET}},
	}
	if err := WriteTCPMessage(conn, q); err != nil {
		return nil, err
	}

	z := zone.New(origin)
	soaSeen := 0
	for soaSeen < 2 {
		if !bounded {
			_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		}
		m, err := ReadTCPMessage(conn)
		if err != nil {
			return nil, fmt.Errorf("authserver: AXFR stream: %w", err)
		}
		if m.Rcode != dnswire.RcodeSuccess {
			return nil, fmt.Errorf("authserver: AXFR refused: %s", m.Rcode)
		}
		if len(m.Answers) == 0 {
			return nil, errors.New("authserver: empty AXFR message")
		}
		for _, rr := range m.Answers {
			if rr.Type == dnswire.TypeSOA && rr.Name == origin {
				soaSeen++
				if soaSeen == 2 {
					break
				}
			}
			if err := z.Add(rr); err != nil {
				return nil, err
			}
		}
	}
	return z, nil
}

func addrFrom(a net.Addr) netip.Addr {
	if ap, err := netip.ParseAddrPort(a.String()); err == nil {
		return ap.Addr()
	}
	return netip.Addr{}
}

// dialTCP opens a TCP connection with a sane deadline for transfers.
func dialTCP(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(60 * time.Second))
	return conn, nil
}
