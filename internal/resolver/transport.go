package resolver

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"rootless/internal/dnswire"
)

// UDPTransport sends queries over real UDP sockets — the production
// counterpart of the netsim transport used in experiments.
type UDPTransport struct {
	// Timeout bounds each exchange (default 3 s).
	Timeout time.Duration
	// Port is the destination port (default 53).
	Port uint16
	// PortOverrides maps specific server addresses to alternate ports —
	// e.g. a local root instance on an unprivileged port.
	PortOverrides map[netip.Addr]uint16
}

// Exchange implements Transport.
func (t *UDPTransport) Exchange(dst netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	port := t.Port
	if p, ok := t.PortOverrides[dst]; ok {
		port = p
	}
	if port == 0 {
		port = 53
	}
	start := time.Now()
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(netip.AddrPortFrom(dst, port)))
	if err != nil {
		return nil, time.Since(start), err
	}
	defer conn.Close()
	if err := conn.SetDeadline(start.Add(timeout)); err != nil {
		return nil, time.Since(start), err
	}
	wire, err := query.Pack()
	if err != nil {
		return nil, time.Since(start), err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, time.Since(start), err
	}
	buf := make([]byte, 64*1024)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, time.Since(start), fmt.Errorf("resolver: udp exchange: %w", err)
		}
		var resp dnswire.Message
		if err := resp.Unpack(buf[:n]); err != nil {
			continue // mismatched or corrupt datagram; keep waiting
		}
		if resp.ID != query.ID || !sameQuestion(resp.Questions, query.Questions) {
			continue
		}
		return &resp, time.Since(start), nil
	}
}

// sameQuestion reports whether a reply's question section is the
// query's: what, beside the ID, an off-path forger has to guess (RFC 5452
// §9.1). Names compare case-insensitively.
func sameQuestion(got, sent []dnswire.Question) bool {
	if len(got) != 1 || len(sent) != 1 {
		return false
	}
	g, s := got[0], sent[0]
	return g.Type == s.Type && g.Class == s.Class && g.Name.Compare(s.Name) == 0
}
