package authserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// NOTIFY (RFC 1996) completes the DNS-native distribution triangle:
// instead of secondaries polling the SOA, the primary pushes a change
// notification and the secondary pulls the delta with IXFR immediately.
// For root zone distribution this turns the §5.3 new-TLD lag into
// seconds.

// AddSecondary registers a NOTIFY target ("host:port", UDP). Every
// SetZone afterwards pushes a notification there.
func (s *Server) AddSecondary(addr string) {
	s.mu.Lock()
	s.secondaries = append(s.secondaries, addr)
	s.mu.Unlock()
}

// notifySecondaries fires one NOTIFY datagram per registered secondary.
// Failures are ignored: NOTIFY is advisory and secondaries still poll.
func (s *Server) notifySecondaries(z *zone.Zone) {
	s.mu.Lock()
	targets := append([]string(nil), s.secondaries...)
	s.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	soa, ok := z.SOA()
	if !ok {
		return
	}
	msg := &dnswire.Message{
		ID:            uint16(z.Serial()), // any id; serial low bits are fine
		Opcode:        dnswire.OpcodeNotify,
		Authoritative: true,
		Questions: []dnswire.Question{{
			Name: z.Origin, Type: dnswire.TypeSOA, Class: dnswire.ClassINET}},
		Answers: []dnswire.RR{soa},
	}
	wire, err := msg.Pack()
	if err != nil {
		return
	}
	for _, target := range targets {
		conn, err := net.Dial("udp", target)
		if err != nil {
			continue
		}
		_, _ = conn.Write(wire)
		conn.Close()
	}
}

// Secondary maintains a replica of a zone: it answers NOTIFY pushes by
// IXFR-ing from the primary, and can also poll. The replica zone is
// exposed for serving (e.g. behind another Server).
type Secondary struct {
	origin     dnswire.Name
	primaryTCP string
	mu         sync.Mutex
	zone       *zone.Zone
	onUpdate   func(*zone.Zone)
	transfers  int64
	notifies   int64
	ackErrs    int64
	lastErr    error
}

// NewSecondary creates a replica that transfers from primaryTCP
// ("host:port"). An initial AXFR fetches the first copy.
func NewSecondary(ctx context.Context, origin dnswire.Name, primaryTCP string) (*Secondary, error) {
	z, err := AXFR(ctx, primaryTCP, origin)
	if err != nil {
		return nil, fmt.Errorf("authserver: secondary bootstrap: %w", err)
	}
	return &Secondary{origin: origin, primaryTCP: primaryTCP, zone: z}, nil
}

// Zone returns the current replica.
func (sec *Secondary) Zone() *zone.Zone {
	sec.mu.Lock()
	defer sec.mu.Unlock()
	return sec.zone
}

// OnUpdate registers a callback invoked with each new replica version.
func (sec *Secondary) OnUpdate(fn func(*zone.Zone)) {
	sec.mu.Lock()
	sec.onUpdate = fn
	sec.mu.Unlock()
}

// Stats returns (transfers completed, notifies received, last error).
func (sec *Secondary) Stats() (int64, int64, error) {
	sec.mu.Lock()
	defer sec.mu.Unlock()
	return sec.transfers, sec.notifies, sec.lastErr
}

// AckErrs returns how many NOTIFY acknowledgements failed to send. The
// transfer still proceeds on a failed ACK (the primary will simply
// retry the NOTIFY), but a persistently nonzero counter means the
// return path to the primary is broken.
func (sec *Secondary) AckErrs() int64 {
	sec.mu.Lock()
	defer sec.mu.Unlock()
	return sec.ackErrs
}

// Refresh performs one IXFR (or fallback AXFR) against the primary.
func (sec *Secondary) Refresh() error {
	sec.mu.Lock()
	cur := sec.zone
	sec.mu.Unlock()
	updated, _, err := IXFR(sec.primaryTCP, cur)
	if err != nil {
		sec.mu.Lock()
		sec.lastErr = err
		sec.mu.Unlock()
		return err
	}
	sec.mu.Lock()
	changed := updated.Serial() != sec.zone.Serial()
	sec.zone = updated
	sec.transfers++
	sec.lastErr = nil
	fn := sec.onUpdate
	sec.mu.Unlock()
	if changed && fn != nil {
		fn(updated)
	}
	return nil
}

// ServeNotify listens for NOTIFY datagrams on conn and refreshes on each
// one, until ctx ends or the connection closes. Cancelling ctx closes
// conn to unblock the read; the closer goroutine itself is released
// when ServeNotify returns for any reason, so a conn closed from
// elsewhere does not strand it for the life of the process.
func (sec *Secondary) ServeNotify(ctx context.Context, conn net.PacketConn) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-done:
		}
	}()
	buf := make([]byte, 4096)
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		var m dnswire.Message
		if err := m.Unpack(buf[:n]); err != nil {
			continue
		}
		if m.Opcode != dnswire.OpcodeNotify || len(m.Questions) != 1 ||
			m.Questions[0].Name != sec.origin {
			continue
		}
		sec.mu.Lock()
		sec.notifies++
		sec.mu.Unlock()

		// Acknowledge (RFC 1996 §4.7), then transfer.
		resp := &dnswire.Message{
			ID: m.ID, Opcode: dnswire.OpcodeNotify, Response: true,
			Authoritative: true, Questions: m.Questions,
		}
		if wire, err := resp.Pack(); err == nil {
			if _, werr := conn.WriteTo(wire, addr); werr != nil {
				sec.mu.Lock()
				sec.ackErrs++
				sec.lastErr = fmt.Errorf("authserver: NOTIFY ack to %v: %w", addr, werr)
				sec.mu.Unlock()
			}
		}
		_ = sec.Refresh()
	}
}
