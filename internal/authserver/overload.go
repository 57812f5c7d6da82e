package authserver

import (
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/overload"
)

// OverloadConfig wires overload protection into a Server. Zero values
// disable each mechanism individually, so a partially filled config is
// fine: a root instance might want RRL only, a TLD secondary the gate.
type OverloadConfig struct {
	// MaxInflight bounds concurrently handled queries; over-capacity
	// queries wait up to QueueDeadline for a slot, then are dropped
	// (0 = unlimited / drop immediately when full).
	MaxInflight   int
	QueueDeadline time.Duration
	// PerClientQPS token-buckets each client address (0 = unlimited);
	// PerClientBurst defaults to PerClientQPS.
	PerClientQPS   float64
	PerClientBurst float64
	// RRLRate enables response-rate-limiting at this many identical
	// responses per second per client network (0 = disabled); every
	// RRLSlip-th suppressed response goes out truncated instead of
	// dropped (0 = drop all).
	RRLRate int
	RRLSlip int
	// Clock supplies time for the rate limiters; nil means time.Now.
	// Experiments pass the simulated network's virtual clock.
	Clock func() time.Time
}

// protection is the installed overload protection, swapped whole by
// SetOverload so that a query reads all of it with one atomic load. A
// nil gate, limiter or RRL admits everything.
type protection struct {
	gate    *overload.Gate
	clients *overload.ClientLimiter
	rrl     *overload.RRL
	clock   func() time.Time
}

// SetOverload installs overload protection; the zero config removes all
// of it. Queries already admitted finish under the protection they met.
func (s *Server) SetOverload(cfg OverloadConfig) {
	s.guard.Store(&protection{
		gate:    overload.NewGate(cfg.MaxInflight, cfg.QueueDeadline),
		clients: overload.NewClientLimiter(cfg.PerClientQPS, cfg.PerClientBurst, 0),
		rrl:     overload.NewRRL(cfg.RRLRate, cfg.RRLSlip, 0),
		clock:   cfg.Clock,
	})
}

// now reads the configured clock.
func (p *protection) now() time.Time {
	if p.clock != nil {
		return p.clock()
	}
	return time.Now()
}

// slipResponse turns a response into the RRL "slip": truncated, with
// every record section stripped, so a legitimate client behind a
// spoofed source can still fall back to TCP.
func slipResponse(resp *dnswire.Message) *dnswire.Message {
	resp.Truncated = true
	resp.Answers, resp.Authority, resp.Additional = nil, nil, nil
	return resp
}
