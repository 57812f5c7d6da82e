package overload

import (
	"net/netip"
	"strings"
	"sync"
	"time"
)

// RRLAction is an RRL verdict for one response.
type RRLAction int

// Verdicts. Send delivers the response unchanged; Drop suppresses it
// silently; Slip delivers a truncated (TC=1) stand-in, so a legitimate
// client behind a spoofed address can still retry over TCP.
const (
	RRLSend RRLAction = iota
	RRLDrop
	RRLSlip
)

// RRLStats counts RRL outcomes.
type RRLStats struct {
	Sent    int64
	Dropped int64
	Slipped int64
}

// rrlKey identifies one rate-limited response class: the client network
// (BIND-style /24 for IPv4, /56 for IPv6 — per-host state would let a
// spoofer exhaust the table), the response code and the query name.
type rrlKey struct {
	net   netip.Prefix
	rcode uint8
	qname string
}

// rrlState tracks one response class's bucket plus the slip cadence.
type rrlState struct {
	bucket
	debt int // responses suppressed since the last slip
}

// RRL implements classic DNS Response-Rate-Limiting: identical responses
// toward one client network are limited to a rate, and every slip-th
// suppressed response is delivered truncated instead of dropped. A nil
// *RRL sends everything.
type RRL struct {
	rate float64 // responses/sec per (client network, token)
	slip int
	max  int

	mu     sync.Mutex
	states map[rrlKey]*rrlState
	stats  RRLStats
}

// NewRRL builds a limiter allowing ratePerSec identical responses per
// second per client network. Every slip-th suppressed response slips
// through truncated (slip <= 0 drops them all). maxTracked bounds the
// state table (<= 0 defaults to 65536). ratePerSec <= 0 returns nil:
// disabled.
func NewRRL(ratePerSec, slip, maxTracked int) *RRL {
	if ratePerSec <= 0 {
		return nil
	}
	if maxTracked <= 0 {
		maxTracked = 65536
	}
	return &RRL{
		rate:   float64(ratePerSec),
		slip:   slip,
		max:    maxTracked,
		states: make(map[rrlKey]*rrlState),
	}
}

// Decide classifies one response toward client at time now: a response
// with the given code to a query for qname. A flood of one spoofed
// question is limited without touching answers for other names. qname
// is only read: the state for a class it opens keeps a copy. An invalid
// client address (e.g. the simulated network's anonymous source, or TCP
// where the return path is validated) always sends.
func (r *RRL) Decide(client netip.Addr, rcode uint8, qname string, now time.Time) RRLAction {
	if r == nil || !client.IsValid() {
		return RRLSend
	}
	cnet := clientNet(client)
	key := rrlKey{net: cnet, rcode: rcode, qname: qname}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.states[key]
	if !ok {
		if len(r.states) >= r.max {
			r.prune(now)
		}
		if len(r.states) >= r.max {
			r.stats.Sent++
			return RRLSend // fail open, as the limiter does
		}
		st = &rrlState{bucket: bucket{tokens: r.rate, last: now}}
		r.states[rrlKey{net: cnet, rcode: rcode, qname: strings.Clone(qname)}] = st
	}
	if st.take(now, r.rate, r.rate) {
		r.stats.Sent++
		return RRLSend
	}
	st.debt++
	if r.slip > 0 && st.debt >= r.slip {
		st.debt = 0
		r.stats.Slipped++
		return RRLSlip
	}
	r.stats.Dropped++
	return RRLDrop
}

// prune drops fully-refilled (idle) states. Called with r.mu held.
func (r *RRL) prune(now time.Time) {
	for k, st := range r.states {
		if st.full(now, r.rate, r.rate) {
			delete(r.states, k)
		}
	}
}

// Tracked returns how many response-class states are resident.
func (r *RRL) Tracked() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.states)
}

// Stats returns a snapshot of the counters (zero for a nil RRL).
func (r *RRL) Stats() RRLStats {
	if r == nil {
		return RRLStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// clientNet masks a client address to its RRL accounting network.
func clientNet(a netip.Addr) netip.Prefix {
	bits := 24
	if a.Is6() && !a.Is4In6() {
		bits = 56
	}
	p, err := a.Prefix(bits)
	if err != nil {
		return netip.PrefixFrom(a, a.BitLen())
	}
	return p
}
