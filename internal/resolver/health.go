package resolver

import (
	"net/netip"
	"time"
)

// Per-server health defaults. A server that keeps failing is first
// deprioritised with a decorrelated-jitter backoff, then — after
// HoldDownAfter consecutive failures — held down entirely: skipped
// across resolutions until the hold-down expires, at which point one
// attempt is re-admitted as a probe (a half-open circuit breaker). Each
// failed probe doubles the hold period up to maxHoldDownFactor× the base.
const (
	defaultHoldDownAfter = 3
	defaultHoldDown      = 30 * time.Second
	maxHoldDownFactor    = 16
	defaultBackoffBase   = 500 * time.Millisecond
	defaultBackoffCap    = 30 * time.Second
	defaultRetryBudget   = 16
)

// serverHealth is the per-server failure state, guarded by Resolver.mu.
type serverHealth struct {
	fails        int           // consecutive failures (timeouts + lame)
	backoffDelay time.Duration // last decorrelated-jitter delay drawn
	backoffUntil time.Time
	holdPeriod   time.Duration // current breaker period; doubles per re-trip
	heldUntil    time.Time
}

func (r *Resolver) healthEnabled() bool { return r.cfg.HoldDownAfter >= 0 }

func (r *Resolver) holdDownThreshold() int {
	if r.cfg.HoldDownAfter > 0 {
		return r.cfg.HoldDownAfter
	}
	return defaultHoldDownAfter
}

// planAttempts filters and reorders SRTT-sorted candidates by health:
// healthy servers first, backing-off servers demoted to the end, held-down
// servers skipped. probes marks servers whose hold-down just expired —
// their next attempt is the breaker's half-open probe. If every server is
// held, the one expiring soonest is force-probed rather than failing the
// resolution without a single packet.
func (r *Resolver) planAttempts(addrs []netip.Addr, now time.Time) (candidates []netip.Addr, held int, probes map[netip.Addr]bool) {
	if !r.healthEnabled() {
		return addrs, 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.health) == 0 {
		return addrs, 0, nil
	}
	var ready, backing, heldAddrs []netip.Addr
	for _, a := range addrs {
		h := r.health[a]
		switch {
		case h == nil:
			ready = append(ready, a)
		case now.Before(h.heldUntil):
			heldAddrs = append(heldAddrs, a)
		case !h.heldUntil.IsZero():
			if probes == nil {
				probes = make(map[netip.Addr]bool)
			}
			probes[a] = true
			ready = append(ready, a)
		case now.Before(h.backoffUntil):
			backing = append(backing, a)
		default:
			ready = append(ready, a)
		}
	}
	if len(ready)+len(backing) == 0 && len(heldAddrs) > 0 {
		soonest := heldAddrs[0]
		for _, a := range heldAddrs[1:] {
			if r.health[a].heldUntil.Before(r.health[soonest].heldUntil) {
				soonest = a
			}
		}
		if probes == nil {
			probes = make(map[netip.Addr]bool)
		}
		probes[soonest] = true
		return []netip.Addr{soonest}, len(heldAddrs) - 1, probes
	}
	return append(ready, backing...), len(heldAddrs), probes
}

// noteFailure records a failed attempt against addr: it advances the
// server's decorrelated-jitter backoff (delay = min(cap, rand[base,
// 3·prev])) and, at the hold-down threshold, trips the circuit breaker.
// It returns the new backoff delay, and the hold period iff this failure
// tripped (or re-tripped) the breaker.
func (r *Resolver) noteFailure(addr netip.Addr, now time.Time) (backoff, hold time.Duration) {
	if !r.healthEnabled() {
		return 0, 0
	}
	base, ceil := r.cfg.BackoffBase, r.cfg.BackoffCap
	if base <= 0 {
		base = defaultBackoffBase
	}
	if ceil <= 0 {
		ceil = defaultBackoffCap
	}
	holdBase := r.cfg.HoldDown
	if holdBase <= 0 {
		holdBase = defaultHoldDown
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.health[addr]
	if h == nil {
		makeRoom(r.health)
		h = &serverHealth{}
		r.health[addr] = h
	}
	h.fails++
	prev := h.backoffDelay
	if prev < base {
		prev = base
	}
	d := base
	if span := 3*prev - base; span > 0 {
		d = base + time.Duration(r.rng.Int63n(int64(span)+1))
	}
	if d > ceil {
		d = ceil
	}
	h.backoffDelay = d
	h.backoffUntil = now.Add(d)
	switch threshold := r.holdDownThreshold(); {
	case h.fails < threshold:
		return d, 0
	case h.fails == threshold:
		h.holdPeriod = holdBase
	default:
		// A failed re-admission probe: back off harder.
		h.holdPeriod *= 2
		if lim := holdBase * maxHoldDownFactor; h.holdPeriod > lim {
			h.holdPeriod = lim
		}
	}
	h.heldUntil = now.Add(h.holdPeriod)
	return d, h.holdPeriod
}

// noteSuccess clears a server's failure state — one good answer closes
// the breaker and resets the backoff.
func (r *Resolver) noteSuccess(addr netip.Addr) {
	if !r.healthEnabled() {
		return
	}
	r.mu.Lock()
	delete(r.health, addr)
	r.mu.Unlock()
}

// HealthCounts reports how many servers are currently held down and how
// many are merely backing off — the health-state gauges /metrics exposes.
func (r *Resolver) HealthCounts() (held, backing int) {
	now := r.cfg.Clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.health {
		switch {
		case now.Before(h.heldUntil):
			held++
		case now.Before(h.backoffUntil):
			backing++
		}
	}
	return held, backing
}

// retryBudget returns the per-resolution failed-attempt allowance.
func (r *Resolver) retryBudget() int {
	switch {
	case r.cfg.RetryBudget > 0:
		return r.cfg.RetryBudget
	case r.cfg.RetryBudget < 0:
		return int(^uint(0) >> 1) // disabled: effectively unbounded
	}
	return defaultRetryBudget
}
