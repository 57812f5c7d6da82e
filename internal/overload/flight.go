// Package overload provides the building blocks for overload protection
// under junk-query floods — the paper's §2.2 reality that >95 % of
// root-bound traffic is garbage means the realistic failure mode for a
// root-serving system is a sustained flood, not just dark servers:
//
//   - Flight: singleflight coalescing, so N concurrent identical cache
//     misses trigger one upstream resolution shared by all waiters.
//   - Gate: a bounded-concurrency admission gate with an optional queue
//     deadline; over-capacity work is shed early and predictably.
//   - ClientLimiter: a per-client token bucket, the first line of
//     defence against a single abusive stub or spoofed source.
//   - RRL: classic DNS Response-Rate-Limiting (slip-N truncate-or-drop)
//     for authoritative servers, keyed by (client network, response).
//
// Everything is safe for concurrent use and nil-tolerant: a nil Gate
// admits everything, a nil ClientLimiter and a nil RRL allow everything,
// so callers can wire the knobs unconditionally and leave them off.
package overload

import "sync"

// flightCall is one in-flight execution waiters block on.
type flightCall struct {
	wg  sync.WaitGroup
	val any
	err error
}

// FlightStats counts coalescing outcomes.
type FlightStats struct {
	// Leaders executed the work; Waiters shared a leader's result.
	Leaders int64
	Waiters int64
}

// Flight deduplicates concurrent function calls by key: while one call
// for a key runs, further calls for the same key wait and share its
// result instead of repeating the work.
type Flight[K comparable] struct {
	mu    sync.Mutex
	calls map[K]*flightCall
	stats FlightStats
}

// NewFlight creates an empty Flight.
func NewFlight[K comparable]() *Flight[K] {
	return &Flight[K]{calls: make(map[K]*flightCall)}
}

// Do runs fn once per key at a time: the first caller (the leader)
// executes fn; callers arriving while it runs wait and receive the same
// (val, err) with shared = true. Once the leader returns, the key is
// forgotten — later calls start a fresh flight.
func (f *Flight[K]) Do(key K, fn func() (any, error)) (val any, err error, shared bool) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		f.stats.Waiters++
		f.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	f.calls[key] = c
	f.stats.Leaders++
	f.mu.Unlock()

	// Forget the key even if fn panics, so waiters are released and
	// later calls do not hang on a flight that will never land.
	defer func() {
		f.mu.Lock()
		delete(f.calls, key)
		f.mu.Unlock()
		c.wg.Done()
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// Inflight returns how many keys are currently being executed.
func (f *Flight[K]) Inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// Stats returns a snapshot of the counters.
func (f *Flight[K]) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
