package traffic

import (
	"sort"
	"sync"
	"sync/atomic"
)

// TopK tracks the k heaviest keys of a stream in O(k) memory using
// Filtered Space-Saving. The hit path — a key already among the k — is
// lock-free: one lookup in an immutable map published through an atomic
// pointer, plus one atomic increment, so a heavy hitter (the common case
// in Zipf-shaped DNS traffic) costs ~two cache references. Misses
// increment a fixed array of admission counters; only when a bucket
// outgrows the current minimum does the slow path take a mutex, evict
// the minimum entry Space-Saving-style, and publish a rebuilt map.
//
// Guarantees are the classic Space-Saving ones: every key with true
// count > N/k is present, and each reported count overestimates the true
// count by at most the entry's Err (the evicted minimum at promotion
// time, further tightened by the shared admission bucket).
type TopK[K comparable] struct {
	k      int
	live   atomic.Pointer[map[K]*topEntry[K]]
	minAt  atomic.Int64    // smallest entry count at last publish
	filter []atomic.Uint32 // admission counters (power-of-two sized)
	mask   uint64
	mu     sync.Mutex // guards promotion / map rebuild
}

type topEntry[K comparable] struct {
	key   K
	count atomic.Int64
	err   int64 // overestimate bound, fixed at promotion
}

// NewTopK tracks the heaviest k keys with 4*k admission buckets.
func NewTopK[K comparable](k int) *TopK[K] {
	if k <= 0 {
		k = 16
	}
	buckets := 1
	for buckets < 4*k {
		buckets <<= 1
	}
	t := &TopK[K]{k: k, filter: make([]atomic.Uint32, buckets), mask: uint64(buckets - 1)}
	m := make(map[K]*topEntry[K])
	t.live.Store(&m)
	return t
}

// Offer counts one occurrence of key; h is the caller's hash of key
// (computed once and shared with the HLL). It only reads key, and
// reports whether key, not yet tracked, has become a contender for a
// slot: the caller then hands Admit a key the table may keep — a copy,
// when key is a view of a buffer the caller reuses.
func (t *TopK[K]) Offer(key K, h uint64) bool {
	m := *t.live.Load()
	if e, ok := m[key]; ok {
		e.count.Add(1)
		return false
	}
	est := int64(t.filter[h&t.mask].Add(1))
	// A cold key is not yet a contender: it stays off the mutex.
	return len(m) < t.k || est > t.minAt.Load()
}

// Admit tracks key, a contender Offer reported, under the mutex,
// evicting the current minimum when the table is full. Its admission
// bucket estimates its count.
func (t *TopK[K]) Admit(key K, h uint64) {
	est := int64(t.filter[h&t.mask].Load())
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.live.Load()
	if e, ok := old[key]; ok { // raced with another promoter
		e.count.Add(1)
		return
	}
	if len(old) < t.k {
		next := make(map[K]*topEntry[K], len(old)+1)
		for k2, e := range old {
			next[k2] = e
		}
		e := &topEntry[K]{key: key}
		e.count.Store(1)
		next[key] = e
		t.live.Store(&next)
		t.minAt.Store(0) // table not yet full: admit everything
		return
	}
	// Find the minimum entry.
	var minE *topEntry[K]
	minC := int64(1<<62 - 1)
	for _, e := range old {
		if c := e.count.Load(); c < minC {
			minC, minE = c, e
		}
	}
	if est <= minC {
		// The admission estimate no longer beats the (grown) minimum.
		t.minAt.Store(minC)
		return
	}
	next := make(map[K]*topEntry[K], len(old))
	for k2, e := range old {
		if e != minE {
			next[k2] = e
		}
	}
	// Space-Saving: the newcomer inherits the evicted minimum as both
	// floor and error bound.
	e := &topEntry[K]{key: key, err: minC}
	e.count.Store(minC + 1)
	next[key] = e
	t.live.Store(&next)
	t.minAt.Store(minC)
}

// Counted is one reported heavy hitter. Count overestimates the true
// count by at most Err.
type Counted[K comparable] struct {
	Key   K
	Count int64
	Err   int64
}

// Top returns up to n entries, heaviest first.
func (t *TopK[K]) Top(n int) []Counted[K] {
	if t == nil {
		return nil
	}
	m := *t.live.Load()
	out := make([]Counted[K], 0, len(m))
	for _, e := range m {
		out = append(out, Counted[K]{Key: e.key, Count: e.count.Load(), Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
