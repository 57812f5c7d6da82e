// Package cache implements the recursive resolver's record cache:
// TTL-honouring, LRU-evicting, with negative caching (RFC 2308) and the
// hit/occupancy statistics the paper's §5.1 cache analysis needs.
//
// The cache is sharded: entries are distributed across power-of-two
// shards by a hash of their RRset key, each shard behind its own mutex,
// so concurrent resolves on different names do not contend. LRU order
// and the capacity bound are per-shard (per-shard capacities sum to the
// configured total, so the global occupancy bound still holds exactly);
// use NewSharded with one shard when strict global LRU order matters.
package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// StaleTTL is the TTL stamped on records served past their expiry by
// GetStale, per RFC 8767's 30-second recommendation. The resolver's
// serve-stale path shares this constant so both layers agree on how
// long a stale answer may be re-used downstream.
const StaleTTL = 30 * time.Second

// DefaultShards is the shard count used by New. Sixteen keeps lock
// contention negligible up to well past 8 resolver goroutines while the
// per-shard maps stay large enough to hash well.
const DefaultShards = 16

// Stats counts cache activity. Hits and Misses count lookups, not
// questions: the resolver looks a question that needs upstream work up
// twice (before it joins a flight, and again as the flight's leader), so
// its misses show here twice.
type Stats struct {
	Hits         int64
	Misses       int64
	NegativeHits int64
	Evictions    int64
	Expired      int64
	Inserts      int64
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.NegativeHits += o.NegativeHits
	s.Evictions += o.Evictions
	s.Expired += o.Expired
	s.Inserts += o.Inserts
}

// HitRate returns hits/(hits+misses), 0 when empty.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one cached RRset (or negative answer).
type entry struct {
	key      dnswire.RRsetKey
	rrs      []dnswire.RR // nil for negative entries; never mutated after insert
	negative bool
	nxdomain bool        // negative entries: NXDOMAIN (vs NODATA)
	soa      *dnswire.RR // negative entries carry the SOA for the response
	expires  time.Time
	pinned   bool // pinned entries (preloaded root zone) resist eviction
	// prev and next link the entry into its shard's LRU ring; both are nil
	// while it is off the ring (pinned entries always are).
	prev, next *entry
}

// shard is one lock domain: a map, an LRU ring, a capacity slice, and
// its own statistics (summed on demand).
type shard struct {
	mu       sync.Mutex
	capacity int // max RRsets in this shard; 0 means unlimited
	entries  map[dnswire.RRsetKey]*entry
	// lru is the ring's sentinel: lru.next is the most recently used
	// entry, lru.prev the least. Entries link themselves, so a Put makes
	// no list element.
	lru   entry
	stats Stats
}

func (s *shard) resetLRU() { s.lru.prev, s.lru.next = &s.lru, &s.lru }

// unlink takes e off the ring; a no-op for an entry that is not on it.
func (s *shard) unlink(e *entry) {
	if e.next == nil {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.lru, s.lru.next
	e.prev.next, e.next.prev = e, e
}

// touch marks e most recently used.
func (s *shard) touch(e *entry) {
	if e.next != nil && s.lru.next != e {
		s.unlink(e)
		s.pushFront(e)
	}
}

// Cache is a TTL+LRU RRset cache. The zero value is not usable; call New.
type Cache struct {
	shards []*shard
	mask   uint64 // len(shards)-1; len is a power of two
	seed   maphash.Seed
	now    func() time.Time

	// nsec holds DNSSEC-validated denial ranges (RFC 8198); see nsec.go.
	nsec nsecStore

	flushes atomic.Uint64
}

// New creates a cache holding at most capacity RRsets (0 = unlimited),
// reading time from now (nil = time.Now), with DefaultShards shards.
func New(capacity int, now func() time.Time) *Cache {
	return NewSharded(capacity, DefaultShards, now)
}

// NewSharded is New with an explicit shard count. The count is rounded
// down to a power of two, and never exceeds capacity (when bounded) so
// every shard can hold at least one entry.
func NewSharded(capacity, shards int, now func() time.Time) *Cache {
	if now == nil {
		now = time.Now
	}
	if shards < 1 {
		shards = 1
	}
	if capacity > 0 && shards > capacity {
		shards = capacity
	}
	n := 1
	for n*2 <= shards {
		n *= 2
	}
	c := &Cache{
		shards: make([]*shard, n),
		mask:   uint64(n - 1),
		seed:   maphash.MakeSeed(),
		now:    now,
	}
	for i := range c.shards {
		sc := 0
		if capacity > 0 {
			// Distribute the capacity exactly: the first capacity%n
			// shards take the extra unit, so per-shard caps sum to
			// capacity and the global bound is preserved.
			sc = capacity / n
			if i < capacity%n {
				sc++
			}
		}
		c.shards[i] = &shard{capacity: sc, entries: make(map[dnswire.RRsetKey]*entry)}
		c.shards[i].resetLRU()
	}
	return c
}

// shardFor picks the shard for a key by hashing the owner name and
// mixing in the type (so a name's A, AAAA, and negative entries spread
// out too). maphash.String does not allocate.
func (c *Cache) shardFor(name dnswire.Name, typ dnswire.Type) *shard {
	h := maphash.String(c.seed, string(name))
	h ^= uint64(typ) * 0x9E3779B97F4A7C15
	return c.shards[h&c.mask]
}

// Put caches an RRset. The TTL is the minimum TTL across the set.
// Pinned entries are not evicted by LRU pressure and are the mechanism
// behind the paper's "preload the root zone into the cache" mode.
func (c *Cache) Put(rrs []dnswire.RR, pinned bool) {
	if len(rrs) == 0 {
		return
	}
	key := rrs[0].Key()
	minTTL := rrs[0].TTL
	for _, rr := range rrs[1:] {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	e := newPositive(rrs)
	e.key, e.pinned = key, pinned
	e.expires = c.now().Add(time.Duration(minTTL) * time.Second)
	s := c.shardFor(key.Name, key.Type)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(e)
}

// newPositive returns an entry holding a copy of rrs. A one-record set —
// an address, a single NS, most of what a resolver caches — shares the
// entry's allocation, as a negative entry's SOA does.
func newPositive(rrs []dnswire.RR) *entry {
	if len(rrs) > 1 {
		return &entry{rrs: append([]dnswire.RR(nil), rrs...)}
	}
	pe := &struct {
		entry
		one [1]dnswire.RR
	}{one: [1]dnswire.RR{rrs[0]}}
	pe.rrs = pe.one[:]
	return &pe.entry
}

// PutNegative caches a negative answer for (name, type), using the SOA
// minimum TTL per RFC 2308. nxdomain records which kind of negative this
// was — NXDOMAIN (name does not exist) vs NODATA (name exists, type does
// not) — so cache hits replay the faithful rcode.
func (c *Cache) PutNegative(name dnswire.Name, typ dnswire.Type, soa dnswire.RR, nxdomain bool) {
	s := c.shardFor(name, typ)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(newNegative(name, typ, soa, nxdomain, c.now()))
}

// newNegative builds a negative entry for (name, typ), living for the
// SOA's negative TTL (RFC 2308: the lesser of its TTL and its MINIMUM).
// The entry and its copy of the SOA are one allocation: junk is the bulk
// of what a resolver caches, an entry each.
func newNegative(name dnswire.Name, typ dnswire.Type, soa dnswire.RR, nxdomain bool, now time.Time) *entry {
	ttl := soa.TTL
	if data, ok := soa.Data.(dnswire.SOA); ok && data.Minimum < ttl {
		ttl = data.Minimum
	}
	ne := &struct {
		entry
		soa dnswire.RR
	}{soa: soa, entry: entry{
		key:      dnswire.RRsetKey{Name: name, Type: typ, Class: dnswire.ClassINET},
		negative: true,
		nxdomain: nxdomain,
		expires:  now.Add(time.Duration(ttl) * time.Second),
	}}
	ne.entry.soa = &ne.soa
	return &ne.entry
}

// nxCutType is the private sentinel type keying NXDOMAIN-cut entries; it
// sits in the reserved-for-private-use qtype range so it can never
// collide with a real RRset key.
const nxCutType = dnswire.Type(0xFF9F)

// PutNXDomainCut records an RFC 8020 "NXDOMAIN cut" at name: an
// authoritative NXDOMAIN proved that name (typically a bogus TLD) does
// not exist, so nothing under it exists either. The entry lives for the
// SOA negative TTL, like any RFC 2308 negative answer.
func (c *Cache) PutNXDomainCut(name dnswire.Name, soa dnswire.RR) {
	s := c.shardFor(name, nxCutType)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insert(newNegative(name, nxCutType, soa, true, c.now()))
}

// NXDomainCovered reports whether a live NXDOMAIN cut exists at name or
// any ancestor — if so the whole subtree is known not to exist and the
// query can be answered NXDOMAIN without touching the network. Each
// ancestor probe locks only that name's shard.
func (c *Cache) NXDomainCovered(name dnswire.Name) bool {
	now := c.now()
	for n := name; ; n = n.Parent() {
		key := dnswire.RRsetKey{Name: n, Type: nxCutType, Class: dnswire.ClassINET}
		s := c.shardFor(n, nxCutType)
		s.mu.Lock()
		if e, ok := s.entries[key]; ok && e.expires.After(now) {
			s.touch(e)
			s.stats.NegativeHits++
			s.stats.Hits++
			s.mu.Unlock()
			return true
		}
		s.mu.Unlock()
		if n.IsRoot() {
			return false
		}
	}
}

func (s *shard) insert(e *entry) {
	s.stats.Inserts++
	if old, ok := s.entries[e.key]; ok {
		s.unlink(old)
		delete(s.entries, e.key) // so the map takes the new key's string, not the old one's
	}
	// Pinned entries never participate in LRU eviction, so they stay off
	// the ring entirely — evictions then run in O(1) regardless of how
	// much of the root zone is preloaded.
	if !e.pinned {
		s.pushFront(e)
	}
	s.entries[e.key] = e
	if s.capacity > 0 {
		for len(s.entries) > s.capacity {
			if !s.evictOne() {
				break
			}
		}
	}
}

// evictOne removes the least recently used unpinned entry.
func (s *shard) evictOne() bool {
	e := s.lru.prev
	if e == &s.lru {
		return false
	}
	s.unlink(e)
	delete(s.entries, e.key)
	s.stats.Evictions++
	return true
}

// Result is the outcome of a cache lookup.
//
// RRs aliases the cache's internal storage and must be treated as
// read-only; the stored TTLs are the values at insertion time. TTL is
// the remaining lifetime for every record in the set (insertion used
// the set's minimum TTL, so a single decayed value is exact). Callers
// that hand the records to anything that may mutate or retain them
// should use CopyRRs.
type Result struct {
	RRs      []dnswire.RR
	TTL      uint32
	Negative bool
	// NXDomain distinguishes a cached NXDOMAIN from a cached NODATA
	// (both are Negative); only meaningful when Negative is set.
	NXDomain bool
	SOA      *dnswire.RR
}

// CopyRRs returns a fresh copy of the records with TTLs decayed to the
// remaining lifetime.
func (r Result) CopyRRs() []dnswire.RR {
	if len(r.RRs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(r.RRs))
	copy(out, r.RRs)
	for i := range out {
		out[i].TTL = r.TTL
	}
	return out
}

// Get returns the live cached RRset for (name, type). The lookup is
// allocation-free: Result.RRs shares the cached records (read-only, TTLs
// undecayed) and Result.TTL carries the remaining lifetime.
func (c *Cache) Get(name dnswire.Name, typ dnswire.Type) (Result, bool) {
	key := dnswire.RRsetKey{Name: name, Type: typ, Class: dnswire.ClassINET}
	s := c.shardFor(name, typ)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		return Result{}, false
	}
	now := c.now()
	if !e.expires.After(now) {
		// Expired entries stay resident (until swept or evicted) so the
		// serve-stale path (RFC 8767) can fall back to them; a normal
		// Get never returns them.
		s.stats.Expired++
		s.stats.Misses++
		return Result{}, false
	}
	s.touch(e)
	if e.negative {
		s.stats.NegativeHits++
		s.stats.Hits++
		return Result{Negative: true, NXDomain: e.nxdomain, SOA: e.soa}, true
	}
	s.stats.Hits++
	return Result{RRs: e.rrs, TTL: uint32(e.expires.Sub(now) / time.Second)}, true
}

// GetStale returns a cached RRset even if its TTL has run out, for
// serve-stale operation (RFC 8767). Result.TTL is StaleTTL when the
// entry is expired, the remaining lifetime otherwise. The staleLimit
// bounds how long past expiry an entry may still be served.
func (c *Cache) GetStale(name dnswire.Name, typ dnswire.Type, staleLimit time.Duration) (Result, bool) {
	key := dnswire.RRsetKey{Name: name, Type: typ, Class: dnswire.ClassINET}
	s := c.shardFor(name, typ)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || e.negative {
		return Result{}, false
	}
	now := c.now()
	if staleLimit > 0 && now.Sub(e.expires) > staleLimit {
		return Result{}, false
	}
	s.touch(e)
	ttl := uint32(StaleTTL / time.Second)
	if remaining := e.expires.Sub(now); remaining > 0 {
		ttl = uint32(remaining / time.Second)
	}
	return Result{RRs: e.rrs, TTL: ttl}, true
}

// Peek reports whether a live entry exists without touching LRU order or
// statistics.
func (c *Cache) Peek(name dnswire.Name, typ dnswire.Type) bool {
	key := dnswire.RRsetKey{Name: name, Type: typ, Class: dnswire.ClassINET}
	s := c.shardFor(name, typ)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return ok && e.expires.After(c.now())
}

// Len returns the number of cached RRsets (including expired-but-unswept).
func (c *Cache) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// PinnedLen returns the number of pinned RRsets.
func (c *Cache) PinnedLen() int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for _, e := range s.entries {
			if e.pinned {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache statistics, summed across shards.
func (c *Cache) Stats() Stats {
	var total Stats
	for _, s := range c.shards {
		s.mu.Lock()
		total.add(s.stats)
		s.mu.Unlock()
	}
	return total
}

// Collect implements obs.Collector: the Stats counters plus occupancy
// gauges (total and pinned RRsets).
func (c *Cache) Collect(reg *obs.Registry) {
	obs.SetCountersFromStruct(reg, "rootless_cache", "cache activity", nil, c.Stats())
	reg.Gauge("rootless_cache_rrsets", "RRsets resident (incl. expired-unswept)", nil).
		Set(float64(c.Len()))
	reg.Gauge("rootless_cache_pinned_rrsets", "pinned (preloaded root zone) RRsets", nil).
		Set(float64(c.PinnedLen()))
	reg.Gauge("rootless_cache_shards", "lock shards in the RRset cache", nil).
		Set(float64(len(c.shards)))
	reg.Gauge("rootless_cache_nsec_ranges", "validated NSEC denial ranges (RFC 8198)", nil).
		Set(float64(c.NSECRangeLen()))
}

// Flush removes every entry (pinned included) and resets nothing else.
// Validated NSEC ranges survive: they are cryptographic proofs, not
// cached observations, and keeping them is exactly what lets bogus-TLD
// junk keep dying locally across a flush.
func (c *Cache) Flush() {
	c.flushes.Add(1)
	for _, s := range c.shards {
		s.mu.Lock()
		s.entries = make(map[dnswire.RRsetKey]*entry)
		s.resetLRU()
		s.mu.Unlock()
	}
}

// Flushes counts the calls to Flush. Whatever a caller has worked out from
// the cache's content and keeps beside it — the resolver's delegation
// table — holds for one value of it.
func (c *Cache) Flushes() uint64 { return c.flushes.Load() }

// Sweep removes expired entries proactively and returns how many.
func (c *Cache) Sweep() int {
	now := c.now()
	removed := 0
	for _, s := range c.shards {
		s.mu.Lock()
		for key, e := range s.entries {
			if !e.expires.After(now) {
				s.unlink(e)
				delete(s.entries, key)
				s.stats.Expired++
				removed++
			}
		}
		s.mu.Unlock()
	}
	return removed
}
