package authserver

import (
	"slices"
	"sync"
	"sync/atomic"

	"rootless/internal/dnswire"
)

// The packed-answer cache is the NSD/Knot "precompiled answers" trick:
// for an immutable zone, the full response to (qname, qtype, EDNS mode)
// never changes, so the server memoizes both the built Message and its
// packed wire image. A hit serves the stored bytes with only the 2-byte
// message ID (and the echoed RD bit) rewritten — zero zone lookups,
// zero DNSSEC assembly, zero Pack calls. SetZone swaps in a fresh cache,
// which is the entire invalidation story.
//
// What is cached: every untruncated answer whose question names
// something the zone can enumerate — answers, referrals, NODATA — a set
// bounded by the zone. What is not: truncated responses (they depend on
// the client's buffer), and NXDOMAIN. Nonexistent names are unbounded
// and mostly asked once (§2.2 of the paper: the bulk of root traffic),
// so an entry per junk qname would be written, never read, and evict a
// real answer each time. The costly part of an NXDOMAIN under DO — the
// SOA, the covering NSEC and their RRSIGs — depends only on which NSEC
// covers the name, so that authority section is memoized per NSEC owner
// in denials, beside the entries: bounded by the zone's NSEC count,
// discarded with the cache on SetZone, nothing to size.

// ansKey identifies one precompiled answer. The EDNS mode folds the two
// response-shaping query attributes into the key: 0 = no OPT, 1 = OPT
// without DO, 2 = OPT with DO (DNSSEC material attached).
type ansKey struct {
	name dnswire.Name
	typ  dnswire.Type
	edns uint8
}

// statClass records which Stats counter a cached answer bumps on every
// hit, so the per-rcode accounting stays exact whether or not a query
// was served from the cache.
type statClass uint8

const (
	ansAnswer statClass = iota
	ansReferral
	ansNXDomain
	ansNoData
	ansRefused
)

func (c statClass) bump(st *Stats) {
	switch c {
	case ansAnswer:
		atomic.AddInt64(&st.Answers, 1)
	case ansReferral:
		atomic.AddInt64(&st.Referrals, 1)
	case ansNXDomain:
		atomic.AddInt64(&st.NXDomain, 1)
	case ansNoData:
		atomic.AddInt64(&st.NoData, 1)
	case ansRefused:
		atomic.AddInt64(&st.Refused, 1)
	}
}

// ansEntry is one precompiled answer. template (ID 0, RD clear) and wire
// are immutable after insertion: a hit hands the entry itself to the UDP
// transport, which patch-copies wire, and Handle copies the template.
type ansEntry struct {
	template dnswire.Message
	wire     []byte
	class    statClass
}

// answerCache is a bounded map of precompiled answers, plus the denial
// memo. There is no LRU: entries live until the zone changes (the common
// case for a root zone) or until capacity pressure evicts an arbitrary
// entry — cheap, and good enough for a workload where the hot set is a
// few thousand TLD keys. A nil *answerCache caches nothing.
type answerCache struct {
	capacity int
	mu       sync.RWMutex
	entries  map[ansKey]*ansEntry
	// denials maps an NSEC owner to the DO authority section of every
	// NXDOMAIN that NSEC proves. The slices are shared by the responses
	// that carry them and never written.
	denials map[dnswire.Name][]dnswire.RR
}

func newAnswerCache(capacity int) *answerCache {
	return &answerCache{
		capacity: capacity,
		entries:  make(map[ansKey]*ansEntry, capacity/4),
		denials:  make(map[dnswire.Name][]dnswire.RR),
	}
}

func (c *answerCache) get(k ansKey) *ansEntry {
	c.mu.RLock()
	e := c.entries[k]
	c.mu.RUnlock()
	return e
}

func (c *answerCache) put(k ansKey, e *ansEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[k]; !exists && c.capacity > 0 && len(c.entries) >= c.capacity {
		for victim := range c.entries { // arbitrary eviction
			delete(c.entries, victim)
			break
		}
	}
	c.entries[k] = e
}

func (c *answerCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

func (c *answerCache) denial(owner dnswire.Name) []dnswire.RR {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.denials[owner]
}

// putDenial stores an authority section, clipped so that an append by
// whoever holds it can never reach the shared array.
func (c *answerCache) putDenial(owner dnswire.Name, authority []dnswire.RR) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.denials[owner] = slices.Clip(authority)
	c.mu.Unlock()
}
