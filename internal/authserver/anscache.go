package authserver

import (
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
// real answer each time. An NXDOMAIN differs from name to name only in
// its question: everything else — the SOA and, under DO, the NSEC
// covering the name, the one covering the wildcard at its closest
// encloser and their RRSIGs — depends on which two NSECs those are and
// on the EDNS mode. So it is precompiled per (NSEC pair, EDNS mode) in
// denials, beside the entries, as a dnswire.Image that any question it
// fits is written from: bounded by the zone's NSEC count times the depth
// of its names, discarded with the cache on SetZone, nothing to size.

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
	// denials maps an NSEC pair and EDNS mode to the NXDOMAIN for every
	// name that pair proves. The denials are shared and never written.
	denials map[denialKey]*denial
}

// denialKey names what an NXDOMAIN depends on: the EDNS mode and, under
// DO, the NSEC covering the name and the one covering the wildcard that
// could have answered for it.
type denialKey struct {
	cover, wildcard dnswire.Name
	edns            uint8
}

// denial is a precompiled NXDOMAIN: its authority and additional
// sections, which every Message made from it shares, and the image of
// the whole reply (nil if the records did not pack).
type denial struct {
	authority, additional []dnswire.RR
	image                 *dnswire.Image
}

// fits reports whether the image makes the reply to a question named
// qname, byte for byte as a pack of message would, within limit.
func (d *denial) fits(qname dnswire.Name, limit int) bool {
	if d.image == nil {
		return false
	}
	n, ok := d.image.Len(qname)
	return ok && n <= limit
}

// message returns the NXDOMAIN for q as a neutral template (ID zero, RD
// clear) of its own, its sections the denial's.
func (d *denial) message(q *dnswire.Query) *dnswire.Message {
	m := newResponse(q)
	m.Rcode, m.Authoritative = dnswire.RcodeNXDomain, true
	m.Authority, m.Additional = d.authority, d.additional
	return m
}

func newAnswerCache(capacity int) *answerCache {
	return &answerCache{
		capacity: capacity,
		entries:  make(map[ansKey]*ansEntry, capacity/4),
		denials:  make(map[denialKey]*denial),
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

func (c *answerCache) denial(k denialKey) *denial {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.denials[k]
}

func (c *answerCache) putDenial(k denialKey, d *denial) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.denials[k] = d
	c.mu.Unlock()
}
