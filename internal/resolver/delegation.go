package resolver

// Zone cuts. A delegation is what iteration needs to know about one: whose
// it is and where its servers are. It is built once — from the referral
// that announced the cut, or from what the cache still holds of one — and
// then handed from hop to hop and remembered in a small table in front of
// the RRset cache, so a miss under a cut the resolver has seen costs one
// table lookup where it used to cost an LRU-reordering cache read per name
// label and per nameserver.

import (
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// delegation is a zone cut and the servers it hands the zone to. It is
// never changed once built: hops, the table and concurrent resolutions
// share one value.
type delegation struct {
	zone  dnswire.Name
	hosts []dnswire.Name
	// addrs are the hosts' addresses as the glue, the hints or the cache
	// gave them, host by host, each once. None means the hosts have to be
	// resolved before the zone can be asked anything (chaseGlue).
	addrs []netip.Addr
	// expires is when the shortest-lived record this was built from runs
	// out. The starting points New builds (hints, local root, loopback
	// server) never do and leave it zero.
	expires time.Time
	// local marks "consult the local root zone" (lookaside mode).
	local bool
}

// inlineHosts and inlineAddrs are the widths of the delegation that is
// one allocation: the hosts and addresses live in it. Wider ones take a
// slice each. Every inline host costs 16 B and every address 24 B in each
// of up to maxDelegations table entries, used or not, so the room is the
// two nameservers with an address each that RFC 1034 asks of a zone:
// with room for four of each, rootbench's resolver_cold read 4-6 % more
// peak memory.
const (
	inlineHosts = 2
	inlineAddrs = 2
)

// newDelegation builds cut's delegation from records in hand: ns holds its
// NS set and glue the address records that came with it, as a server of
// the zone parent sent them (or as the local root copy or the cache gave
// them), TTLs counting from now. It uses only what parent's servers may
// speak for — NS records at cut, and addresses of the hosts those name
// that lie inside parent; an out-of-bailiwick host is left to a glue
// chase. Without a single NS record at cut there is no delegation: nil.
func newDelegation(cut, parent dnswire.Name, ns, glue []dnswire.RR, now time.Time) *delegation {
	hosts, offered := 0, 0
	for i := range ns {
		if _, ok := ns[i].Data.(dnswire.NS); ok && ns[i].Name == cut {
			hosts++
		}
	}
	if hosts == 0 {
		return nil
	}
	for i := range glue {
		if glue[i].Type == dnswire.TypeA {
			offered++
		}
	}
	var d *delegation
	if hosts <= inlineHosts && offered <= inlineAddrs {
		// One allocation, as cache.newPositive makes for a one-record set.
		di := &struct {
			delegation
			hostBuf [inlineHosts]dnswire.Name
			addrBuf [inlineAddrs]netip.Addr
		}{}
		di.hosts, di.addrs = di.hostBuf[:0], di.addrBuf[:0]
		d = &di.delegation
	} else {
		d = &delegation{hosts: make([]dnswire.Name, 0, hosts)}
		if offered > 0 {
			d.addrs = make([]netip.Addr, 0, offered)
		}
	}
	d.zone = cut
	ttl := ^uint32(0)
	for i := range ns {
		if data, ok := ns[i].Data.(dnswire.NS); ok && ns[i].Name == cut {
			d.hosts = append(d.hosts, data.Host)
			ttl = min(ttl, ns[i].TTL)
		}
	}
	for _, host := range d.hosts {
		if !host.IsSubdomainOf(parent) {
			continue
		}
		for i := range glue {
			if a, ok := glue[i].Data.(dnswire.A); ok && glue[i].Name == host && a.Addr.IsValid() {
				ttl = min(ttl, glue[i].TTL)
				if !slices.Contains(d.addrs, a.Addr) {
					d.addrs = append(d.addrs, a.Addr)
				}
			}
		}
	}
	d.expires = now.Add(time.Duration(ttl) * time.Second)
	return d
}

// names reports whether host is one of the delegation's nameservers.
func (d *delegation) names(host dnswire.Name) bool { return slices.Contains(d.hosts, host) }

// verdict is what becomes of one RRset of an upstream response.
type verdict uint8

const (
	keep verdict = iota // cached
	skip                // nothing the cache wants; not an offence
	drop                // out of bailiwick: left out, and counted
)

// bailiwick is the rule for what a response from zone's servers may leave
// in the cache. A resolver that stands in for the root takes nobody's word
// for a name they were not asked about: answers and NS sets only at owners
// inside the zone that was queried, glue only for the hosts the referral's
// own NS set names and only inside that zone. Anything else would let any
// upstream server — or any off-path reply that guesses an ID — plant an
// RRset of its choosing.
type bailiwick struct {
	zone dnswire.Name
	next *delegation // the referral's delegation, for glue
}

func (b bailiwick) answer(set []dnswire.RR) verdict {
	if set[0].Name.IsSubdomainOf(b.zone) {
		return keep
	}
	return drop
}

// authority judges the Authority section of a referral: the NS set and
// the DS set (or its absence proof, which the validator has already
// seen and the cache does not hold) that come with a cut.
func (b bailiwick) authority(set []dnswire.RR) verdict {
	if t := set[0].Type; t != dnswire.TypeNS && t != dnswire.TypeDS {
		return skip
	}
	return b.answer(set)
}

func (b bailiwick) glue(set []dnswire.RR) verdict {
	rr := &set[0]
	if (rr.Type == dnswire.TypeA || rr.Type == dnswire.TypeAAAA) &&
		rr.Name.IsSubdomainOf(b.zone) && b.next.names(rr.Name) {
		return keep
	}
	return drop
}

// cacheSets caches the RRsets of one section of a response that judge
// keeps — all of them when judge is nil: the local root copy is not an
// upstream — and returns how many records it dropped.
func (r *Resolver) cacheSets(rrs []dnswire.RR, judge func([]dnswire.RR) verdict) (dropped int) {
	dnswire.EachRRset(rrs, func(set []dnswire.RR) {
		v := keep
		if set[0].Type == dnswire.TypeOPT {
			v = skip
		} else if judge != nil {
			v = judge(set)
		}
		switch v {
		case keep:
			r.cache.Put(set, false)
		case drop:
			dropped += len(set)
		}
	})
	return dropped
}

// countDropped is the accounting of records the bailiwick rule turned away.
func (r *Resolver) countDropped(n int, tr *obs.Trace) {
	if n == 0 {
		return
	}
	r.count(func(s *Stats) { inc(&s.OutOfBailiwick, int64(n)) })
	if tr != nil {
		tr.Eventf("bailiwick", "dropped %d out-of-bailiwick records", n)
	}
}

// learn takes a referral in hand — from parent's servers, or read off the
// local root copy — to the delegation of cut it announces: builds it,
// caches the glue it was built from, and remembers it in the table, where
// it replaces what an older referral said about the same cut. dropped
// counts glue records the bailiwick rule left out; a nil delegation means
// the referral named no nameserver for cut.
//
// The caller caches the section the NS set came in, and does so after
// learn: a resolution that finds the NS set in the cache before its glue
// would derive a delegation without addresses and go chasing them.
func (r *Resolver) learn(cut, parent dnswire.Name, ns, glue []dnswire.RR) (next *delegation, dropped int) {
	epoch := r.cache.Flushes()
	next = newDelegation(cut, parent, ns, glue, r.cfg.Clock())
	if next == nil {
		return nil, 0
	}
	dropped = r.cacheSets(glue, bailiwick{zone: parent, next: next}.glue)
	r.cuts.put(next, epoch)
	return next, dropped
}

// closestDelegation is where iteration for qname starts: the deepest cut
// enclosing it that the resolver knows — from the table, or failing that
// from a walk of the cache, whose finding the table then keeps — and the
// mode's root otherwise.
func (r *Resolver) closestDelegation(qname dnswire.Name) *delegation {
	epoch := r.cache.Flushes()
	if d := r.cuts.closest(qname, epoch, r.cfg.Clock); d != nil {
		return d
	}
	if d := r.deriveDelegation(qname); d != nil {
		return r.cuts.add(d, epoch)
	}
	return r.rootSet()
}

// deriveDelegation is the cache walk the table memoises: the deepest name
// enclosing qname, below the root, whose NS set the cache holds, with
// whatever addresses the cache has for its hosts.
func (r *Resolver) deriveDelegation(qname dnswire.Name) *delegation {
	for n := qname; !n.IsRoot(); n = n.Parent() {
		hit, ok := r.cache.Get(n, dnswire.TypeNS)
		if !ok || hit.Negative || len(hit.RRs) == 0 {
			continue
		}
		ns := hit.CopyRRs() // TTLs decayed to what is left of them
		var glue []dnswire.RR
		for i := range ns {
			if data, ok := ns[i].Data.(dnswire.NS); ok {
				if a, ok := r.cache.Get(data.Host, dnswire.TypeA); ok && !a.Negative {
					glue = append(glue, a.CopyRRs()...)
				}
			}
		}
		// What the cache holds passed the bailiwick rule on its way in. The
		// delegation is named by the NS set's owner, the cache's copy of n:
		// n is a suffix of qname, which may be a view.
		d := newDelegation(ns[0].Name, dnswire.Root, ns, glue, r.cfg.Clock())
		if d == nil || d.stranded() {
			continue
		}
		return d
	}
	return nil
}

// stranded reports a delegation nobody can follow: no address, and every
// nameserver inside the very zone it delegates, so that chasing one only
// leads back here. The NS set and its glue are separate cache entries and
// age separately — all the more since the table took their reads away — so
// the cache can be left holding the one without the other; only the parent
// zone's servers can say again where those hosts are, and the walk goes on
// up to them.
func (d *delegation) stranded() bool {
	if len(d.addrs) > 0 {
		return false
	}
	for _, host := range d.hosts {
		if !host.IsSubdomainOf(d.zone) {
			return false
		}
	}
	return true
}

// rootSet returns the starting point for a resolution that must begin at
// the root, per the configured mode.
func (r *Resolver) rootSet() *delegation {
	switch r.cfg.Mode {
	case RootModeLookaside:
		return localRootStart
	case RootModeLocalAuth:
		return r.loopback
	case RootModePreload:
		// Preload pins TLD NS sets in the cache, so reaching here means
		// the name's TLD does not exist in the local zone — consult it
		// directly so NXDOMAIN is answered without any network traffic.
		if r.local.Load() != nil {
			return localRootStart
		}
	}
	return r.hints // classic: the hints file
}

// localRootStart sends iteration to the local root zone copy.
var localRootStart = &delegation{zone: dnswire.Root, local: true}

// chaseGlue finds addresses for a delegation that came without any: it
// resolves the nameserver hosts out of band, one at a time, until one
// yields an address. The delegation with those addresses replaces d in the
// table and is returned; d itself comes back when no host resolves, or
// when the admission gate refuses the upstream work a chase is.
func (r *Resolver) chaseGlue(d *delegation, rs *resolution) *delegation {
	tr := rs.tr
	if r.admit(rs.tok, tr) != nil {
		return d
	}
	epoch := r.cache.Flushes()
	for _, host := range d.hosts {
		if rs.budget <= 0 {
			break
		}
		r.mu.Lock()
		busy := r.inflight[host]
		if !busy {
			r.inflight[host] = true
		}
		r.mu.Unlock()
		if busy {
			continue // a chase for this host encloses us; avoid the loop
		}
		r.count(func(s *Stats) { inc(&s.GlueChases, 1) })
		if tr != nil {
			tr.Eventf("glue-chase", "resolving %s A out of band", host)
		}
		gsp := tr.StartSpan(obs.PhaseOther, "glue-chase")
		if gsp != nil {
			gsp.SetDetail(string(host))
		}
		tr.Push()
		sub, err := r.resolve(host, dnswire.TypeA, r.newResolution(tr, rs.tok))
		tr.Pop()
		gsp.End()
		r.mu.Lock()
		delete(r.inflight, host)
		r.mu.Unlock()
		rs.res.Queries += sub.Queries
		rs.res.Latency += sub.Latency
		rs.budget -= sub.Queries
		if err != nil || sub.Rcode != dnswire.RcodeSuccess {
			continue
		}
		reached := *d
		reached.addrs = nil // d's are none, but may have room others would share
		now := r.cfg.Clock()
		for _, rr := range sub.Answers {
			if a, ok := rr.Data.(dnswire.A); ok && a.Addr.IsValid() && !slices.Contains(reached.addrs, a.Addr) {
				reached.addrs = append(reached.addrs, a.Addr)
				if until := now.Add(time.Duration(rr.TTL) * time.Second); reached.expires.IsZero() || until.Before(reached.expires) {
					reached.expires = until
				}
			}
		}
		if len(reached.addrs) > 0 {
			r.cuts.put(&reached, epoch)
			return &reached
		}
	}
	return d
}

// maxDelegations bounds the delegation table. A cold stream of
// never-repeated names brings a new second-level cut with every query;
// the table keeps the recent ones and every cut it is still asked about
// (the TLDs: the root zone has some 1 500), and lets the rest go. A cut
// that has gone is re-derived from the RRset cache if that still has it.
const maxDelegations = 1 << 14

// cutTable memoises delegations by cut in two generations: a put goes to
// the young one, a hit in the old one moves the entry to the young one,
// and when the young one has grown to half the bound the old one is let
// go and the young one takes its place. What is looked up at least once
// per generation stays; the reader of a young entry writes nothing.
type cutTable struct {
	mu sync.RWMutex
	// epoch is the cache.Flushes() value the content belongs to: a flush
	// of the RRset cache drops the table with it.
	epoch      uint64
	young, old map[dnswire.Name]*delegation

	hits, misses, expired atomic.Int64
}

func (t *cutTable) reset(epoch uint64) {
	t.epoch = epoch
	t.young, t.old = make(map[dnswire.Name]*delegation), nil
}

// drop forgets every delegation (the local zone copy has been replaced).
func (t *cutTable) drop() {
	t.mu.Lock()
	t.reset(t.epoch)
	t.mu.Unlock()
}

// put remembers d, learned while the cache's flush count was epoch.
func (t *cutTable) put(d *delegation, epoch uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case epoch < t.epoch:
		return // learned from a cache that has since been flushed
	case epoch > t.epoch:
		t.reset(epoch)
	}
	t.insert(d)
}

// add remembers d, derived from the cache as it was at epoch, unless the
// table already has a live delegation of that cut — one learned from a
// referral since the lookup missed, which is never the older of the two —
// and returns the one the table holds.
func (t *cutTable) add(d *delegation, epoch uint64) *delegation {
	t.mu.Lock()
	defer t.mu.Unlock()
	if epoch != t.epoch {
		return d
	}
	have := t.young[d.zone]
	if have == nil {
		have = t.old[d.zone]
	}
	if have != nil && have.expires.After(d.expires) {
		return have
	}
	t.insert(d)
	return d
}

// insert puts d in the young generation; the caller holds the lock.
func (t *cutTable) insert(d *delegation) {
	delete(t.old, d.zone)
	t.young[d.zone] = d
	if len(t.young) >= maxDelegations/2 {
		t.young, t.old = make(map[dnswire.Name]*delegation), t.young
	}
}

// promote moves d, found in the old generation, to the young one, unless
// a newer delegation of the same cut got there first.
func (t *cutTable) promote(d *delegation) {
	t.mu.Lock()
	if t.old[d.zone] == d {
		t.insert(d)
	}
	t.mu.Unlock()
}

// closest returns the live delegation of the deepest cut enclosing qname,
// or nil, and counts the lookup as a hit, as expired (the table had
// something, all of it past its lifetime) or as a miss. The clock is read
// only once an entry is found.
func (t *cutTable) closest(qname dnswire.Name, epoch uint64, clock func() time.Time) *delegation {
	var now time.Time
	sawExpired := false
	t.mu.RLock()
	if t.epoch == epoch {
		for n := qname; !n.IsRoot(); n = n.Parent() {
			d, aged := t.young[n], false
			if d == nil {
				d, aged = t.old[n], true
			}
			if d == nil || d.stranded() { // what the walk passes over, so does the table
				continue
			}
			if now.IsZero() {
				now = clock()
			}
			if !d.expires.After(now) {
				sawExpired = true
				continue
			}
			t.mu.RUnlock()
			if aged {
				t.promote(d)
			}
			t.hits.Add(1)
			return d
		}
	}
	t.mu.RUnlock()
	if sawExpired {
		t.expired.Add(1)
	} else {
		t.misses.Add(1)
	}
	return nil
}

// len is the number of delegations held for the cache as flushed epoch
// times: a flush the table has yet to notice has emptied it all the same.
func (t *cutTable) len(epoch uint64) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.epoch != epoch {
		return 0
	}
	return len(t.young) + len(t.old)
}

// DelegationStats describes the delegation table: how many cuts it holds
// and what became of the lookups iteration started from.
type DelegationStats struct {
	Entries int
	Hits    int64 // a live delegation enclosing the name was in the table
	Misses  int64 // nothing was: derived from the cache, or started at the root
	Expired int64 // only delegations past their lifetime were
}

// DelegationStats returns a snapshot of the delegation table's counters.
func (r *Resolver) DelegationStats() DelegationStats {
	return DelegationStats{
		Entries: r.cuts.len(r.cache.Flushes()),
		Hits:    r.cuts.hits.Load(),
		Misses:  r.cuts.misses.Load(),
		Expired: r.cuts.expired.Load(),
	}
}
