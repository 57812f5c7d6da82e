// Package zone implements DNS zones: an in-memory store of resource
// records with the authoritative-lookup operations a nameserver needs
// (answers, referrals with glue, NXDOMAIN determination), plus an RFC 1035
// §5 master-file parser and serializer and a compressed container format.
//
// The root zone — the object this whole system is about — is just a Zone
// whose origin is the root name.
package zone

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rootless/internal/dnswire"
)

// Zone is a set of resource records rooted at Origin.
//
// A Zone may be read and mutated (Add/Remove) from any number of
// goroutines at once, so it may be updated while being served: every
// method takes the zone's lock for the whole of its reads or writes, and
// a lookup sees the zone either before or after a concurrent mutation,
// never in between. What a method returns is the caller's: result slices
// are copies, and rdata is immutable by convention.
//
// A zone is also one generation in a chain of them: Clone makes a
// successor that shares every owner's node with its source, and a write
// to either copies just the node it touches (see node and Clone).
type Zone struct {
	Origin dnswire.Name

	mu    sync.RWMutex
	nodes map[dnswire.Name]*node
	// epoch is the zone's write token: it may write in place only the
	// nodes that carry it. Atomic because Clone replaces it under the
	// read lock, where another Clone may be doing the same; Add and
	// Remove read it under the write lock.
	epoch atomic.Pointer[epoch]
	// idx is the canonical-order index of the current records, nil until
	// a reader needs it and again after a mutation that changes what it
	// lists (see index).
	idx atomic.Pointer[index]
}

// epoch is a write token, compared by address. It has a size so that two
// of them never share one.
type epoch struct{ _ byte }

// node holds everything at one owner name. A zone writes a node in place
// only while the node carries the zone's current epoch, which is to say
// while no other generation can see it: a node made or copied by this
// zone since the zone was last cloned or made by cloning. Every other
// node is frozen for good, so the generations sharing it need no lock in
// common, and a write goes to a copy (writable). An owner name with no
// records has no node.
type node struct {
	epoch *epoch
	sets  []rrset // by ascending type
}

// rrset is the records of one type at one owner, in the order they were
// added. sorted says that this is also ascending order of rdata text
// (dnswire.CompareText), the order Records lists a set in.
type rrset struct {
	typ    dnswire.Type
	sorted bool
	rrs    []dnswire.RR
}

// find returns the position of the type's RRset in nd.sets, or else the
// position it would be inserted at. A nil node has no sets.
func (nd *node) find(typ dnswire.Type) (int, bool) {
	if nd == nil {
		return 0, false
	}
	for i := range nd.sets {
		if nd.sets[i].typ >= typ {
			return i, nd.sets[i].typ == typ
		}
	}
	return len(nd.sets), false
}

// get returns the node's RRset of the type, nil if it has none. The
// slice is the node's own: callers copy before handing it on.
func (nd *node) get(typ dnswire.Type) []dnswire.RR {
	if i, ok := nd.find(typ); ok {
		return nd.sets[i].rrs
	}
	return nil
}

// appendRecords appends the node's records in listing order: by type,
// then by rdata text.
func (nd *node) appendRecords(out []dnswire.RR) []dnswire.RR {
	if nd == nil {
		return out
	}
	for _, s := range nd.sets {
		out = append(out, s.rrs...)
		if !s.sorted {
			slices.SortFunc(out[len(out)-len(s.rrs):], compareRData)
		}
	}
	return out
}

// compareRData orders two records of one RRset as Records lists them.
func compareRData(a, b dnswire.RR) int { return dnswire.CompareText(a.Data, b.Data) }

// index is the zone's owner names in DNSSEC canonical order (RFC 4034
// §6.1), the order denial of existence is defined in: a name's
// descendants sort directly after it, the NSEC covering a name is the one
// at the last NSEC owner not after it, and its closest encloser is an
// ancestor it shares with one of the two names it falls between. So one
// binary search answers all three, instead of a scan, or a sort, of the
// whole zone; and when every owner name is plain the search compares
// byte strings, the names' sort keys, not names.
//
// An index is immutable and lists two sets of names, so it describes
// every generation that has those two sets: a clone starts with its
// source's index, and Add and Remove drop it, under the write lock, only
// when they add or remove an owner name or an NSEC RRset. It is built
// and published by the first reader that needs it, under the read lock,
// so no mutation can fall between the records it was built from and its
// publication. A reader therefore never observes an index that misses a
// mutation. The name strings share their bytes with the node map's keys.
type index struct {
	names []dnswire.Name // every owner name
	// nsec is the NSEC chain in owner order: the first NSEC record of
	// every owner that has one. Add appends to a set and only a removal,
	// which drops the index, can change what is first in it.
	nsec []dnswire.RR
	// rank[i] is the position in nsec of the last NSEC owner at or before
	// names[i], -1 if there is none: the search that places a name among
	// the names finds the NSEC covering it too.
	rank []int32
	// keys holds the names' sort keys (dnswire.SortKeys) back to back,
	// names[i]'s at keys[offs[i]:offs[i+1]], when every name is plain.
	// Otherwise both are nil and every search compares names.
	keys []byte
	offs []uint32
	// apexWildcard is where *.<origin> falls among the names: the
	// wildcard that would answer for every name whose closest encloser
	// is the apex (every junk TLD, in the root).
	apexWildcard int
}

// indexLocked returns the current index, building it if a mutation (or
// nothing yet) left none. The caller holds z.mu.
func (z *Zone) indexLocked() *index {
	if ix := z.idx.Load(); ix != nil {
		return ix
	}
	ix := &index{names: make([]dnswire.Name, 0, len(z.nodes))}
	for n := range z.nodes {
		ix.names = append(ix.names, n)
	}
	ix.keys, ix.offs = dnswire.SortKeys(ix.names)
	ix.rank = make([]int32, len(ix.names))
	for i, n := range ix.names {
		if rrs := z.nodes[n].get(dnswire.TypeNSEC); len(rrs) > 0 {
			ix.nsec = append(ix.nsec, rrs[0])
		}
		ix.rank[i] = int32(len(ix.nsec)) - 1
	}
	ix.apexWildcard = ix.afterWildcard(z.Origin, ix.offs != nil)
	// Readers that raced here built equal indexes; any one will do.
	z.idx.Store(ix)
	return ix
}

// keyOf returns name's sort key, built in buf, or nil when the index or
// the name has none: a search for it then compares names.
func (ix *index) keyOf(buf []byte, name dnswire.Name) []byte {
	if ix.offs == nil {
		return nil
	}
	if key, ok := dnswire.AppendSortKey(buf, name); ok {
		return key
	}
	return nil
}

// key returns names[i]'s sort key.
func (ix *index) key(i int) []byte { return ix.keys[ix.offs[i]:ix.offs[i+1]] }

// after returns the position of the first name that sorts after name,
// len(names) if none does: by comparing key with the names' keys when it
// is not nil, by comparing names when it is.
func (ix *index) after(name dnswire.Name, key []byte) int {
	lo, hi := 0, len(ix.names)
	if key == nil {
		return sort.Search(hi, func(i int) bool { return ix.names[i].Compare(name) > 0 })
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if bytes.Compare(ix.key(m), key) > 0 {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// below reports whether names[i], which sorts after name, is below it.
func (ix *index) below(i int, name dnswire.Name, key []byte) bool {
	if key != nil {
		return bytes.HasPrefix(ix.key(i), key)
	}
	return ix.names[i].IsSubdomainOf(name)
}

// cover returns the NSEC covering a name that falls at position i (as
// after returns it): the one at the last NSEC owner before the position
// or, before the first, the chain's last link, which wraps around. The
// zero RR when the zone has no NSEC.
func (ix *index) cover(i int) dnswire.RR {
	if len(ix.nsec) == 0 {
		return dnswire.RR{}
	}
	r := len(ix.nsec) - 1
	if i > 0 && ix.rank[i-1] >= 0 {
		r = int(ix.rank[i-1])
	}
	return ix.nsec[r]
}

// encloser returns the closest encloser of a name that does not exist
// and falls at position i: the longer of the ancestors it shares with
// names[i-1] and names[i], never above origin. With keys an ancestor is
// a run of whole labels at the front of both keys, and the encloser the
// owner's suffix of that length. The encloser is always read off the
// zone's own names, never sliced from name: a caller may pass a view it
// will overwrite.
func (ix *index) encloser(name dnswire.Name, key []byte, i int, origin dnswire.Name) dnswire.Name {
	enc := origin
	if key == nil {
		for _, n := range [2]int{i - 1, i} {
			if n < 0 || n == len(ix.names) {
				continue
			}
			if a := ix.names[n].CommonAncestor(name); a != enc && a.IsSubdomainOf(enc) {
				enc = a
			}
		}
		return enc
	}
	shared := 0
	if !origin.IsRoot() {
		shared = len(origin)
	}
	for _, n := range [2]int{i - 1, i} {
		if n < 0 || n == len(ix.names) {
			continue
		}
		k := ix.key(n)
		for j := 0; j < len(key) && j < len(k) && key[j] == k[j]; j++ {
			if key[j] == 0 && j+1 > shared {
				owner := ix.names[n]
				shared, enc = j+1, owner[len(owner)-(j+1):]
			}
		}
	}
	return enc
}

// afterWildcard returns the position of *.encloser among the names,
// built as a sort key when the search is keyed.
func (ix *index) afterWildcard(encloser dnswire.Name, keyed bool) int {
	if keyed {
		var buf [256]byte
		key, _ := dnswire.AppendSortKey(buf[:0], encloser)
		return ix.after("", append(key, '*', 0))
	}
	// The encloser lies above a valid name, so *.encloser is one too.
	wildcard := "*." + encloser
	if encloser.IsRoot() {
		wildcard = "*."
	}
	return ix.after(wildcard, nil)
}

// New returns an empty zone for the given origin.
func New(origin dnswire.Name) *Zone {
	z := &Zone{Origin: origin, nodes: make(map[dnswire.Name]*node)}
	z.epoch.Store(new(epoch))
	return z
}

// Clone returns the zone's successor generation: a zone with the same
// records that shares every node with z. It copies the owner table and
// nothing else, under z's read lock, so it costs the same whatever the
// nodes hold and z's readers carry on. Both zones leave with a fresh
// epoch: each now copies a node before its first write to it, and
// neither sees the other's writes. The index, which no write alters,
// comes along.
func (z *Zone) Clone() *Zone {
	z.mu.RLock()
	defer z.mu.RUnlock()
	z.epoch.Store(new(epoch))
	c := &Zone{Origin: z.Origin, nodes: maps.Clone(z.nodes)}
	c.epoch.Store(new(epoch))
	c.idx.Store(z.idx.Load())
	return c
}

// writable returns the node z holds at name, which is nd, in a state z
// may write in place: nd itself if only z can see it, else a copy put in
// its place. The copy shares nd's record slices but not their spare
// capacity, so that appending to one reallocates it, and has room for
// the one RRset an Add may be about to insert. The caller holds the
// write lock.
func (z *Zone) writable(name dnswire.Name, nd *node) *node {
	ep := z.epoch.Load()
	if nd.epoch == ep {
		return nd
	}
	c := &node{epoch: ep, sets: make([]rrset, len(nd.sets), len(nd.sets)+1)}
	for i, s := range nd.sets {
		s.rrs = slices.Clip(s.rrs)
		c.sets[i] = s
	}
	z.nodes[name] = c
	return c
}

// Add inserts a record. Records outside the zone's origin are rejected.
// Duplicate records (same name, type, class, rdata text) are ignored.
// Neither that check nor the set's order is decided by building text:
// rdata are compared as their texts would compare (dnswire.CompareText).
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("zone: record %s outside origin %s", rr.Name, z.Origin)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	nd := z.nodes[rr.Name]
	i, have := nd.find(rr.Type)
	if have {
		for _, existing := range nd.sets[i].rrs {
			if existing.Class == rr.Class && dnswire.CompareText(existing.Data, rr.Data) == 0 {
				return nil
			}
		}
	}
	if nd == nil {
		nd = &node{epoch: z.epoch.Load()}
		z.nodes[rr.Name] = nd
		z.idx.Store(nil) // an owner more
	} else {
		nd = z.writable(rr.Name, nd)
	}
	if !have {
		nd.sets = slices.Insert(nd.sets, i, rrset{typ: rr.Type, sorted: true})
		if rr.Type == dnswire.TypeNSEC {
			z.idx.Store(nil) // a link more in the chain
		}
	}
	set := &nd.sets[i]
	if n := len(set.rrs); n > 0 && set.sorted {
		set.sorted = dnswire.CompareText(set.rrs[n-1].Data, rr.Data) <= 0
	}
	set.rrs = append(set.rrs, rr)
	return nil
}

// Remove deletes all records of the given name and type. A type of
// dnswire.TypeANY removes every record at the name.
func (z *Zone) Remove(name dnswire.Name, typ dnswire.Type) {
	z.mu.Lock()
	defer z.mu.Unlock()
	nd := z.nodes[name]
	if nd == nil {
		return
	}
	i, have := nd.find(typ)
	switch {
	case typ == dnswire.TypeANY || have && len(nd.sets) == 1:
		delete(z.nodes, name)
		z.idx.Store(nil) // an owner fewer
	case have:
		nd = z.writable(name, nd)
		nd.sets = slices.Delete(nd.sets, i, i+1)
		if typ == dnswire.TypeNSEC {
			z.idx.Store(nil) // a link fewer in the chain
		}
	}
}

// Lookup returns the RRset for (name, type), or nil.
func (z *Zone) Lookup(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return slices.Clone(z.nodes[name].get(typ))
}

// LookupAll returns every record at name, across types.
func (z *Zone) LookupAll(name dnswire.Name) []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []dnswire.RR
	if nd := z.nodes[name]; nd != nil {
		for _, s := range nd.sets {
			out = append(out, s.rrs...)
		}
	}
	return out
}

// HasName reports whether any record exists at name.
func (z *Zone) HasName(name dnswire.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.nodes[name] != nil
}

// SOA returns the zone's SOA record, or false if absent.
func (z *Zone) SOA() (dnswire.RR, bool) {
	rrs := z.Lookup(z.Origin, dnswire.TypeSOA)
	if len(rrs) == 0 {
		return dnswire.RR{}, false
	}
	return rrs[0], true
}

// Serial returns the zone's SOA serial, or 0 if there is no SOA.
func (z *Zone) Serial() uint32 {
	if soa, ok := z.SOA(); ok {
		return soa.Data.(dnswire.SOA).Serial
	}
	return 0
}

// Names returns every owner name in the zone in DNSSEC canonical order.
func (z *Zone) Names() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return slices.Clone(z.indexLocked().names)
}

// Records returns every record in the zone in canonical name order with
// deterministic within-name ordering (by type, then rdata).
func (z *Zone) Records() []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []dnswire.RR
	if n := z.lenLocked(); n > 0 {
		out = make([]dnswire.RR, 0, n)
	}
	for _, n := range z.indexLocked().names {
		out = z.nodes[n].appendRecords(out)
	}
	return out
}

// Len returns the number of records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.lenLocked()
}

// lenLocked is Len for a caller that holds z.mu.
func (z *Zone) lenLocked() int {
	n := 0
	for _, nd := range z.nodes {
		for _, s := range nd.sets {
			n += len(s.rrs)
		}
	}
	return n
}

// RRsetCount returns the number of distinct (name, type) RRsets.
func (z *Zone) RRsetCount() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, nd := range z.nodes {
		n += len(nd.sets)
	}
	return n
}

// Delegations returns the names of all zone cuts in canonical order.
func (z *Zone) Delegations() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	cuts := []dnswire.Name{}
	for _, n := range z.indexLocked().names {
		if z.isCut(n) {
			cuts = append(cuts, n)
		}
	}
	return cuts
}

// Answer is the result of an authoritative lookup in a zone.
type Answer struct {
	// Rcode is NOERROR or NXDOMAIN.
	Rcode dnswire.Rcode
	// Authoritative is false for referrals.
	Authoritative bool
	// Answer holds the matching RRset (possibly empty for NODATA).
	Answer []dnswire.RR
	// Authority holds the delegation NS set (referral), or the SOA
	// (NXDOMAIN / NODATA).
	Authority []dnswire.RR
	// Additional holds glue addresses for authority-section nameservers.
	Additional []dnswire.RR
}

// Query performs the authoritative lookup algorithm (RFC 1034 §4.3.2,
// restricted to the in-zone cases: answer, referral, NODATA, NXDOMAIN).
// The whole lookup runs in one locked section.
func (z *Zone) Query(name dnswire.Name, typ dnswire.Type) Answer {
	if !name.IsSubdomainOf(z.Origin) {
		return Answer{Rcode: dnswire.RcodeRefused}
	}
	z.mu.RLock()
	defer z.mu.RUnlock()

	// Walk from the query name up toward the origin looking for a zone cut
	// strictly between the origin and the name. A cut at the query name
	// itself is a referral unless the query is for DS (which the parent
	// answers authoritatively).
	if cut, ok := z.findCut(name, typ); ok {
		return z.referral(cut)
	}

	if nd := z.nodes[name]; nd != nil {
		if rrs := nd.get(typ); len(rrs) > 0 {
			return Answer{
				Rcode:         dnswire.RcodeSuccess,
				Authoritative: true,
				Answer:        append([]dnswire.RR(nil), rrs...),
			}
		}
		if typ == dnswire.TypeANY {
			var all []dnswire.RR
			for _, s := range nd.sets {
				all = append(all, s.rrs...)
			}
			return Answer{Rcode: dnswire.RcodeSuccess, Authoritative: true, Answer: all}
		}
		// CNAME at the name answers any type except CNAME itself.
		if rrs := nd.get(dnswire.TypeCNAME); len(rrs) > 0 {
			return Answer{
				Rcode:         dnswire.RcodeSuccess,
				Authoritative: true,
				Answer:        append([]dnswire.RR(nil), rrs...),
			}
		}
		// NODATA: name exists, type does not.
		return Answer{
			Rcode:         dnswire.RcodeSuccess,
			Authoritative: true,
			Authority:     z.soaAuthority(),
		}
	}

	// Name does not exist, but it may be an empty non-terminal (a name
	// with descendants), which is NODATA rather than NXDOMAIN.
	rcode := dnswire.RcodeNXDomain
	if z.hasDescendants(name) {
		rcode = dnswire.RcodeSuccess
	}
	return Answer{Rcode: rcode, Authoritative: true, Authority: z.soaAuthority()}
}

// isCut reports whether name is a zone cut: the owner of an NS RRset
// other than the origin. The caller holds z.mu, as for the four helpers
// below.
func (z *Zone) isCut(name dnswire.Name) bool {
	_, ok := z.nodes[name].find(dnswire.TypeNS)
	return ok && name != z.Origin
}

// findCut locates the closest delegation at-or-above name, excluding the
// origin. A cut exactly at name does not count for DS queries.
func (z *Zone) findCut(name dnswire.Name, typ dnswire.Type) (dnswire.Name, bool) {
	for n := name; n != z.Origin && !n.IsRoot(); n = n.Parent() {
		if z.isCut(n) {
			if n == name && typ == dnswire.TypeDS {
				continue
			}
			return n, true
		}
	}
	return "", false
}

func (z *Zone) referral(cut dnswire.Name) Answer {
	ans := Answer{Rcode: dnswire.RcodeSuccess}
	nd := z.nodes[cut]
	nsSet := nd.get(dnswire.TypeNS)
	ans.Authority = append(ans.Authority, nsSet...)
	// DS records live at the cut in the parent and accompany referrals.
	ans.Authority = append(ans.Authority, nd.get(dnswire.TypeDS)...)
	for _, ns := range nsSet {
		host := ns.Data.(dnswire.NS).Host
		if !host.IsSubdomainOf(z.Origin) {
			continue
		}
		glue := z.nodes[host]
		ans.Additional = append(ans.Additional, glue.get(dnswire.TypeA)...)
		ans.Additional = append(ans.Additional, glue.get(dnswire.TypeAAAA)...)
	}
	return ans
}

func (z *Zone) soaAuthority() []dnswire.RR {
	return slices.Clone(z.nodes[z.Origin].get(dnswire.TypeSOA))
}

// hasDescendants reports whether any stored name is strictly below name.
// Canonical order puts a name's descendants directly after it, so it is
// enough to look at the first stored name that sorts after name.
func (z *Zone) hasDescendants(name dnswire.Name) bool {
	ix := z.indexLocked()
	var buf [256]byte
	key := ix.keyOf(buf[:0], name)
	i := ix.after(name, key)
	return i < len(ix.names) && ix.below(i, name, key)
}

// Denial is what a zone proves a name it holds nothing at by.
type Denial struct {
	// NXDomain is false for an empty non-terminal: a name with no
	// records of its own but with descendants, which exists.
	NXDomain bool
	// Encloser is the closest encloser of an NXDOMAIN name: its longest
	// ancestor that exists, as an owner or an empty non-terminal — where a
	// wildcard would have answered for it (RFC 4035 §3.1.3.2).
	Encloser dnswire.Name
	// Cover is the NSEC whose span covers the name. Wildcard, for an
	// NXDOMAIN, is the one covering *.Encloser, the proof that no wildcard
	// answers instead; it may be Cover itself. Both are zero, with nil
	// Data, in a zone without an NSEC chain.
	Cover, Wildcard dnswire.RR
}

// Deny returns how the zone denies name, and false when it does not:
// when the name is outside the zone, at or below a zone cut, or owns
// records. Everything is read off the one search that places name among
// the owner names: it is an empty non-terminal when the name after it is
// its descendant, the NSEC covering it is the rank of the name before
// it, and its closest encloser is the longer of the ancestors it shares
// with either neighbour (the names below an existing ancestor are a
// contiguous run, and name and an owner both fall in it). Only the
// wildcard's NSEC takes a second search, and not at the apex, where the
// index placed it when it was built. On a zone of plain names, for a
// plain name, nothing is allocated.
func (z *Zone) Deny(name dnswire.Name) (Denial, bool) {
	if !name.IsSubdomainOf(z.Origin) {
		return Denial{}, false
	}
	z.mu.RLock()
	defer z.mu.RUnlock()
	if z.nodes[name] != nil {
		return Denial{}, false
	}
	if _, cut := z.findCut(name.Parent(), dnswire.TypeANY); cut {
		return Denial{}, false
	}
	ix := z.indexLocked()
	var buf [256]byte
	key := ix.keyOf(buf[:0], name)
	i := ix.after(name, key)
	d := Denial{Cover: ix.cover(i)}
	if i < len(ix.names) && ix.below(i, name, key) {
		return d, true // an empty non-terminal
	}
	d.NXDomain = true
	d.Encloser = ix.encloser(name, key, i, z.Origin)
	if d.Cover.Data != nil {
		w := ix.apexWildcard
		if d.Encloser != z.Origin {
			w = ix.afterWildcard(d.Encloser, key != nil)
		}
		d.Wildcard = ix.cover(w)
	}
	return d, true
}

// SignaturesFor returns the RRSIG records at name covering the given
// type, for building DNSSEC-aware responses.
func (z *Zone) SignaturesFor(name dnswire.Name, covered dnswire.Type) []dnswire.RR {
	var out []dnswire.RR
	for _, rr := range z.Lookup(name, dnswire.TypeRRSIG) {
		if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == covered {
			out = append(out, rr)
		}
	}
	return out
}

// NSECCovering returns the NSEC record whose owner-to-next span covers
// name in canonical order (the authenticated denial proof for name), or
// false if the zone carries no NSEC chain. A name that owns an NSEC is
// covered by its own record.
func (z *Zone) NSECCovering(name dnswire.Name) (dnswire.RR, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	ix := z.indexLocked()
	var buf [256]byte
	rr := ix.cover(ix.after(name, ix.keyOf(buf[:0], name)))
	return rr, rr.Data != nil
}

// DiffOwners calls fn, in canonical order, for every owner name whose
// records differ between two zones, with the records each holds there
// in Records order (nil for a name one of them lacks). The slices are
// fn's to keep. It is the one walk every delta format derives from, and
// between generations of one Clone chain it costs what changed: an owner
// whose node the two still share is passed over on sight, and only the
// rest are compared by content. It works on a clone of each zone, so it
// holds no lock while fn runs and sees each zone as it was at the call.
func DiffOwners(old, new *Zone, fn func(owner dnswire.Name, was, now []dnswire.RR)) {
	a, b := old.Clone(), new.Clone()
	an, bn := a.indexLocked().names, b.indexLocked().names
	for i, j := 0, 0; i < len(an) || j < len(bn); {
		var c int // which zone has the next name in order: <0 a, >0 b, 0 both
		switch {
		case j == len(bn):
			c = -1
		case i == len(an):
			c = 1
		case an[i] != bn[j]:
			c = an[i].Compare(bn[j])
		}
		var owner dnswire.Name
		var x, y *node
		if c <= 0 {
			owner, x = an[i], a.nodes[an[i]]
			i++
		}
		if c >= 0 {
			owner, y = bn[j], b.nodes[bn[j]]
			j++
		}
		if x == y {
			continue
		}
		was, now := x.appendRecords(nil), y.appendRecords(nil)
		if !sameRecords(was, now) {
			fn(owner, was, now)
		}
	}
}

// sameRecords reports whether two record lists at one owner name are
// equal element for element.
func sameRecords(a, b []dnswire.RR) bool {
	return slices.EqualFunc(a, b, func(x, y dnswire.RR) bool {
		return x.Type == y.Type && x.Class == y.Class && x.TTL == y.TTL &&
			dnswire.CompareText(x.Data, y.Data) == 0
	})
}
