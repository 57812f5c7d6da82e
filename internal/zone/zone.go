// Package zone implements DNS zones: an in-memory store of resource
// records with the authoritative-lookup operations a nameserver needs
// (answers, referrals with glue, NXDOMAIN determination), plus an RFC 1035
// §5 master-file parser and serializer and a compressed container format.
//
// The root zone — the object this whole system is about — is just a Zone
// whose origin is the root name.
package zone

import (
	"fmt"
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
type Zone struct {
	Origin dnswire.Name

	mu      sync.RWMutex
	records map[dnswire.Name]map[dnswire.Type][]dnswire.RR
	// delegations caches the set of names that own NS rrsets other than
	// the origin — the zone cuts.
	delegations map[dnswire.Name]bool
	// idx is the canonical-order index of the current records, nil until
	// a reader needs it and again after every mutation (see index).
	idx atomic.Pointer[index]
}

// index is the zone's owner names in DNSSEC canonical order (RFC 4034
// §6.1), the order denial of existence is defined in: a name's
// descendants sort directly after it, and the NSEC covering a name is
// the one at the last NSEC owner not after it. Both questions are one
// binary search here instead of a scan, or a sort, of the whole zone.
//
// An index is immutable and describes one generation of the zone. It is
// built and published by the first reader that needs it, under the read
// lock, so no mutation can fall between the records it was built from
// and its publication; Add and Remove drop it under the write lock. A
// reader therefore never observes an index that misses a mutation. The
// name strings share their bytes with the record map's keys.
type index struct {
	names []dnswire.Name // every owner name
	nsec  []dnswire.Name // the owners of an NSEC rrset, a subsequence of names
}

// indexLocked returns the current index, building it if a mutation (or
// nothing yet) left none. The caller holds z.mu.
func (z *Zone) indexLocked() *index {
	if ix := z.idx.Load(); ix != nil {
		return ix
	}
	ix := &index{names: make([]dnswire.Name, 0, len(z.records))}
	for n := range z.records {
		ix.names = append(ix.names, n)
	}
	dnswire.SortNames(ix.names)
	for _, n := range ix.names {
		if len(z.records[n][dnswire.TypeNSEC]) > 0 {
			ix.nsec = append(ix.nsec, n)
		}
	}
	// Readers that raced here built equal indexes; any one will do.
	z.idx.Store(ix)
	return ix
}

// firstAfter returns the position in the sorted names of the first one
// that sorts after name, len(names) if none does.
func firstAfter(names []dnswire.Name, name dnswire.Name) int {
	return sort.Search(len(names), func(i int) bool { return names[i].Compare(name) > 0 })
}

// New returns an empty zone for the given origin.
func New(origin dnswire.Name) *Zone {
	return &Zone{
		Origin:      origin,
		records:     make(map[dnswire.Name]map[dnswire.Type][]dnswire.RR),
		delegations: make(map[dnswire.Name]bool),
	}
}

// Add inserts a record. Records outside the zone's origin are rejected.
// Duplicate records (same name, type, class, rdata) are ignored.
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("zone: record %s outside origin %s", rr.Name, z.Origin)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	byType, ok := z.records[rr.Name]
	if !ok {
		byType = make(map[dnswire.Type][]dnswire.RR)
		z.records[rr.Name] = byType
	}
	for _, existing := range byType[rr.Type] {
		if existing.Class == rr.Class && existing.Data.String() == rr.Data.String() {
			return nil
		}
	}
	z.idx.Store(nil)
	byType[rr.Type] = append(byType[rr.Type], rr)
	if rr.Type == dnswire.TypeNS && rr.Name != z.Origin {
		z.delegations[rr.Name] = true
	}
	return nil
}

// Remove deletes all records of the given name and type. A type of
// dnswire.TypeANY removes every record at the name.
func (z *Zone) Remove(name dnswire.Name, typ dnswire.Type) {
	z.mu.Lock()
	defer z.mu.Unlock()
	byType, ok := z.records[name]
	if !ok {
		return
	}
	z.idx.Store(nil)
	if typ == dnswire.TypeANY {
		delete(z.records, name)
		delete(z.delegations, name)
		return
	}
	delete(byType, typ)
	if typ == dnswire.TypeNS {
		delete(z.delegations, name)
	}
	if len(byType) == 0 {
		delete(z.records, name)
	}
}

// Lookup returns the RRset for (name, type), or nil.
func (z *Zone) Lookup(name dnswire.Name, typ dnswire.Type) []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	rrs := z.records[name][typ]
	if len(rrs) == 0 {
		return nil
	}
	out := make([]dnswire.RR, len(rrs))
	copy(out, rrs)
	return out
}

// LookupAll returns every record at name, across types.
func (z *Zone) LookupAll(name dnswire.Name) []dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []dnswire.RR
	for _, rrs := range z.records[name] {
		out = append(out, rrs...)
	}
	return out
}

// HasName reports whether any record exists at name.
func (z *Zone) HasName(name dnswire.Name) bool {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.records[name]) > 0
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
	for _, n := range z.indexLocked().names {
		byType := z.records[n]
		for _, t := range sortedTypes(byType) {
			rrs := append([]dnswire.RR(nil), byType[t]...)
			sort.Slice(rrs, func(i, j int) bool {
				return rrs[i].Data.String() < rrs[j].Data.String()
			})
			out = append(out, rrs...)
		}
	}
	return out
}

// sortedTypes returns the types present at one owner in ascending order,
// so that what is built from the per-owner map does not inherit its
// iteration order.
func sortedTypes(byType map[dnswire.Type][]dnswire.RR) []dnswire.Type {
	types := make([]dnswire.Type, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	slices.Sort(types)
	return types
}

// Len returns the number of records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, byType := range z.records {
		for _, rrs := range byType {
			n += len(rrs)
		}
	}
	return n
}

// RRsetCount returns the number of distinct (name, type) RRsets.
func (z *Zone) RRsetCount() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, byType := range z.records {
		n += len(byType)
	}
	return n
}

// Delegations returns the names of all zone cuts in canonical order.
func (z *Zone) Delegations() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	cuts := make([]dnswire.Name, 0, len(z.delegations))
	for _, n := range z.indexLocked().names {
		if z.delegations[n] {
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

	if byType, exists := z.records[name]; exists {
		if rrs := byType[typ]; len(rrs) > 0 {
			return Answer{
				Rcode:         dnswire.RcodeSuccess,
				Authoritative: true,
				Answer:        append([]dnswire.RR(nil), rrs...),
			}
		}
		if typ == dnswire.TypeANY {
			var all []dnswire.RR
			for _, t := range sortedTypes(byType) {
				all = append(all, byType[t]...)
			}
			return Answer{Rcode: dnswire.RcodeSuccess, Authoritative: true, Answer: all}
		}
		// CNAME at the name answers any type except CNAME itself.
		if rrs := byType[dnswire.TypeCNAME]; len(rrs) > 0 {
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

// findCut locates the closest delegation at-or-above name, excluding the
// origin. A cut exactly at name does not count for DS queries. The
// caller holds z.mu, as for the three helpers below.
func (z *Zone) findCut(name dnswire.Name, typ dnswire.Type) (dnswire.Name, bool) {
	for n := name; n != z.Origin && !n.IsRoot(); n = n.Parent() {
		if z.delegations[n] {
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
	nsSet := z.records[cut][dnswire.TypeNS]
	ans.Authority = append(ans.Authority, nsSet...)
	// DS records live at the cut in the parent and accompany referrals.
	ans.Authority = append(ans.Authority, z.records[cut][dnswire.TypeDS]...)
	for _, ns := range nsSet {
		host := ns.Data.(dnswire.NS).Host
		if !host.IsSubdomainOf(z.Origin) {
			continue
		}
		ans.Additional = append(ans.Additional, z.records[host][dnswire.TypeA]...)
		ans.Additional = append(ans.Additional, z.records[host][dnswire.TypeAAAA]...)
	}
	return ans
}

func (z *Zone) soaAuthority() []dnswire.RR {
	return append([]dnswire.RR(nil), z.records[z.Origin][dnswire.TypeSOA]...)
}

// hasDescendants reports whether any stored name is strictly below name.
// Canonical order puts a name's descendants directly after it, so it is
// enough to look at the first stored name that sorts after name.
func (z *Zone) hasDescendants(name dnswire.Name) bool {
	names := z.indexLocked().names
	i := firstAfter(names, name)
	return i < len(names) && names[i].IsSubdomainOf(name)
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
	owners := z.indexLocked().nsec
	if len(owners) == 0 {
		return dnswire.RR{}, false
	}
	// The last owner <= name covers the span up to the next owner. Names
	// before the first owner wrap around to the last link.
	i := firstAfter(owners, name) - 1
	if i < 0 {
		i = len(owners) - 1
	}
	return z.records[owners[i]][dnswire.TypeNSEC][0], true
}

// Clone returns a deep-enough copy of the zone (records are value types
// except rdata, which is immutable by convention).
func (z *Zone) Clone() *Zone {
	c := New(z.Origin)
	for _, rr := range z.Records() {
		_ = c.Add(rr)
	}
	return c
}
