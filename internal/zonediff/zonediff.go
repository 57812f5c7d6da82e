// Package zonediff compares root zone snapshots: which TLDs were added or
// removed, how many records changed, and — the §5.2 question — whether a
// resolver holding a stale zone copy could still reach each TLD.
package zonediff

import (
	"sort"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// Changes summarizes the difference between two zone snapshots.
type Changes struct {
	AddedTLDs   []dnswire.Name
	RemovedTLDs []dnswire.Name
	// AddedRRs/RemovedRRs count record-level changes across the zone.
	AddedRRs   int
	RemovedRRs int
}

// Diff computes the changes from old to new in one zone.DiffOwners pass:
// a delegation is added or removed where a non-apex owner gains or loses
// its NS RRset, and records are counted only at the owners that differ.
// TLDs come out in canonical order, the order of the walk.
func Diff(old, new *zone.Zone) Changes {
	var c Changes
	zone.DiffOwners(old, new, func(owner dnswire.Name, was, now []dnswire.RR) {
		if owner != new.Origin {
			switch wasCut, isCut := hasNS(was), hasNS(now); {
			case isCut && !wasCut:
				c.AddedTLDs = append(c.AddedTLDs, owner)
			case wasCut && !isCut:
				c.RemovedTLDs = append(c.RemovedTLDs, owner)
			}
		}
		gone := make(map[string]bool, len(was))
		for _, rr := range was {
			gone[rr.String()] = true
		}
		for _, rr := range now {
			if s := rr.String(); gone[s] {
				delete(gone, s)
			} else {
				c.AddedRRs++
			}
		}
		c.RemovedRRs += len(gone)
	})
	return c
}

func hasNS(rrs []dnswire.RR) bool {
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeNS {
			return true
		}
	}
	return false
}

func sortNames(names []dnswire.Name) {
	sort.Slice(names, func(i, j int) bool { return names[i].Compare(names[j]) < 0 })
}

// Reachability reports, for each TLD delegated in truth, whether a
// resolver holding the stale zone could still contact it: some nameserver
// address in the stale zone's records for the TLD must still be a valid
// address of the TLD's current nameservers. This is exactly the paper's
// "at least one nameserver (by IP address) that is constant" criterion.
type Reachability struct {
	Total     int
	Reachable int
	// Broken lists the TLDs a stale-zone resolver can no longer reach.
	Broken []dnswire.Name
	// Missing lists TLDs that did not exist in the stale zone at all
	// (new additions), a subset of Broken.
	Missing []dnswire.Name
}

// ReachableShare returns the fraction of truth's TLDs still reachable.
func (r Reachability) ReachableShare() float64 {
	if r.Total == 0 {
		return 1
	}
	return float64(r.Reachable) / float64(r.Total)
}

// CheckReachability evaluates a stale zone copy against the current truth.
func CheckReachability(stale, truth *zone.Zone) Reachability {
	staleAddrs := tldAddresses(stale)
	truthAddrs := tldAddresses(truth)
	var r Reachability
	tlds := make([]dnswire.Name, 0, len(truthAddrs))
	for tld := range truthAddrs {
		tlds = append(tlds, tld)
	}
	sortNames(tlds)
	for _, tld := range tlds {
		r.Total++
		old, existed := staleAddrs[tld]
		if !existed {
			r.Broken = append(r.Broken, tld)
			r.Missing = append(r.Missing, tld)
			continue
		}
		ok := false
		for addr := range old {
			if truthAddrs[tld][addr] {
				ok = true
				break
			}
		}
		if ok {
			r.Reachable++
		} else {
			r.Broken = append(r.Broken, tld)
		}
	}
	return r
}

// tldAddresses maps each delegated TLD to the set of its nameserver
// addresses (glue) in the zone.
func tldAddresses(z *zone.Zone) map[dnswire.Name]map[string]bool {
	out := make(map[dnswire.Name]map[string]bool)
	for _, tld := range z.Delegations() {
		addrs := make(map[string]bool)
		for _, ns := range z.Lookup(tld, dnswire.TypeNS) {
			host := ns.Data.(dnswire.NS).Host
			for _, rr := range z.Lookup(host, dnswire.TypeA) {
				addrs[rr.Data.String()] = true
			}
			for _, rr := range z.Lookup(host, dnswire.TypeAAAA) {
				addrs[rr.Data.String()] = true
			}
		}
		out[tld] = addrs
	}
	return out
}

// RRsetDelta computes the RRset-level difference from old to new — the
// unit of IXFR-style signed deltas and Janus-style incremental
// verification. An RRset that changed in any way appears as a removal of
// its key plus a full replacement set in added; RRSIGs ride along as
// ordinary RRsets (all signatures at a name group under one key, so a
// re-signed name replaces its signature set wholesale). Removed keys are
// sorted canonically and added records follow the new zone's RRset order,
// so the delta is deterministic for a given (old, new) pair.
func RRsetDelta(old, new *zone.Zone) (removed []dnswire.RRsetKey, added []dnswire.RR) {
	zone.DiffOwners(old, new, func(_ dnswire.Name, was, now []dnswire.RR) {
		oldOrder, oldSets := dnswire.GroupRRsets(was)
		newOrder, newSets := dnswire.GroupRRsets(now)
		for _, key := range oldOrder {
			if newSet, ok := newSets[key]; !ok || !sameRRset(oldSets[key], newSet) {
				removed = append(removed, key)
			}
		}
		for _, key := range newOrder {
			if oldSet, ok := oldSets[key]; ok && sameRRset(oldSet, newSets[key]) {
				continue
			}
			added = append(added, newSets[key]...)
		}
	})
	sort.Slice(removed, func(i, j int) bool {
		if c := removed[i].Name.Compare(removed[j].Name); c != 0 {
			return c < 0
		}
		return removed[i].Type < removed[j].Type
	})
	return removed, added
}

// sameRRset reports whether two RRsets hold the same records (order
// independent; TTL and RDATA both count).
func sameRRset(a, b []dnswire.RR) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]int, len(a))
	for _, rr := range a {
		set[rr.String()]++
	}
	for _, rr := range b {
		set[rr.String()]--
		if set[rr.String()] < 0 {
			return false
		}
	}
	return true
}
