package resolver

// What the resolver can answer without I/O: the cache (positive, negative,
// CNAME), validated NSEC ranges, NXDOMAIN cuts and — when the root is
// local — the zone copy. iterate tries this before any upstream work;
// resolveKnown is the whole resolution when nothing else is needed, which
// is what lets the front door answer on a socket worker.
//
// Everything here up to the commit in resolveKnown leaves the counters
// alone, so a question that turns out to need upstream work can be handed
// to Resolve and counted once.

import (
	"time"

	"rootless/internal/cache"
	"rootless/internal/dist"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/zone"
)

// knownSource says where a known answer came from: which counters it moves.
type knownSource uint8

const (
	fromCache knownSource = iota
	fromNegCache
	fromNSEC
	fromCut
	fromLocalRoot
)

// known is the answer to one name (one link of a CNAME chain), or any
// other set of answer records on its way into a response.
type known struct {
	src   knownSource
	rcode dnswire.Rcode
	// rrs is shared with the cache or the zone: read-only. When decayed
	// is set every record goes out with ttl, the set's remaining lifetime,
	// in place of the TTL it was stored with.
	rrs     []dnswire.RR
	ttl     uint32
	decayed bool
	// secure reports a denial proven by validated NSECs or an answer from
	// a VerifyZone-checked local copy; plain cache hits never are (the
	// cache does not record chain state).
	secure bool
}

// copyRRs returns the records as a Result may hold them: private, with
// the TTLs they go out with.
func (k known) copyRRs() []dnswire.RR {
	if !k.decayed {
		return k.rrs
	}
	return cache.Result{RRs: k.rrs, TTL: k.ttl}.CopyRRs()
}

// probe looks qname up in everything the cache holds. The Eventf calls
// sit on the cache-hit fast path, so they are guarded: a nil-trace Eventf
// is itself free, but evaluating its variadic arguments is not. The
// cache-probe span covers every probe up to the hit/miss verdict.
func (r *Resolver) probe(qname dnswire.Name, qtype dnswire.Type, tr *obs.Trace) (known, bool) {
	csp := tr.StartSpan(obs.PhaseCache, "cache-probe")
	k, ok := r.probeCache(qname, qtype, tr)
	csp.End()
	return k, ok
}

func (r *Resolver) probeCache(qname dnswire.Name, qtype dnswire.Type, tr *obs.Trace) (known, bool) {
	if hit, ok := r.cache.Get(qname, qtype); ok {
		if hit.Negative {
			if tr != nil {
				tr.Eventf("cache-hit", "negative %s %s", qname, qtype)
			}
			// Replay the faithful rcode: NXDOMAIN if the name was proven
			// absent, NODATA (Success, no answers) if only the type was.
			return known{src: fromNegCache, rcode: nxOrNoData(hit.NXDomain)}, true
		}
		if tr != nil {
			tr.Eventf("cache-hit", "%s %s (%d RRs)", qname, qtype, len(hit.RRs))
		}
		return known{src: fromCache, rrs: hit.RRs, ttl: hit.TTL, decayed: true}, true
	}
	// Cached CNAME at the name also answers.
	if qtype != dnswire.TypeCNAME {
		if hit, ok := r.cache.Get(qname, dnswire.TypeCNAME); ok && !hit.Negative {
			if tr != nil {
				tr.Eventf("cache-hit", "%s CNAME", qname)
			}
			return known{src: fromCache, rrs: hit.RRs, ttl: hit.TTL, decayed: true}, true
		}
	}
	// A validated NSEC range covering qname answers with cryptographic
	// certainty (RFC 8198): the denial was proven, not observed, so the
	// synthesized answer even carries AD. Checked before the RFC 8020
	// cut — when both apply, the stronger mechanism takes the hit.
	if r.cfg.NSECAggressive {
		if nx, ok := r.cache.NSECSynthesize(qname, qtype); ok {
			if tr != nil {
				tr.Eventf("cache-hit", "validated NSEC range covers %s %s", qname, qtype)
			}
			return known{src: fromNSEC, rcode: nxOrNoData(nx), secure: true}, true
		}
	}
	// An NXDOMAIN cut at any ancestor (in practice: the TLD) answers the
	// miss without any upstream work — the aggressive negative cache the
	// paper's junk-dominated workload rewards.
	if r.cfg.NXDomainCut && r.cache.NXDomainCovered(qname) {
		if tr != nil {
			tr.Eventf("cache-hit", "NXDOMAIN cut covers %s", qname)
		}
		return known{src: fromCut, rcode: dnswire.RcodeNXDomain}, true
	}
	return known{}, false
}

func nxOrNoData(nxdomain bool) dnswire.Rcode {
	if nxdomain {
		return dnswire.RcodeNXDomain
	}
	return dnswire.RcodeSuccess
}

// countProbeHit is the accounting of one probe hit.
func (r *Resolver) countProbeHit(src knownSource) {
	r.count(func(s *counters) {
		s.CacheAnswers.Add(1)
		switch src {
		case fromNSEC:
			s.NSECSynthesized.Add(1)
		case fromCut:
			s.NXDomainCutHits.Add(1)
		}
		if src != fromCache {
			s.NegCacheAnswers.Add(1)
		}
	})
}

// localLookup is what the local root zone copy says about one question,
// read but not yet counted or cached.
type localLookup struct {
	ans zone.Answer
	// refused: there is no copy, or it is past its stale-serve window.
	// An expired copy must not steer resolution toward long-gone servers,
	// so the consult fails closed (SERVFAIL).
	refused, expired bool
	stale            bool // answered from a stale-serve copy: TTLs are capped
	secure           bool
}

// referral reports a consult that only says where to ask next.
func (lk *localLookup) referral() bool {
	return !lk.refused && lk.ans.Rcode != dnswire.RcodeNXDomain &&
		len(lk.ans.Answer) == 0 && !lk.ans.Authoritative && len(lk.ans.Authority) > 0
}

// lookupLocalRoot performs the lookaside step: read the referral (or
// terminal answer) straight from the local root zone. With staleness
// staging enabled, the copy's freshness stage gates the consult: a
// stale-serve copy still answers but with capped TTLs, an expired copy
// is refused.
func (r *Resolver) lookupLocalRoot(qname dnswire.Name, qtype dnswire.Type) localLookup {
	lr := r.local.Load()
	if lr == nil {
		return localLookup{refused: true}
	}
	lk := localLookup{secure: lr.secure}
	if r.cfg.ZoneExpiry > 0 {
		age := r.cfg.Clock().Sub(lr.loaded)
		switch dist.FreshnessOf(age, r.cfg.ZoneRefresh, r.cfg.ZoneExpiry, r.cfg.ZoneStaleFor) {
		case dist.FreshnessExpired:
			lk.refused, lk.expired = true, true
			return lk
		case dist.FreshnessStaleServe:
			lk.stale = true
		}
	}
	lk.ans = lr.zone.Query(qname, qtype)
	if lk.stale {
		ttlCap := uint32(r.cfg.ZoneStaleTTLCap / time.Second)
		if ttlCap == 0 {
			ttlCap = 1
		}
		lk.ans.Answer = capTTLs(lk.ans.Answer, ttlCap)
		lk.ans.Authority = capTTLs(lk.ans.Authority, ttlCap)
		lk.ans.Additional = capTTLs(lk.ans.Additional, ttlCap)
	}
	return lk
}

// applyLocalRoot counts a consult and caches what it learned. done is
// false for a referral: iteration continues at next's servers.
func (r *Resolver) applyLocalRoot(qname dnswire.Name, qtype dnswire.Type, lk *localLookup) (next nsSet, k known, done bool) {
	r.count(func(s *counters) {
		s.LocalRootConsults.Add(1)
		if lk.expired {
			s.LocalExpiredRefusals.Add(1)
		}
		if lk.stale {
			s.LocalStaleConsults.Add(1)
		}
	})
	k = known{src: fromLocalRoot, secure: lk.secure}
	ans := &lk.ans
	switch {
	case lk.refused:
		k.rcode = dnswire.RcodeServFail
	case ans.Rcode == dnswire.RcodeNXDomain:
		if len(ans.Authority) > 0 {
			r.cache.PutNegative(qname, qtype, ans.Authority[0], true)
			// The local root zone just proved the TLD undelegated.
			if tld := qname.TLD(); r.cfg.NXDomainCut && !tld.IsRoot() {
				r.cache.PutNXDomainCut(tld, ans.Authority[0])
			}
		}
		k.rcode = dnswire.RcodeNXDomain
	case len(ans.Answer) > 0:
		r.cacheSets(ans.Answer, false)
		k.rrs = ans.Answer
	case lk.referral():
		// Cache the NS set and glue, then continue iterating at the TLD
		// servers.
		r.cacheSets(ans.Authority, false)
		r.cacheSets(ans.Additional, false)
		next = nsSet{zone: ans.Authority[0].Name}
		for _, rr := range ans.Authority {
			if rr.Type == dnswire.TypeNS {
				next.hosts = append(next.hosts, rr.Data.(dnswire.NS).Host)
			}
		}
		return next, known{}, false
	default:
		// NODATA at the root (e.g. TLD apex, wrong type).
		if len(ans.Authority) > 0 {
			r.cache.PutNegative(qname, qtype, ans.Authority[0], false)
		}
	}
	return nsSet{}, k, true
}

// capTTLs returns a copy of rrs with every TTL capped — answers from a
// stale-serve zone copy must not linger in downstream caches.
func capTTLs(rrs []dnswire.RR, cap uint32) []dnswire.RR {
	out := make([]dnswire.RR, len(rrs))
	copy(out, rrs)
	for i := range out {
		if out[i].TTL > cap {
			out[i].TTL = cap
		}
	}
	return out
}

// maxCNAMEDepth bounds the links of a CNAME chain one resolution follows.
const maxCNAMEDepth = 9

// knownAnswer is a whole response resolved without I/O: the links of the
// CNAME chain in order, their records still shared with the cache.
type knownAnswer struct {
	rcode  dnswire.Rcode
	secure bool // every link was: the response may carry AD
	n      int
	links  [maxCNAMEDepth]known
}

// resolveKnown is Resolve for a question that needs no upstream work,
// start to finish and without a Result or a copied record: on true, out
// is the answer and the resolution has been counted, classified, traced
// and observed exactly as Resolve would have. On false nothing has been
// counted and the caller takes the question to Resolve.
func (r *Resolver) resolveKnown(qname dnswire.Name, qtype dnswire.Type, out *knownAnswer) bool {
	var tr *obs.Trace
	if r.tracer.Enabled() { // the mnemonic of an unknown qtype is an allocation
		tr = r.tracer.Begin(string(qname), qtype.String())
	}
	out.n, out.secure = 0, true
	var lk localLookup
	for target := qname; out.n < len(out.links); {
		k, ok := r.probe(target, qtype, tr)
		if !ok {
			if lk, ok = r.localTerminal(target, qtype, tr); !ok {
				return false
			}
			k = known{src: fromLocalRoot, rrs: lk.ans.Answer}
		}
		out.links[out.n] = k
		out.n++
		if cn, chase := chaseCNAME(k, target, qtype); chase {
			if k.src == fromLocalRoot {
				// The root zone holds no CNAMEs; one in a local copy takes
				// the long way rather than a second commit path here.
				return false
			}
			if tr != nil {
				tr.Eventf("cname", "chasing %s -> %s", qname, cn)
			}
			target = cn
			continue
		}

		// Terminal, and nothing past this point can send the question
		// elsewhere: commit.
		var class string
		if r.traffic != nil {
			class = r.traffic.Observe(qname, qtype).String()
			tr.SetClass(class)
		}
		r.count(func(s *counters) {
			s.Resolutions.Add(1)
			s.CNAMEChases.Add(int64(out.n - 1))
		})
		answers := 0
		for i := range out.links[:out.n] {
			link := &out.links[i]
			if link.src == fromLocalRoot {
				_, *link, _ = r.applyLocalRoot(target, qtype, &lk)
			} else {
				r.countProbeHit(link.src)
			}
			answers += len(link.rrs)
			out.secure = out.secure && link.secure
			out.rcode = link.rcode
		}
		r.finish(tr, qtype, class, &Result{Rcode: out.rcode, FromCache: true}, answers, nil)
		return true
	}
	return false // chain too long: Resolve fails it, and counts the failure
}

// chaseCNAME reports whether k answers target only with a CNAME that the
// question did not ask for, and where it points.
func chaseCNAME(k known, target dnswire.Name, qtype dnswire.Type) (dnswire.Name, bool) {
	if k.rcode != dnswire.RcodeSuccess || qtype == dnswire.TypeCNAME {
		return "", false
	}
	return terminalCNAME(k.rrs, target)
}

// localTerminal consults the local root zone copy for a name the cache
// could not answer, when the consult is where iteration would start and
// its verdict ends the resolution: NXDOMAIN, NODATA, data at the apex, or
// a refusal. That is all of the paper's junk. A referral is a miss: the
// TLD's servers come next, and that is upstream work.
func (r *Resolver) localTerminal(qname dnswire.Name, qtype dnswire.Type, tr *obs.Trace) (localLookup, bool) {
	if tr != nil {
		tr.Eventf("cache-miss", "%s %s", qname, qtype)
	}
	if r.cfg.Mode != RootModeLookaside && r.cfg.Mode != RootModePreload {
		return localLookup{}, false
	}
	if _, _, cached := r.closestCut(qname); cached || !r.rootSet().local {
		return localLookup{}, false
	}
	if tr != nil {
		tr.Eventf("local-root", "consulting local zone for %s %s", qname, qtype)
	}
	asp := tr.StartSpan(obs.PhaseAuth, "local-root")
	lk := r.lookupLocalRoot(qname, qtype)
	asp.End()
	return lk, !lk.referral()
}
