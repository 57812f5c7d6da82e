package resolver

// What the resolver can answer without I/O: the cache (positive, negative,
// CNAME), validated NSEC ranges, NXDOMAIN cuts and — when the root is
// local — the zone copy. walk follows a question's CNAME chain through
// all of that and, when allowed, through upstream iteration; resolveKnown
// is the whole resolution when nothing upstream is needed, which is what
// lets the front door answer on a socket worker.
//
// Nothing a walk reads here is counted until commit, so a question that
// turns out to need upstream work leaves resolveKnown as if it had never
// been asked, and is counted once by whoever resolves it.
//
// The question name on this path may be a view of the front door's
// dnswire.Query, valid only while the datagram is handled. What keeps a
// name past that — a trace event, a cache entry, a delegation — keeps a
// copy or a name of its own, never qname itself: storing it anywhere that
// outlives the call would move every front-door Query to the heap.

import (
	"errors"
	"time"

	"rootless/internal/dist"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/zone"
)

// knownSource says where a link of a chain came from: what commit still
// has to count for it.
type knownSource uint8

const (
	fromCache knownSource = iota
	fromNegCache
	fromNSEC
	fromCut
	fromLocalRoot // a consult read but not yet counted or cached: chain.local holds it
	counted       // nothing: iterate's links, and a consult once applied
)

// known is the answer to one name — one link of a CNAME chain.
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
				tr.Eventf("cache-hit", "negative %s %s", qname.Clone(), qtype)
			}
			// Replay the faithful rcode: NXDOMAIN if the name was proven
			// absent, NODATA (Success, no answers) if only the type was.
			return known{src: fromNegCache, rcode: nxOrNoData(hit.NXDomain)}, true
		}
		if tr != nil {
			tr.Eventf("cache-hit", "%s %s (%d RRs)", qname.Clone(), qtype, len(hit.RRs))
		}
		return known{src: fromCache, rrs: hit.RRs, ttl: hit.TTL, decayed: true}, true
	}
	// Cached CNAME at the name also answers.
	if qtype != dnswire.TypeCNAME {
		if hit, ok := r.cache.Get(qname, dnswire.TypeCNAME); ok && !hit.Negative {
			if tr != nil {
				tr.Eventf("cache-hit", "%s CNAME", qname.Clone())
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
				tr.Eventf("cache-hit", "validated NSEC range covers %s %s", qname.Clone(), qtype)
			}
			return known{src: fromNSEC, rcode: nxOrNoData(nx), secure: true}, true
		}
	}
	// An NXDOMAIN cut at any ancestor (in practice: the TLD) answers the
	// miss without any upstream work — the aggressive negative cache the
	// paper's junk-dominated workload rewards.
	if r.cfg.NXDomainCut && r.cache.NXDomainCovered(qname) {
		if tr != nil {
			tr.Eventf("cache-hit", "NXDOMAIN cut covers %s", qname.Clone())
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
	r.count(func(s *Stats) {
		inc(&s.CacheAnswers, 1)
		switch src {
		case fromNSEC:
			inc(&s.NSECSynthesized, 1)
		case fromCut:
			inc(&s.NXDomainCutHits, 1)
		}
		if src != fromCache {
			inc(&s.NegCacheAnswers, 1)
		}
	})
}

// localLookup is what the local root zone copy says about one question,
// read but not yet counted or cached. qname is the name its verdict is
// cached under, which the caller of lookupLocalRoot fills in with a name
// it may keep.
type localLookup struct {
	qname dnswire.Name
	qtype dnswire.Type
	ans   zone.Answer
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

// staleTTLCap caps TTLs on answers consulted from a stale-serve copy, so
// downstream caches re-ask soon after the copy heals (the RFC 8767
// recommendation).
const staleTTLCap = 30 * time.Second

// lookupLocalRoot performs the lookaside step: read the referral (or
// terminal answer) straight from the local root zone. With staleness
// staging enabled, the copy's freshness stage gates the consult: a
// stale-serve copy still answers but with capped TTLs, an expired copy
// is refused.
func (r *Resolver) lookupLocalRoot(qname dnswire.Name, qtype dnswire.Type) localLookup {
	lk := localLookup{qtype: qtype}
	lr := r.local.Load()
	if lr == nil {
		lk.refused = true
		return lk
	}
	lk.secure = lr.secure
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
		const ttlCap = uint32(staleTTLCap / time.Second)
		lk.ans.Answer = capTTLs(lk.ans.Answer, ttlCap)
		lk.ans.Authority = capTTLs(lk.ans.Authority, ttlCap)
		lk.ans.Additional = capTTLs(lk.ans.Additional, ttlCap)
	}
	return lk
}

// applyLocalRoot counts a consult and caches what it learned. done is
// false for a referral: iteration continues at next's servers.
func (r *Resolver) applyLocalRoot(lk *localLookup) (next *delegation, k known, done bool) {
	qname, qtype := lk.qname, lk.qtype
	r.count(func(s *Stats) {
		inc(&s.LocalRootConsults, 1)
		if lk.expired {
			inc(&s.LocalExpiredRefusals, 1)
		}
		if lk.stale {
			inc(&s.LocalStaleConsults, 1)
		}
	})
	k = known{src: counted, secure: lk.secure}
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
		r.cacheSets(ans.Answer, nil)
		k.rrs = ans.Answer
	case lk.referral():
		// Cache the NS set and glue, then continue iterating at the TLD
		// servers. The copy is the root: all of it is in bailiwick.
		next, _ = r.learn(ans.Authority[0].Name, dnswire.Root, ans.Authority, ans.Additional)
		r.cacheSets(ans.Authority, nil)
		if next != nil {
			return next, known{}, false
		}
		k.rcode = dnswire.RcodeServFail // a cut without a nameserver
	default:
		// NODATA at the root (e.g. TLD apex, wrong type).
		if len(ans.Authority) > 0 {
			r.cache.PutNegative(qname, qtype, ans.Authority[0], false)
		}
	}
	return nil, k, true
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

var (
	errCNAMEChain = errors.New("resolver: CNAME chain too long")
	// errNeedsUpstream ends a walk that may not do I/O.
	errNeedsUpstream = errors.New("resolver: not answerable from what is known")
)

// chain is a question's CNAME chain as walk found it, link by link, the
// records of known links still shared with the cache.
type chain struct {
	rcode  dnswire.Rcode // the last link's
	secure bool          // every link was: the response may carry AD (set by commit)
	n      int
	links  [maxCNAMEDepth]known
	chases int         // CNAMEs followed
	local  localLookup // behind the fromLocalRoot link, which is always the last
}

// walk answers (qname, qtype) link by link along its CNAME chain. Each
// link comes from what is known — the cache, a proven denial, a verdict of
// the local root copy that ends the resolution — or, where nothing known
// answers, from iterate. A nil iterate keeps the walk free of I/O: the
// first link that would need it ends the walk with errNeedsUpstream.
// Either way the links found are not yet counted; commit does that.
//
// iterate is handed the link's name when that is a CNAME's target, and ""
// for qname itself: qname may be a view, and upstream work keeps the name
// it asks for, so the caller resolves "" to a copy of its own.
func (r *Resolver) walk(qname dnswire.Name, qtype dnswire.Type, tr *obs.Trace, iterate func(cname dnswire.Name) (known, error), out *chain) error {
	out.n, out.chases, out.rcode = 0, 0, dnswire.RcodeServFail
	var cname dnswire.Name // target when it is a CNAME's; "" while it is qname
	for target := qname; out.n < len(out.links); {
		k, ok := r.probe(target, qtype, tr)
		if !ok {
			if tr != nil {
				tr.Eventf("cache-miss", "%s %s", target.Clone(), qtype)
			}
			if iterate != nil {
				var err error
				if k, err = iterate(cname); err != nil {
					return err
				}
			} else if out.local, ok = r.localTerminal(target, qtype, tr); ok {
				k = known{src: fromLocalRoot, rrs: out.local.ans.Answer}
			} else {
				return errNeedsUpstream
			}
		}
		out.links[out.n] = k
		out.n++
		out.rcode = k.rcode
		// Follow a CNAME unless that is what was asked for.
		cn, chase := chaseCNAME(k, target, qtype)
		if !chase {
			return nil
		}
		if k.src == fromLocalRoot {
			// The root zone holds no CNAMEs; one in a local copy takes the
			// long way rather than a second pending consult here.
			return errNeedsUpstream
		}
		out.chases++
		if tr != nil {
			tr.Eventf("cname", "chasing %s -> %s", qname.Clone(), cn)
		}
		target, cname = cn, cn
	}
	return errCNAMEChain
}

// commit is the accounting of a walk: the chases, and each known link as
// the cache answer or local consult it was.
func (r *Resolver) commit(c *chain) {
	if c.chases > 0 {
		r.count(func(s *Stats) { inc(&s.CNAMEChases, int64(c.chases)) })
	}
	c.secure = true
	for i := range c.links[:c.n] {
		link := &c.links[i]
		switch link.src {
		case counted:
		case fromLocalRoot:
			_, *link, _ = r.applyLocalRoot(&c.local)
			c.rcode = link.rcode
		default:
			r.countProbeHit(link.src)
		}
		c.secure = c.secure && link.secure
	}
}

// answers is the number of records in the chain.
func (c *chain) answers() (n int) {
	for i := range c.links[:c.n] {
		n += len(c.links[i].rrs)
	}
	return n
}

// result fills a's Result with the chain's outcome; the records are
// copied, with the TTLs they go out with, into a's own room when there
// is one.
func (c *chain) result(a *answer) {
	res := &a.res
	res.Rcode = c.rcode
	switch n := c.answers(); {
	case n == 1:
		res.Answers = a.one[:0]
	case n > 1:
		res.Answers = make([]dnswire.RR, 0, n)
	default:
		res.Answers = nil
	}
	for i := range c.links[:c.n] {
		link := &c.links[i]
		for _, rr := range link.rrs {
			if link.decayed {
				rr.TTL = link.ttl
			}
			res.Answers = append(res.Answers, rr)
		}
	}
	res.FromCache = res.Queries == 0
	res.AuthData = c.secure
}

// resolveKnown is a whole resolution for a question that needs no
// upstream work, without a Result or a copied record: on true, out is the
// answer and the resolution has been counted, classified, traced and
// observed. On false nothing has been counted, and the caller takes the
// question — and the trace begun for it, nil when tracing is off — to
// resolveUpstream.
func (r *Resolver) resolveKnown(qname dnswire.Name, qtype dnswire.Type, out *chain) (*obs.Trace, bool) {
	var tr *obs.Trace
	if r.tracer.Enabled() { // the mnemonic of an unknown qtype is an allocation
		tr = r.tracer.Begin(string(qname.Clone()), qtype.String())
	}
	if r.walk(qname, qtype, tr, nil, out) != nil {
		return tr, false
	}
	// Nothing past this point can send the question elsewhere.
	var class string
	if r.traffic != nil {
		class = r.traffic.Observe(qname, qtype).String()
		tr.SetClass(class)
	}
	r.count(func(s *Stats) { inc(&s.Resolutions, 1) })
	r.commit(out)
	r.finish(tr, qtype, class, &Result{Rcode: out.rcode, FromCache: true}, out.answers(), nil)
	return nil, true
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
	if r.cfg.Mode != RootModeLookaside && r.cfg.Mode != RootModePreload {
		return localLookup{}, false
	}
	if !r.closestDelegation(qname).local {
		return localLookup{}, false
	}
	if tr != nil {
		tr.Eventf("local-root", "consulting local zone for %s %s", qname.Clone(), qtype)
	}
	asp := tr.StartSpan(obs.PhaseAuth, "local-root")
	lk := r.lookupLocalRoot(qname, qtype)
	asp.End()
	if lk.referral() {
		return lk, false
	}
	lk.qname = qname.Clone() // what commit caches the verdict under
	return lk, true
}
