// Package validator implements the recursive-resolver side of DNSSEC
// (RFC 4033–4035): a chain-of-trust walk from a configured DS trust
// anchor through DNSKEY RRsets down delegation cuts, RRSIG verification
// with bounded clock-skew tolerance, and NSEC denial-of-existence proofs
// for NXDOMAIN and NODATA answers.
//
// The validator is deliberately passive: it never sends queries itself.
// The resolver feeds it DNSKEY RRsets (ValidateKeys) and answers
// (Validate); the validator remembers which zones are provably secure
// (validated DS seen at the parent), provably insecure (validated NSEC
// proved the DS absent — an "island of security" boundary), and which
// keys have been chained to the anchor. Every verdict is one of the four
// RFC 4035 §4.3 states: Secure, Insecure, Bogus, or Indeterminate.
package validator

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
)

// Policy selects what the resolver does with validation verdicts,
// mirroring the deployment knob real validating resolvers expose.
type Policy int

const (
	// PolicyOff skips validation entirely; answers are served exactly as
	// before and the AD bit is never set.
	PolicyOff Policy = iota
	// PolicyPermissive validates and counts, but serves bogus answers
	// anyway (without the AD bit) — the graceful-degradation mode the
	// islands-of-security literature argues for during rollout.
	PolicyPermissive
	// PolicyStrict turns bogus answers into SERVFAIL-class errors and
	// refuses to cache them; only validated data enters the cache.
	PolicyStrict
)

// ParsePolicy maps the flag spelling to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "off", "":
		return PolicyOff, nil
	case "permissive":
		return PolicyPermissive, nil
	case "strict":
		return PolicyStrict, nil
	}
	return PolicyOff, fmt.Errorf("validator: unknown policy %q (want strict, permissive, or off)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyPermissive:
		return "permissive"
	case PolicyStrict:
		return "strict"
	default:
		return "off"
	}
}

// Outcome is the RFC 4035 §4.3 validation state of one response.
type Outcome int

const (
	// Indeterminate: no trust anchor covers this part of the tree, or the
	// chain state needed to judge is missing. Served without AD.
	Indeterminate Outcome = iota
	// Insecure: a validated NSEC proved there is no DS at some cut above
	// the data — the subtree is provably unsigned. Served without AD.
	Insecure
	// Secure: every link from the trust anchor to the data verified.
	Secure
	// Bogus: the zone should validate but something failed — a missing or
	// invalid signature, a broken denial proof, a stripped DS. Under
	// PolicyStrict this is a SERVFAIL; it never enters the cache.
	Bogus
)

func (o Outcome) String() string {
	switch o {
	case Secure:
		return "secure"
	case Insecure:
		return "insecure"
	case Bogus:
		return "bogus"
	default:
		return "indeterminate"
	}
}

// ErrBogus is wrapped by every bogus verdict's Err, so callers can test
// errors.Is(err, validator.ErrBogus).
var ErrBogus = errors.New("validator: bogus answer")

// Config configures a Validator.
type Config struct {
	// Anchor is the DS-form trust anchor (the root KSK's DS record).
	Anchor dnswire.DS
	// AnchorZone is the apex the anchor signs for (the root).
	AnchorZone dnswire.Name
	// Skew widens every RRSIG validity window on both ends (0 = exact).
	Skew time.Duration
	// Now supplies time for signature windows and chain-state expiry
	// (nil = time.Now).
	Now func() time.Time
}

// zoneKeys is one zone's validated DNSKEY set.
type zoneKeys struct {
	keys    []dnswire.DNSKEY
	expires time.Time
}

// cutState records what a validated parent response proved about a
// delegation: either the child's DS RRset (secure cut) or its proven
// absence (insecure cut).
type cutState struct {
	ds       []dnswire.DS // nil for insecure cuts
	insecure bool
	expires  time.Time
}

// Validator holds the chain-of-trust state. Safe for concurrent use.
type Validator struct {
	cfg Config

	mu   sync.Mutex
	keys map[dnswire.Name]zoneKeys
	cuts map[dnswire.Name]cutState
}

// New creates a Validator anchored at cfg.Anchor.
func New(cfg Config) *Validator {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.AnchorZone == "" {
		cfg.AnchorZone = dnswire.Root
	}
	return &Validator{
		cfg:  cfg,
		keys: make(map[dnswire.Name]zoneKeys),
		cuts: make(map[dnswire.Name]cutState),
	}
}

// ChainStatus is what the validator knows about a zone before seeing any
// of its data.
type ChainStatus int

const (
	// ChainUnknown: no anchor or recorded cut covers the zone.
	ChainUnknown ChainStatus = iota
	// ChainInsecure: a validated proof showed the zone (or an ancestor
	// cut) is unsigned.
	ChainInsecure
	// ChainSecure: the anchor or a validated DS covers the zone; its
	// data must validate or be judged bogus.
	ChainSecure
)

// ZoneStatus reports the chain status of zone: secure if it is the
// anchor zone or a validated DS was recorded for it, insecure if a
// validated denial proved no DS at it or at any recorded ancestor cut.
func (v *Validator) ZoneStatus(zone dnswire.Name) ChainStatus {
	if zone == v.cfg.AnchorZone {
		return ChainSecure
	}
	if !zone.IsSubdomainOf(v.cfg.AnchorZone) {
		return ChainUnknown
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	now := v.cfg.Now()
	for n := zone; ; n = n.Parent() {
		if cs, ok := v.cuts[n]; ok && cs.expires.After(now) {
			if cs.insecure {
				return ChainInsecure
			}
			// A secure cut at an ancestor says that ancestor zone is
			// signed; only a cut at the zone itself speaks for the zone.
			if n == zone {
				return ChainSecure
			}
			return ChainUnknown
		}
		if n == v.cfg.AnchorZone || n.IsRoot() {
			return ChainUnknown
		}
	}
}

// HasKeys reports whether zone's DNSKEY set is validated and unexpired.
func (v *Validator) HasKeys(zone dnswire.Name) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	zk, ok := v.keys[zone]
	return ok && zk.expires.After(v.cfg.Now())
}

// anchorOrDS returns the DS records zone's DNSKEY set must chain to.
func (v *Validator) anchorOrDS(zone dnswire.Name) []dnswire.DS {
	if zone == v.cfg.AnchorZone {
		return []dnswire.DS{v.cfg.Anchor}
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if cs, ok := v.cuts[zone]; ok && !cs.insecure && cs.expires.After(v.cfg.Now()) {
		return cs.ds
	}
	return nil
}

// ValidateKeys establishes zone's DNSKEY set: some key must match the
// zone's DS (the trust anchor, or a DS validated off the parent), and a
// matching key must have signed the DNSKEY RRset itself. On success the
// keys are cached until the RRset TTL runs out and subsequent Validate
// calls for the zone can verify signatures. rrs is the full answer
// section of the DNSKEY response (keys and RRSIGs together are fine).
func (v *Validator) ValidateKeys(zone dnswire.Name, rrs []dnswire.RR) error {
	dss := v.anchorOrDS(zone)
	if len(dss) == 0 {
		return fmt.Errorf("%w: no DS or anchor for %s", ErrBogus, zone)
	}
	var keyset []dnswire.RR
	var sigs []dnswire.RR
	minTTL := uint32(0)
	for _, rr := range rrs {
		if rr.Name != zone {
			continue
		}
		switch d := rr.Data.(type) {
		case dnswire.DNSKEY:
			keyset = append(keyset, rr)
			if minTTL == 0 || rr.TTL < minTTL {
				minTTL = rr.TTL
			}
		case dnswire.RRSIG:
			if d.TypeCovered == dnswire.TypeDNSKEY {
				sigs = append(sigs, rr)
			}
		}
	}
	if len(keyset) == 0 {
		return fmt.Errorf("%w: no DNSKEY records for %s", ErrBogus, zone)
	}
	if len(sigs) == 0 {
		return fmt.Errorf("%w: DNSKEY RRset for %s is unsigned", ErrBogus, zone)
	}
	keys := make([]dnswire.DNSKEY, len(keyset))
	anchored := false
	for i, rr := range keyset {
		keys[i] = rr.Data.(dnswire.DNSKEY)
		for _, ds := range dss {
			if dnssec.VerifyDS(zone, keys[i], ds) == nil {
				anchored = true
			}
		}
	}
	if !anchored {
		return fmt.Errorf("%w: no DNSKEY for %s matches its DS", ErrBogus, zone)
	}
	now := v.cfg.Now()
	var lastErr error
	for _, sigRR := range sigs {
		if err := dnssec.VerifyRRsetSkew(keyset, sigRR, keys, now, v.cfg.Skew); err == nil {
			v.mu.Lock()
			v.keys[zone] = zoneKeys{
				keys:    keys,
				expires: now.Add(time.Duration(minTTL) * time.Second),
			}
			v.mu.Unlock()
			return nil
		} else {
			lastErr = err
		}
	}
	return fmt.Errorf("%w: DNSKEY RRset for %s: %v", ErrBogus, zone, lastErr)
}

// ValidatedNSEC is one NSEC record whose signature verified against a
// chained zone key — the currency of RFC 8198 aggressive caching.
type ValidatedNSEC struct {
	Zone  dnswire.Name // the signing zone (RRSIG signer)
	Owner dnswire.Name
	NSEC  dnswire.NSEC
	TTL   uint32
}

// Result is one response's validation verdict.
type Result struct {
	Outcome Outcome
	// Err explains a Bogus outcome (wraps ErrBogus); nil otherwise.
	Err error
	// NSECs are the denial records that verified during this validation,
	// whatever the overall outcome — each is independently proven and
	// safe to cache aggressively.
	NSECs []ValidatedNSEC
}

func bogus(format string, args ...any) Result {
	return Result{Outcome: Bogus, Err: fmt.Errorf("%w: %s", ErrBogus, fmt.Sprintf(format, args...))}
}

// Validate judges one upstream response from zone's servers against the
// chain of trust. The caller has already established zone's keys via
// ValidateKeys when the zone is secure. qname/qtype are the question as
// sent. Referrals additionally update the recorded cut state for the
// child zone (validated DS → secure cut; validated NSEC without the DS
// bit → insecure cut).
func (v *Validator) Validate(zone, qname dnswire.Name, qtype dnswire.Type, resp *dnswire.Message) Result {
	switch v.ZoneStatus(zone) {
	case ChainInsecure:
		return Result{Outcome: Insecure}
	case ChainUnknown:
		return Result{Outcome: Indeterminate}
	}

	v.mu.Lock()
	zk, ok := v.keys[zone]
	keysLive := ok && zk.expires.After(v.cfg.Now())
	v.mu.Unlock()
	if !keysLive {
		return bogus("no validated DNSKEY set for %s", zone)
	}
	keys := zk.keys
	now := v.cfg.Now()

	// Index the signatures by the RRset they cover.
	section := make([]dnswire.RR, 0, len(resp.Answers)+len(resp.Authority))
	section = append(section, resp.Answers...)
	section = append(section, resp.Authority...)
	_, sets := dnswire.GroupRRsets(section)
	sigs := make(map[dnswire.RRsetKey][]dnswire.RR)
	for key, rrset := range sets {
		if key.Type != dnswire.TypeRRSIG {
			continue
		}
		for _, sigRR := range rrset {
			covered := sigRR.Data.(dnswire.RRSIG).TypeCovered
			k := dnswire.RRsetKey{Name: key.Name, Type: covered, Class: key.Class}
			sigs[k] = append(sigs[k], sigRR)
		}
	}
	verify := func(key dnswire.RRsetKey, rrset []dnswire.RR) error {
		covering := sigs[key]
		if len(covering) == 0 {
			return fmt.Errorf("%s/%s has no RRSIG", key.Name, key.Type)
		}
		var lastErr error
		for _, sigRR := range covering {
			sig := sigRR.Data.(dnswire.RRSIG)
			if sig.SignerName != zone {
				lastErr = fmt.Errorf("%s/%s signed by %s, not %s", key.Name, key.Type, sig.SignerName, zone)
				continue
			}
			if err := dnssec.VerifyRRsetSkew(rrset, sigRR, keys, now, v.cfg.Skew); err != nil {
				lastErr = fmt.Errorf("%s/%s: %w", key.Name, key.Type, err)
				continue
			}
			return nil
		}
		return lastErr
	}

	res := Result{Outcome: Secure}
	// Validate every NSEC present regardless of response shape: each one
	// that verifies is an independently-proven denial range.
	for key, rrset := range sets {
		if key.Type != dnswire.TypeNSEC {
			continue
		}
		if err := verify(key, rrset); err == nil {
			res.NSECs = append(res.NSECs, ValidatedNSEC{
				Zone:  zone,
				Owner: key.Name,
				NSEC:  rrset[0].Data.(dnswire.NSEC),
				TTL:   rrset[0].TTL,
			})
		}
	}
	nsecAt := func(owner dnswire.Name) (dnswire.NSEC, uint32, bool) {
		for _, n := range res.NSECs {
			if n.Owner == owner {
				return n.NSEC, n.TTL, true
			}
		}
		return dnswire.NSEC{}, 0, false
	}
	covering := func(name dnswire.Name) (ValidatedNSEC, bool) {
		for _, n := range res.NSECs {
			if nsecCovers(n.Owner, n.NSEC.NextName, name) {
				return n, true
			}
		}
		return ValidatedNSEC{}, false
	}
	nsecCovering := func(name dnswire.Name) bool {
		_, ok := covering(name)
		return ok
	}

	switch {
	case resp.Rcode == dnswire.RcodeNXDomain:
		// NXDOMAIN needs two validated NSECs (RFC 4035 §5.4): one whose
		// range covers the denied name, and one covering the wildcard at
		// its closest encloser — the longer of the ancestors the name
		// shares with the first one's owner and next name — which would
		// otherwise have answered for it.
		cover, ok := covering(qname)
		if !ok {
			return bogus("NXDOMAIN for %s without a covering validated NSEC", qname)
		}
		encloser := qname.CommonAncestor(cover.Owner)
		if next := qname.CommonAncestor(cover.NSEC.NextName); next.IsSubdomainOf(encloser) {
			encloser = next
		}
		if wildcard, err := encloser.Child("*"); err != nil || !nsecCovering(wildcard) {
			return bogus("NXDOMAIN for %s without a validated NSEC denying the wildcard at %s", qname, encloser)
		}
		return res

	case len(resp.Answers) > 0:
		// A positive answer: every answer RRset must verify. Delegation
		// NS sets are never returned as answers by our authservers, so
		// no parent-side exceptions apply here.
		for key, rrset := range sets {
			if key.Type == dnswire.TypeRRSIG || key.Type == dnswire.TypeNSEC {
				continue
			}
			if !inSection(resp.Answers, key) {
				continue
			}
			if err := verify(key, rrset); err != nil {
				res = bogus("%v", err)
				res.NSECs = nil
				return res
			}
		}
		return res

	case isReferral(resp):
		// A referral hands authority to a child zone. Secure chains
		// require the cut to carry either a signed DS RRset (the child is
		// signed: record it so the child's keys can chain) or a validated
		// NSEC at the cut proving the DS absent (the child is provably
		// insecure). Anything else is a downgrade attempt.
		child := referralChild(resp)
		if child == "" {
			return bogus("referral from %s without NS records", zone)
		}
		dsKey := dnswire.RRsetKey{Name: child, Type: dnswire.TypeDS, Class: dnswire.ClassINET}
		if dsSet, ok := sets[dsKey]; ok {
			if err := verify(dsKey, dsSet); err != nil {
				res = bogus("%v", err)
				res.NSECs = nil
				return res
			}
			dss := make([]dnswire.DS, 0, len(dsSet))
			for _, rr := range dsSet {
				dss = append(dss, rr.Data.(dnswire.DS))
			}
			v.recordCut(child, cutState{ds: dss, expires: now.Add(time.Duration(dsSet[0].TTL) * time.Second)})
			return res
		}
		if nsec, ttl, ok := nsecAt(child); ok {
			if bitmapHas(nsec.Types, dnswire.TypeDS) {
				return bogus("referral to %s omits the DS its NSEC proves exists", child)
			}
			v.recordCut(child, cutState{insecure: true, expires: now.Add(time.Duration(ttl) * time.Second)})
			return res
		}
		return bogus("referral to %s carries neither DS nor a validated NSEC proving its absence", child)

	default:
		// NODATA: the name exists but the type does not. Needs a
		// validated NSEC at the name whose bitmap omits qtype.
		if nsec, _, ok := nsecAt(qname); ok {
			if bitmapHas(nsec.Types, qtype) {
				return bogus("NODATA for %s/%s but its NSEC lists the type", qname, qtype)
			}
			return res
		}
		// An empty non-terminal (no NSEC owner) is covered by a range.
		if nsecCovering(qname) {
			return res
		}
		return bogus("NODATA for %s/%s without a validated NSEC proof", qname, qtype)
	}
}

func (v *Validator) recordCut(child dnswire.Name, cs cutState) {
	v.mu.Lock()
	v.cuts[child] = cs
	v.mu.Unlock()
}

// nsecCovers reports whether name falls strictly inside the canonical
// range (owner, next) — wrapping when next is the apex at or before
// owner (the chain's last link).
func nsecCovers(owner, next, name dnswire.Name) bool {
	cmpOwner := owner.Compare(name)
	if cmpOwner >= 0 {
		return false
	}
	if next.Compare(owner) <= 0 {
		// Wrap-around link: covers everything after owner within the
		// zone; callers bound the zone membership.
		return true
	}
	return name.Compare(next) < 0
}

func bitmapHas(types []dnswire.Type, t dnswire.Type) bool {
	for _, x := range types {
		if x == t {
			return true
		}
	}
	return false
}

func inSection(section []dnswire.RR, key dnswire.RRsetKey) bool {
	for _, rr := range section {
		if rr.Name == key.Name && rr.Type == key.Type {
			return true
		}
	}
	return false
}

// isReferral mirrors the resolver's classification: no answers, not an
// error, and NS records in authority.
func isReferral(m *dnswire.Message) bool {
	if m.Rcode != dnswire.RcodeSuccess || len(m.Answers) != 0 {
		return false
	}
	for _, rr := range m.Authority {
		if rr.Type == dnswire.TypeNS {
			return true
		}
	}
	return false
}

// referralChild returns the delegated zone named by the referral.
func referralChild(m *dnswire.Message) dnswire.Name {
	for _, rr := range m.Authority {
		if rr.Type == dnswire.TypeNS {
			return rr.Name
		}
	}
	return ""
}
