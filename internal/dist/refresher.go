package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/zone"
)

// Source produces root zone bundles; implemented by HTTPClient, the gossip
// peer, and test fakes.
type Source interface {
	Fetch(ctx context.Context) (*Bundle, error)
}

// SourceFunc adapts a function to Source.
type SourceFunc func(ctx context.Context) (*Bundle, error)

// Fetch implements Source.
func (f SourceFunc) Fetch(ctx context.Context) (*Bundle, error) { return f(ctx) }

// ErrRollback rejects a bundle whose serial is behind the installed copy
// without a signed supersession — a stale or malicious mirror must not be
// able to roll a resolver back to an old zone.
var ErrRollback = errors.New("dist: serial rollback without signed supersession")

// Freshness is the staged staleness state machine driving resolver
// behavior: a copy is fresh until its planned refresh, aging through the
// retry window, served stale with capped TTLs for a bounded window past
// expiry, and finally expired — at which point policy fails closed.
type Freshness int

// Freshness stages.
const (
	// FreshnessNone: no zone has ever been installed.
	FreshnessNone Freshness = iota
	// FreshnessFresh: age ≤ Refresh; normal operation.
	FreshnessFresh
	// FreshnessAging: refresh overdue but the copy is still valid — the
	// paper's §4 retry window between X+42h and X+48h.
	FreshnessAging
	// FreshnessStaleServe: past Expiry but within StaleFor; answers are
	// still served, with capped TTLs, while the refresher keeps retrying.
	FreshnessStaleServe
	// FreshnessExpired: past Expiry+StaleFor; fail closed per policy.
	FreshnessExpired
)

func (f Freshness) String() string {
	switch f {
	case FreshnessNone:
		return "none"
	case FreshnessFresh:
		return "fresh"
	case FreshnessAging:
		return "aging"
	case FreshnessStaleServe:
		return "stale-serve"
	case FreshnessExpired:
		return "expired"
	}
	return "unknown"
}

// FreshnessOf places an installed copy's age on the state machine.
func FreshnessOf(age, refresh, expiry, staleFor time.Duration) Freshness {
	switch {
	case age <= refresh:
		return FreshnessFresh
	case age <= expiry:
		return FreshnessAging
	case age <= expiry+staleFor:
		return FreshnessStaleServe
	}
	return FreshnessExpired
}

// RefresherConfig sets the refresh policy. The defaults encode the
// paper's §4 robustness arithmetic: with two-day TTLs a copy obtained at
// time X is refreshed at X+42 h, leaving a 6-hour retry window before the
// copy expires at X+48 h and lookups are actually impacted.
type RefresherConfig struct {
	Source Source
	// KSK verifies bundle signatures. Ignored when Trust is set.
	KSK dnswire.DNSKEY
	// Trust, when set, replaces the single static KSK with an RFC
	// 5011-style anchor store: bundles verify against any currently valid
	// anchor, and every verified zone's DNSKEY RRset feeds the rollover
	// state machine (add-hold-down, revoke bit, dual-anchor overlap).
	Trust *TrustAnchors
	// Install receives each verified zone (e.g. resolver.SetLocalZone).
	Install func(*zone.Zone) error
	// Refresh is the planned interval between fetches (default 42 h).
	Refresh time.Duration
	// Retry is the base pause after a failure (default 1 h). Successive
	// failures back off with decorrelated jitter — delay = min(RetryCap,
	// rand[Retry, 3·previous]) — so a resolver population that lost its
	// distribution channel does not retry in lockstep (§5.2's load
	// concern). The retry is never scheduled past the copy's expiry
	// moment: the last attempt inside the freshness window always runs.
	Retry time.Duration
	// RetryCap bounds backoff growth (default Expiry, the 48 h window).
	RetryCap time.Duration
	// Expiry is the zone copy's maximum age (default 48 h).
	Expiry time.Duration
	// StaleFor is the stale-serve window past Expiry before the copy is
	// fully expired (default 0: expiry is final, the paper's strict
	// arithmetic). Only the Freshness state machine consumes it; the
	// refresher itself never stops retrying.
	StaleFor time.Duration
	// CrossCheck guards against a freeze attack: a stale-but-reachable
	// mirror can keep "re-confirming" the installed serial (same-serial
	// bundles, empty delta chains) and quietly pin a resolver to an old
	// zone. Once the serial has not advanced for this long, a refresh asks
	// every source and installs the highest verified serial instead of
	// stopping at the first answer. Default 2×Refresh; negative disables.
	CrossCheck time.Duration
	// Fallbacks are alternative bundle sources (gossip peers, secondary
	// mirrors) tried in order when Source fails — §3's organic delivery
	// forms as failover. Every source's bundle passes the same
	// verification, so a fallback peer substitutes availability, never
	// content. Internally the primary and fallbacks fold into one
	// MultiSource with sticky preference and per-source quarantine.
	Fallbacks []Source
	// Seed makes the retry jitter deterministic (experiments/tests).
	Seed int64
	// Clock supplies time (virtual in experiments); nil = time.Now.
	Clock func() time.Time
	// Tracer, when set and enabled, records one trace per attempted
	// refresh cycle with fetch/verify/install spans, so zone-distribution
	// time shows up on /tracez next to resolution traces.
	Tracer *obs.Tracer
}

// Refresher drives the periodic fetch → verify → install loop. It is
// clock-driven rather than goroutine-driven so experiments can step
// virtual time; Tick must be called whenever time may have passed (a
// convenience Run loop exists for real deployments). State and Collect
// are safe to call from an admin scrape while Run ticks.
//
// Robustness properties, all tested by t_dist_chaos:
//   - catch-up prefers signed delta chains (O(delta) transfer + verify)
//     and falls back to the full bundle on any chain break;
//   - a bundle with serial ≤ the installed copy is rejected unless it
//     carries a signed supersession naming the installed serial;
//   - sources serving bogus, stale, or rolled-back bundles accumulate
//     quarantine strikes and are held out of the rotation;
//   - trust anchors roll per RFC 5011 without a refresh gap.
type Refresher struct {
	cfg   RefresherConfig
	ms    *MultiSource
	trust *TrustAnchors

	mu          sync.Mutex
	rng         *rand.Rand // retry jitter; guarded by mu
	obtained    time.Time  // when the current copy was fetched
	lastAdvance time.Time  // when the installed serial last changed
	nextTry     time.Time
	retryDelay  time.Duration // last backoff delay drawn (0 after success)
	serial      uint32
	haveZone    bool
	curZone     *zone.Zone
	chain       [32]byte // chain anchor of the installed copy
	fetches     int64
	failures    int64
	installs    int64
	fallbacks   int64 // bundles obtained from a non-primary source
	deltas      int64 // installs that arrived as delta chains
	chainFalls  int64 // delta chains abandoned for a full bundle
	rollbacks   int64 // bundles rejected by rollback protection
	supersedes  int64 // rollbacks accepted via signed supersession
	crossChecks int64 // all-source sweeps forced by a stuck serial
	lastErr     error
}

// NewRefresher validates the config and applies defaults.
func NewRefresher(cfg RefresherConfig) (*Refresher, error) {
	if cfg.Source == nil || cfg.Install == nil {
		return nil, errors.New("dist: Refresher needs Source and Install")
	}
	if cfg.Refresh == 0 {
		cfg.Refresh = 42 * time.Hour
	}
	if cfg.Retry == 0 {
		cfg.Retry = time.Hour
	}
	if cfg.Expiry == 0 {
		cfg.Expiry = 48 * time.Hour
	}
	if cfg.RetryCap == 0 {
		cfg.RetryCap = cfg.Expiry
	}
	if cfg.CrossCheck == 0 {
		cfg.CrossCheck = 2 * cfg.Refresh
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	r := &Refresher{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if ms, ok := cfg.Source.(*MultiSource); ok && len(cfg.Fallbacks) == 0 {
		r.ms = ms
		r.ms.ConfigureQuarantine(0, 0, cfg.Clock)
	} else {
		sources := append([]Source{cfg.Source}, cfg.Fallbacks...)
		labels := make([]string, len(sources))
		labels[0] = "primary"
		for i := 1; i < len(labels); i++ {
			labels[i] = fmt.Sprintf("fallback%d", i)
		}
		ms, err := NewMultiSource(sources, labels)
		if err != nil {
			return nil, err
		}
		// Quarantine holds scale with the retry cadence: three bad
		// refresh attempts take a source out for a few cycles.
		ms.ConfigureQuarantine(0, 4*cfg.Retry, cfg.Clock)
		r.ms = ms
	}
	r.trust = cfg.Trust
	if r.trust == nil {
		r.trust = NewTrustAnchors(0, cfg.KSK)
	}
	return r, nil
}

// Trust exposes the anchor store (statusz, experiments).
func (r *Refresher) Trust() *TrustAnchors { return r.trust }

// Sources exposes the failover chain (statusz, experiments).
func (r *Refresher) Sources() *MultiSource { return r.ms }

// State reports the refresher's externally visible condition.
type State struct {
	HaveZone bool
	// Fresh is false once the copy is older than Expiry — the moment the
	// paper says lookups are actually impacted.
	Fresh bool
	// Freshness is the staged state (fresh/aging/stale-serve/expired).
	Freshness Freshness
	Serial    uint32
	// Age is the installed copy's age; zero until HaveZone.
	Age      time.Duration
	Fetches  int64
	Failures int64
	Installs int64
	// FallbackFetches counts bundles that came from a fallback source
	// after the primary failed.
	FallbackFetches int64
	// DeltaInstalls counts installs that arrived as signed delta chains
	// rather than full bundles.
	DeltaInstalls int64
	// ChainFallbacks counts delta chains abandoned mid-walk for a full
	// bundle (broken link, bad signature, serial mismatch).
	ChainFallbacks int64
	// RollbacksRejected counts bundles refused by rollback protection.
	RollbacksRejected int64
	// SupersessionInstalls counts rollbacks accepted because the bundle
	// carried a valid signed supersession of the installed serial.
	SupersessionInstalls int64
	// CrossChecks counts all-source sweeps forced by a serial that had
	// not advanced for CrossCheck (the freeze-attack defense).
	CrossChecks int64
	// Quarantines counts sources placed in hold-down.
	Quarantines int64
	// Trust summarizes the anchor store.
	Trust TrustState
	// RetryDelay is the current backoff delay (0 while healthy).
	RetryDelay time.Duration
	LastErr    error
}

// State returns the current state.
func (r *Refresher) State() State {
	now := r.cfg.Clock()
	quar := r.ms.Quarantines()
	trust := r.trust.State()
	r.mu.Lock()
	defer r.mu.Unlock()
	var age time.Duration
	freshness := FreshnessNone
	if r.haveZone {
		age = now.Sub(r.obtained)
		freshness = FreshnessOf(age, r.cfg.Refresh, r.cfg.Expiry, r.cfg.StaleFor)
	}
	return State{
		HaveZone:             r.haveZone,
		Fresh:                r.haveZone && age <= r.cfg.Expiry,
		Freshness:            freshness,
		Serial:               r.serial,
		Age:                  age,
		Fetches:              r.fetches,
		Failures:             r.failures,
		Installs:             r.installs,
		FallbackFetches:      r.fallbacks,
		DeltaInstalls:        r.deltas,
		ChainFallbacks:       r.chainFalls,
		RollbacksRejected:    r.rollbacks,
		SupersessionInstalls: r.supersedes,
		CrossChecks:          r.crossChecks,
		Quarantines:          quar,
		Trust:                trust,
		RetryDelay:           r.retryDelay,
		LastErr:              r.lastErr,
	}
}

// Collect implements obs.Collector: fetch/install counters plus the
// freshness gauges the paper's §4 robustness arithmetic is about.
func (r *Refresher) Collect(reg *obs.Registry) {
	st := r.State()
	reg.Counter("rootless_refresher_fetches_total", "fetch attempts", nil).Set(st.Fetches)
	reg.Counter("rootless_refresher_failures_total", "failed fetch/verify/install attempts", nil).Set(st.Failures)
	reg.Counter("rootless_refresher_installs_total", "verified zones installed", nil).Set(st.Installs)
	reg.Counter("rootless_refresher_fallback_fetches_total",
		"bundles obtained from a fallback source after the primary failed", nil).Set(st.FallbackFetches)
	reg.Counter("rootless_refresher_delta_installs_total",
		"installs that arrived as signed delta chains", nil).Set(st.DeltaInstalls)
	reg.Counter("rootless_refresher_chain_fallbacks_total",
		"delta chains abandoned for a full bundle", nil).Set(st.ChainFallbacks)
	reg.Counter("rootless_refresher_rollbacks_rejected_total",
		"bundles refused by serial rollback protection", nil).Set(st.RollbacksRejected)
	reg.Counter("rootless_refresher_supersession_installs_total",
		"rollbacks accepted via signed supersession", nil).Set(st.SupersessionInstalls)
	reg.Counter("rootless_refresher_cross_checks_total",
		"all-source sweeps forced by a stuck serial", nil).Set(st.CrossChecks)
	reg.Counter("rootless_refresher_source_quarantines_total",
		"bundle sources placed in quarantine hold-down", nil).Set(st.Quarantines)
	reg.Counter("rootless_refresher_trust_rollovers_total",
		"trust anchors promoted after add-hold-down", nil).Set(st.Trust.Rollovers)
	reg.Counter("rootless_refresher_trust_revocations_total",
		"trust anchors revoked", nil).Set(st.Trust.Revocations)
	reg.Gauge("rootless_refresher_trust_anchors", "currently valid trust anchors", nil).
		Set(float64(st.Trust.Valid))
	reg.Gauge("rootless_refresher_retry_delay_seconds",
		"current jittered retry backoff (0 while healthy)", nil).Set(st.RetryDelay.Seconds())
	fresh := 0.0
	if st.Fresh {
		fresh = 1
	}
	reg.Gauge("rootless_refresher_fresh", "1 while the copy is younger than Expiry", nil).Set(fresh)
	reg.Gauge("rootless_refresher_freshness_state",
		"staleness stage: 0 none, 1 fresh, 2 aging, 3 stale-serve, 4 expired", nil).
		Set(float64(st.Freshness))
	reg.Gauge("rootless_refresher_zone_serial", "serial of the installed copy", nil).Set(float64(st.Serial))
	if st.HaveZone {
		reg.Gauge("rootless_refresher_zone_age_seconds", "staleness age of the installed copy", nil).
			Set(st.Age.Seconds())
	}
}

// Due reports whether Tick would attempt a fetch now.
func (r *Refresher) Due() bool {
	now := r.cfg.Clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.haveZone || !now.Before(r.nextTry)
}

// attemptResult is one successful refresh outcome: either a new zone to
// install, or zone == nil meaning the installed copy was re-confirmed
// current (same serial) and only the freshness clock resets.
type attemptResult struct {
	zone       *zone.Zone
	serial     uint32
	chain      [32]byte
	deltaLinks int
	srcIdx     int
	superseded bool
}

// Tick attempts a fetch if one is due. It returns true if a new zone was
// installed. The fetch itself runs unlocked; only state updates are
// serialised (one Run loop drives Tick, scrapes read concurrently).
func (r *Refresher) Tick(ctx context.Context) bool {
	now := r.cfg.Clock()
	r.mu.Lock()
	if r.haveZone && now.Before(r.nextTry) {
		r.mu.Unlock()
		return false
	}
	r.fetches++
	haveZone, serial, curZone, chain := r.haveZone, r.serial, r.curZone, r.chain
	r.mu.Unlock()
	// The refresh trace uses a pseudo-question: the "query" a refresh
	// cycle answers is "what is the current root zone bundle".
	tr := r.cfg.Tracer.Begin("root-zone-refresh.", "BUNDLE")
	res, err := r.attempt(ctx, tr, now, haveZone, serial, curZone, chain)
	if err != nil {
		r.fail(now, err)
		tr.Finish("FAIL", 0, 0, err)
		return false
	}
	if res.zone == nil {
		tr.Eventf("refreshed", "serial %d re-confirmed current", serial)
		tr.Finish("OK", 0, 0, nil)
		r.success(now, res, false)
		return false
	}
	isp := tr.StartSpan(obs.PhaseOther, "install")
	err = r.cfg.Install(res.zone)
	isp.End()
	if err != nil {
		r.fail(now, err)
		tr.Finish("FAIL", 0, 0, err)
		return false
	}
	if res.deltaLinks > 0 {
		tr.Eventf("installed", "serial %d via %d delta links", res.serial, res.deltaLinks)
	} else {
		tr.Eventf("installed", "serial %d", res.serial)
	}
	tr.Finish("OK", 0, 0, nil)
	r.success(now, res, true)
	return true
}

// success commits a refresh outcome under the lock.
func (r *Refresher) success(now time.Time, res attemptResult, installed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lastErr = nil
	r.obtained = now
	r.nextTry = now.Add(r.cfg.Refresh)
	r.retryDelay = 0
	if res.srcIdx != 0 {
		r.fallbacks++
	}
	if !installed {
		return
	}
	r.installs++
	r.serial = res.serial
	r.curZone = res.zone
	r.chain = res.chain
	r.haveZone = true
	r.lastAdvance = now
	if res.deltaLinks > 0 {
		r.deltas++
	}
	if res.superseded {
		r.supersedes++
	}
}

// attempt walks the failover chain: for each non-quarantined source it
// prefers signed delta catch-up (when the source supports it and a copy is
// installed), then the full bundle, verifying everything against the trust
// anchors and enforcing rollback protection. Normally the first source
// that delivers wins; once the serial has been stuck for CrossCheck, every
// source is consulted and the highest verified serial wins instead, so one
// frozen mirror cannot pin the population to an old zone. The staleness
// stage also drives desperation: with no zone installed, or once the copy
// has aged into the retry window, quarantine holds stop gating attempts —
// probing a possibly-bad mirror beats expiring. Every failed source
// contributes a labeled error to the returned errors.Join.
func (r *Refresher) attempt(ctx context.Context, tr *obs.Trace, now time.Time,
	haveZone bool, serial uint32, curZone *zone.Zone, chain [32]byte) (attemptResult, error) {
	r.mu.Lock()
	crossCheck := haveZone && r.cfg.CrossCheck > 0 && now.Sub(r.lastAdvance) >= r.cfg.CrossCheck
	desperate := !haveZone || now.Sub(r.obtained) > r.cfg.Refresh
	r.mu.Unlock()
	attempts := r.ms.Attempts()
	if desperate {
		attempts = r.ms.AllAttempts()
	}
	var errs []error
	var best attemptResult
	bestOK := false
	for _, idx := range attempts {
		label := r.ms.Label(idx)
		if idx != 0 {
			tr.Eventf("fallback", "trying %s", label)
		}
		res, err := r.trySource(ctx, tr, now, idx, haveZone, serial, curZone, chain)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", label, err))
			if ctx.Err() != nil {
				break
			}
			continue
		}
		res.srcIdx = idx
		if !crossCheck {
			r.ms.NoteGood(idx)
			return res, nil
		}
		if !bestOK || res.serial > best.serial || (res.zone != nil && best.zone == nil && res.serial == best.serial) {
			best, bestOK = res, true
		}
	}
	if bestOK {
		r.ms.NoteGood(best.srcIdx)
		r.mu.Lock()
		r.crossChecks++
		r.mu.Unlock()
		tr.Eventf("cross-check", "serial stuck at %d: best of all sources is %d from %s",
			serial, best.serial, r.ms.Label(best.srcIdx))
		return best, nil
	}
	return attemptResult{}, fmt.Errorf("dist: all sources failed: %w", errors.Join(errs...))
}

// trySource attempts one source: signed delta catch-up when supported,
// then the full bundle, with verification and rollback protection.
func (r *Refresher) trySource(ctx context.Context, tr *obs.Trace, now time.Time, idx int,
	haveZone bool, serial uint32, curZone *zone.Zone, chain [32]byte) (attemptResult, error) {
	label := r.ms.Label(idx)
	if haveZone && curZone != nil {
		if ds, ok := r.ms.Source(idx).(DeltaSource); ok {
			if res, ok := r.tryDeltaChain(ctx, tr, ds, now, curZone, chain); ok {
				return res, nil
			}
		}
	}
	fsp := tr.StartSpan(obs.PhaseNet, "fetch")
	bundle, err := r.ms.FetchIndex(ctx, idx)
	fsp.End()
	if err != nil {
		return attemptResult{}, err
	}
	vsp := tr.StartSpan(obs.PhaseAuth, "verify")
	z, err := r.verifyBundle(bundle)
	vsp.End()
	if err != nil {
		r.ms.NoteBad(idx)
		return attemptResult{}, err
	}
	res := attemptResult{zone: z, serial: bundle.Serial}
	if haveZone && bundle.Serial <= serial {
		switch {
		case bundle.Supersession != nil && bundle.Supersession.Replaces == serial &&
			r.verifySupersession(bundle) == nil:
			tr.Eventf("supersession", "serial %d supersedes %d", bundle.Serial, serial)
			res.superseded = true
		case bundle.Serial == serial:
			r.trust.Observe(z, now)
			return attemptResult{serial: serial, chain: chain}, nil
		default:
			r.mu.Lock()
			r.rollbacks++
			r.mu.Unlock()
			r.ms.NoteBad(idx)
			tr.Eventf("rollback", "%s offered serial %d, installed %d", label, bundle.Serial, serial)
			return attemptResult{}, fmt.Errorf("%w (offered %d, installed %d)",
				ErrRollback, bundle.Serial, serial)
		}
	}
	// Feed the trust store only zones that are current or advancing. A
	// replayed old zone predates a pending key, and observing it would
	// restart the key's RFC 5011 add-hold-down — letting a stale mirror
	// indefinitely delay a rollover until the publisher's signing switch
	// strands the client.
	r.trust.Observe(z, now)
	res.chain = ChainAnchor(z)
	return res, nil
}

// tryDeltaChain fetches and applies a signed delta chain from one source.
// Any failure — fetch error, broken link, bad signature — reports false,
// sending the caller to the full-bundle path for this source.
func (r *Refresher) tryDeltaChain(ctx context.Context, tr *obs.Trace, ds DeltaSource,
	now time.Time, curZone *zone.Zone, chain [32]byte) (attemptResult, bool) {
	dsp := tr.StartSpan(obs.PhaseNet, "delta-fetch")
	dbs, err := ds.FetchDeltaChain(ctx, curZone.Serial())
	dsp.End()
	if err != nil {
		return attemptResult{}, false
	}
	if len(dbs) == 0 {
		// Already current: a delta-capable source positively confirmed our
		// serial is its latest.
		return attemptResult{serial: curZone.Serial(), chain: chain}, true
	}
	asp := tr.StartSpan(obs.PhaseAuth, "delta-apply")
	defer asp.End()
	anchors := r.trust.ValidKeys()
	z, ch := curZone, chain
	for _, db := range dbs {
		if db.ToSerial <= z.Serial() {
			err = fmt.Errorf("%w: link %d→%d does not advance", ErrRollback, db.FromSerial, db.ToSerial)
		} else {
			z2, _, applyErr := db.Apply(z, ch, anchors, now)
			if applyErr == nil {
				z, ch = z2, db.ToChain
				continue
			}
			err = applyErr
		}
		r.mu.Lock()
		r.chainFalls++
		r.mu.Unlock()
		tr.Eventf("delta-chain", "broken at %d→%d (%v); falling back to full bundle",
			db.FromSerial, db.ToSerial, err)
		return attemptResult{}, false
	}
	r.trust.Observe(z, now)
	return attemptResult{zone: z, serial: z.Serial(), chain: ch, deltaLinks: len(dbs)}, true
}

// verifyBundle checks a bundle's detached signature against the anchor
// store and parses the zone.
func (r *Refresher) verifyBundle(b *Bundle) (*zone.Zone, error) {
	if err := r.trust.VerifyDetached(b.Compressed, b.Signature); err != nil {
		return nil, fmt.Errorf("dist: bundle signature: %w", err)
	}
	return b.parse()
}

// verifySupersession checks a bundle's supersession statement against any
// valid trust anchor.
func (r *Refresher) verifySupersession(b *Bundle) error {
	var lastErr error = ErrRollback
	for _, key := range r.trust.ValidKeys() {
		if key.KeyTag() != b.Supersession.Signature.KeyTag {
			continue
		}
		return b.VerifySupersession(key)
	}
	return lastErr
}

func (r *Refresher) fail(now time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures++
	r.lastErr = err
	// Decorrelated jitter: delay = min(RetryCap, rand[Retry, 3·previous]).
	base, ceil := r.cfg.Retry, r.cfg.RetryCap
	prev := r.retryDelay
	if prev < base {
		prev = base
	}
	d := base
	if span := 3*prev - base; span > 0 {
		d = base + time.Duration(r.rng.Int63n(int64(span)+1))
	}
	if d > ceil {
		d = ceil
	}
	// Never schedule the retry past the copy's expiry: the final attempt
	// inside the freshness window always happens.
	if r.haveZone {
		if exp := r.obtained.Add(r.cfg.Expiry); now.Before(exp) && now.Add(d).After(exp) {
			d = exp.Sub(now)
		}
	}
	r.retryDelay = d
	r.nextTry = now.Add(d)
}

// Run drives Tick on real time until ctx is cancelled. Experiments use
// Tick directly with a virtual clock instead.
func (r *Refresher) Run(ctx context.Context) {
	for {
		r.Tick(ctx)
		r.mu.Lock()
		next := r.nextTry
		r.mu.Unlock()
		wait := next.Sub(r.cfg.Clock())
		if wait < time.Second {
			wait = time.Second
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}
