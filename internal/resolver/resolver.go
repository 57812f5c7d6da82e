// Package resolver implements an iterative recursive DNS resolver — the
// component the paper proposes to change. It supports four root modes:
//
//   - RootModeHints: the classic arrangement; bootstrap from the root
//     hints file and query root nameservers, with the SRTT-based root
//     server selection machinery real resolvers carry (§4 "Complexity").
//   - RootModePreload: read the whole local root zone into the cache as
//     pinned entries (§3, first implementation option).
//   - RootModeLookaside: consult the local root zone each time a root
//     nameserver would have been queried (§3, second option).
//   - RootModeLocalAuth: send root queries to a loopback authoritative
//     server carrying the root zone (§3, third option; RFC 7706).
//
// The resolver runs over an abstract Transport, so the same code drives
// the netsim simulated internet and real UDP sockets.
package resolver

import (
	"errors"
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"rootless/internal/cache"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
	"rootless/internal/overload"
	"rootless/internal/zone"
)

// RootMode selects how the resolver learns about the root of the namespace.
type RootMode int

// Root modes.
const (
	RootModeHints RootMode = iota
	RootModePreload
	RootModeLookaside
	RootModeLocalAuth
)

// String names the mode.
func (m RootMode) String() string {
	switch m {
	case RootModeHints:
		return "hints"
	case RootModePreload:
		return "preload"
	case RootModeLookaside:
		return "lookaside"
	case RootModeLocalAuth:
		return "localauth"
	}
	return fmt.Sprintf("mode%d", int(m))
}

// Transport sends one DNS query and returns the reply and round-trip cost.
// The query belongs to the caller again once Exchange returns: the
// resolver rebuilds it in place for its next query, so a transport keeps
// nothing of it past the call (a reply may still share its question).
type Transport interface {
	Exchange(dst netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error)
}

// TracedTransport is optionally implemented by transports that can carry
// a trace to the far side (netsim does), so authoritative-side spans —
// transit, auth handling, gate/RRL decisions — nest inside the
// resolver's attempt span. Wrapping transports should forward it.
type TracedTransport interface {
	ExchangeTraced(tr *obs.Trace, dst netip.Addr, query *dnswire.Message) (*dnswire.Message, time.Duration, error)
}

// Config configures a Resolver.
type Config struct {
	Mode RootMode
	// Hints is the root hints RRset (required for RootModeHints; used as
	// a last-resort fallback by other modes if no local zone is set).
	Hints []dnswire.RR
	// LocalZone is the local root zone copy (RootModePreload and
	// RootModeLookaside).
	LocalZone *zone.Zone
	// LocalAuthAddr is the loopback root server (RootModeLocalAuth).
	LocalAuthAddr netip.Addr
	// Transport carries queries; required.
	Transport Transport
	// Clock supplies time for cache TTLs; nil means time.Now.
	Clock func() time.Time
	// CacheCapacity bounds the cache in RRsets; 0 = unlimited.
	CacheCapacity int
	// QNameMinimisation sends only the germane name labels to each zone's
	// servers (RFC 7816), the §4 privacy mitigation we compare against.
	QNameMinimisation bool
	// MaxQueries bounds network queries per resolution (default 64).
	MaxQueries int
	// ServeStale answers from expired cache entries when every upstream
	// server fails (RFC 8767) — the incumbent robustness mechanism the
	// paper's local-root approach is compared against. StaleLimit bounds
	// how old a stale answer may be (default 24 h).
	ServeStale bool
	StaleLimit time.Duration
	// RetryBudget bounds failed attempts (timeouts and lame responses)
	// per resolution, independently of MaxQueries: a resolution may be
	// allowed 64 queries yet should not burn them all waiting out dead
	// servers. 0 = default 16; negative disables the budget.
	RetryBudget int
	// HoldDownAfter is how many consecutive failures trip a server's
	// hold-down circuit breaker (0 = default 3; negative disables all
	// per-server health tracking). HoldDown is the initial hold period
	// (default 30 s), doubling on each failed re-admission probe.
	HoldDownAfter int
	HoldDown      time.Duration
	// Coalesce merges concurrent identical (qname, qtype) resolutions:
	// one leader does the upstream work, everyone else shares its result
	// — the singleflight defence against thundering herds of cache
	// misses.
	Coalesce bool
	// MaxInflight bounds concurrently admitted upstream resolutions
	// (0 = unlimited). Cache hits, negative answers, and local root zone
	// consults are never gated: under a junk flood the resolver keeps
	// answering what it already knows and sheds only new upstream work.
	MaxInflight int
	// QueueDeadline is how long an over-capacity resolution may wait for
	// an admission slot before being shed (0 = shed immediately). Shed
	// resolutions still fall back to serve-stale when enabled.
	QueueDeadline time.Duration
	// NXDomainCut enables RFC 8020 aggressive negative caching: an
	// authoritative NXDOMAIN from the root zone proves the whole TLD
	// undelegated, so every later query under it is answered NXDOMAIN
	// from cache — the paper's 61 %-bogus workload mostly dies here.
	NXDomainCut bool
	// CacheShards sets the cache's lock-shard count (rounded down to a
	// power of two; 0 = cache.DefaultShards). One shard restores strict
	// global LRU order at the cost of reader contention.
	CacheShards int
	// Validate selects the DNSSEC validation policy: PolicyStrict turns
	// bogus answers into SERVFAIL-class errors and keeps them out of the
	// cache, PolicyPermissive counts them but serves them (without AD),
	// PolicyOff (the default) skips validation entirely.
	Validate validator.Policy
	// TrustAnchor is the DS-form trust anchor for the root zone, required
	// whenever Validate is not PolicyOff.
	TrustAnchor dnswire.DS
	// DNSSECSkew widens every RRSIG validity window on both ends to
	// tolerate bounded clock skew (0 = exact windows).
	DNSSECSkew time.Duration
	// NSECAggressive enables RFC 8198 aggressive use of validated NSEC
	// ranges: any qname falling in a proven denial range is answered
	// NXDOMAIN/NODATA from the cache with zero upstream queries. Requires
	// Validate (only validated NSECs are trusted); strictly subsumes the
	// observational NXDomainCut mechanism.
	NSECAggressive bool
	// ZoneExpiry enables staged staleness degradation for the local root
	// zone copy: its age is placed on the distribution freshness state
	// machine (fresh → aging → stale-serve → expired). While stale-serve,
	// local consults still answer but with TTLs capped at 30 s (staleTTLCap);
	// once expired, consults fail closed (SERVFAIL) — an expired copy must
	// not steer resolution. Zero (the default) disables staging and the
	// copy never expires, the pre-refresher behavior.
	ZoneExpiry time.Duration
	// ZoneRefresh is the fresh→aging boundary (default 7/8 of ZoneExpiry,
	// the paper's 42 h within the 48 h window).
	ZoneRefresh time.Duration
	// ZoneStaleFor is the stale-serve window past ZoneExpiry before the
	// copy is fully expired (default 0: expiry is final).
	ZoneStaleFor time.Duration
	// TracePropagate stamps an EDNS0 trace option (trace ID, parent span,
	// sampled flag) on upstream queries and grafts the span payload a
	// cooperating authoritative server returns, stitching a cross-process
	// trace. Off (the default) leaves queries byte-identical to a build
	// without propagation; it only takes effect on traced resolutions.
	TracePropagate bool
	// Seed makes server tie-breaking deterministic.
	Seed int64
}

// Stats counts resolver activity. Every counter the paper's experiments
// compare across root modes lives here. The resolver's own copy is only
// ever moved by atomic adds (see count), so counting takes no lock and
// queries answered on different cores share nothing but cache lines.
type Stats struct {
	Resolutions       int64
	Failures          int64
	CacheAnswers      int64 // resolutions answered fully from cache
	NegCacheAnswers   int64
	TotalQueries      int64 // network queries sent
	RootQueries       int64 // sent to root nameserver addresses
	LocalRootConsults int64 // local root zone consultations (lookaside)
	// Staged staleness outcomes for the local zone copy (PR 8).
	LocalStaleConsults   int64 // consults answered from a stale-serve copy (TTLs capped)
	LocalExpiredRefusals int64 // consults refused because the copy expired (fail closed)
	TLDQueries           int64 // sent to TLD servers
	OtherQueries         int64
	Timeouts             int64
	LameResponses        int64 // SERVFAIL/REFUSED answers from upstreams
	GlueChases           int64 // sub-resolutions for nameserver addresses
	StaleAnswers         int64 // resolutions served from expired cache entries
	ServerSelections     int64 // SRTT-based choices among multiple servers
	SRTTUpdates          int64
	CNAMEChases          int64
	HoldDowns            int64 // circuit-breaker trips (server held down)
	HeldDownSkips        int64 // candidate servers skipped while held down
	Probes               int64 // re-admission attempts after a hold-down
	RetryBudgetStops     int64 // resolutions aborted by the retry budget
	// Overload-protection outcomes (PR 3).
	CoalescedResolutions int64 // resolutions that shared another's in-flight result
	ShedResolutions      int64 // resolutions refused an admission slot
	NXDomainCutHits      int64 // queries answered by an RFC 8020 NXDOMAIN cut
	// DNSSEC validation outcomes (PR 7), per validated upstream response.
	SecureAnswers        int64 // responses whose chain of trust verified
	InsecureAnswers      int64 // responses from provably-unsigned zones
	BogusAnswers         int64 // responses that failed validation
	IndeterminateAnswers int64 // responses with no applicable chain state
	BogusRejected        int64 // bogus responses refused under PolicyStrict
	NSECSynthesized      int64 // queries answered from validated NSEC ranges (RFC 8198)
	DNSKEYFetches        int64 // DNSKEY sub-queries issued to establish zone keys
	// Records of upstream responses left out of the cache and the
	// delegation table by the bailiwick rule (PR 20).
	OutOfBailiwick int64
}

// Result is the outcome of one resolution.
type Result struct {
	Rcode   dnswire.Rcode
	Answers []dnswire.RR
	// Latency is the total (virtual) network time spent.
	Latency time.Duration
	// Queries is the number of network queries used.
	Queries int
	// FromCache reports a resolution that needed no network traffic.
	FromCache bool
	// AuthData reports that every step of this resolution validated
	// Secure — the resolver-side truth behind the response AD bit. Only
	// freshly-validated answers, NSEC-synthesized denials, and local-zone
	// answers from a VerifyZone-checked copy qualify; plain cache hits
	// are served without it (the cache does not record chain state).
	AuthData bool
}

// Errors. ErrAllServersFail wraps the last per-server cause, so callers
// can distinguish dead infrastructure from misconfigured infrastructure:
// errors.Is(err, ErrTimeout) vs errors.Is(err, ErrLame).
var (
	ErrBudgetExceeded = errors.New("resolver: query budget exceeded")
	ErrAllServersFail = errors.New("resolver: all nameservers failed")
	ErrNoRootConfig   = errors.New("resolver: no usable root configuration")
	ErrLame           = errors.New("resolver: lame or malformed delegation")
	ErrTimeout        = errors.New("resolver: upstream query timed out")
	ErrRetryBudget    = errors.New("resolver: retry budget exhausted")
	ErrOverloaded     = errors.New("resolver: shed by admission gate")
	ErrBogus          = errors.New("resolver: answer failed DNSSEC validation")
)

// localRoot is one installed copy of the root zone. It is replaced whole,
// never changed, so a consult reads the zone, its age and its validation
// verdict together from one pointer load.
type localRoot struct {
	zone   *zone.Zone
	loaded time.Time // when it was installed: what staleness is measured from
	// secure records that the copy passed whole-zone validation
	// (VerifyZone) at install, so answers consulted from it count as
	// Secure.
	secure bool
}

// Resolver is an iterative resolver with a shared cache. Safe for
// concurrent use: the daemon's front door answers from socket workers
// and from a pool of goroutines against a single shared resolver.
type Resolver struct {
	// stats comes first: 64-bit atomics want the alignment on 32-bit
	// platforms.
	stats Stats

	cfg   Config
	cache *cache.Cache

	// tracer records per-query walk traces when enabled; nil or disabled
	// costs one atomic load per resolution. latency is the hot-path HDR
	// latency summary wired in by Instrument (nil until then): log-linear
	// buckets, so p999/p9999 survive without per-sample memory.
	tracer  *obs.Tracer
	latency *obs.HDR

	// sloObserve, when set via SetSLOObserver, is called once per
	// completed top-level resolution with its outcome; the daemon wires
	// it to SLO trackers. flightRec, when set, receives a compact digest
	// of every resolution for post-incident dumps.
	sloObserve func(latency time.Duration, rcode dnswire.Rcode, err error)
	flightRec  *obs.FlightRecorder

	// traffic, when installed with SetTraffic, classifies every Resolve
	// call into the shared junk taxonomy and feeds the heavy-hitter /
	// cardinality sketches (a few tens of ns per call; nil = off).
	traffic *traffic.Analyzer

	// flight coalesces concurrent identical resolutions (nil when
	// Coalesce is off); gate bounds admitted upstream work (nil when
	// MaxInflight is 0). Both are internally synchronised.
	flight *overload.Flight[flightKey]
	gate   *overload.Gate

	// validator holds the DNSSEC chain-of-trust state (nil when
	// Config.Validate is PolicyOff).
	validator *validator.Validator

	// local is the root zone copy in use (nil when the mode carries none);
	// Config.LocalZone is only the copy New starts with.
	local atomic.Pointer[localRoot]

	rootAddrs map[netip.Addr]bool // read-only after New

	// cuts memoises delegations in front of the cache (delegation.go);
	// hints and loopback are the fixed starting points of the modes that
	// begin at a root server. Both are read-only after New.
	cuts     cutTable
	hints    *delegation
	loopback *delegation

	// mu guards what only upstream work touches. A query answered from
	// the cache or the local zone never takes it.
	mu       sync.Mutex
	rng      *rand.Rand // seeded: backoff jitter stays reproducible
	srtt     map[netip.Addr]time.Duration
	health   map[netip.Addr]*serverHealth // backoff/hold-down state
	inflight map[dnswire.Name]bool        // glue chases underway (loop guard)
}

// New creates a resolver. It panics if cfg.Transport is nil and the mode
// needs one (all modes do — even lookaside queries TLD servers).
func New(cfg Config) *Resolver {
	if cfg.Transport == nil {
		panic("resolver: Config.Transport is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.MaxQueries == 0 {
		cfg.MaxQueries = 64
	}
	if cfg.CacheShards == 0 {
		cfg.CacheShards = cache.DefaultShards
	}
	if cfg.ZoneExpiry > 0 && cfg.ZoneRefresh == 0 {
		cfg.ZoneRefresh = cfg.ZoneExpiry * 7 / 8
	}
	r := &Resolver{
		cfg:       cfg,
		cache:     cache.NewSharded(cfg.CacheCapacity, cfg.CacheShards, cfg.Clock),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		srtt:      make(map[netip.Addr]time.Duration),
		health:    make(map[netip.Addr]*serverHealth),
		rootAddrs: make(map[netip.Addr]bool),
		inflight:  make(map[dnswire.Name]bool),
		gate:      overload.NewGate(cfg.MaxInflight, cfg.QueueDeadline),
	}
	if cfg.Coalesce {
		r.flight = overload.NewFlight[flightKey]()
	}
	r.cuts.reset(0)
	if r.hints = newDelegation(dnswire.Root, dnswire.Root, cfg.Hints, cfg.Hints, time.Time{}); r.hints == nil {
		r.hints = &delegation{zone: dnswire.Root}
	}
	r.hints.expires = time.Time{}
	r.loopback = &delegation{zone: dnswire.Root, hosts: []dnswire.Name{"localroot."}, addrs: []netip.Addr{cfg.LocalAuthAddr}}
	for _, rr := range cfg.Hints {
		switch d := rr.Data.(type) {
		case dnswire.A:
			r.rootAddrs[d.Addr] = true
		case dnswire.AAAA:
			r.rootAddrs[d.Addr] = true
		}
	}
	if cfg.Validate != validator.PolicyOff {
		r.validator = validator.New(validator.Config{
			Anchor:     cfg.TrustAnchor,
			AnchorZone: dnswire.Root,
			Skew:       cfg.DNSSECSkew,
			Now:        cfg.Clock,
		})
	}
	if cfg.LocalZone != nil {
		r.SetLocalZone(cfg.LocalZone)
	}
	return r
}

// Cache exposes the resolver's cache for inspection by experiments.
func (r *Resolver) Cache() *cache.Cache { return r.cache }

// Stats returns a snapshot of the counters. Each is read atomically; a
// snapshot taken while queries run may show one counter a query ahead
// of another.
func (r *Resolver) Stats() Stats {
	var out Stats
	src, dst := reflect.ValueOf(&r.stats).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).SetInt(atomic.LoadInt64(src.Field(i).Addr().Interface().(*int64)))
	}
	return out
}

// Mode returns the configured root mode.
func (r *Resolver) Mode() RootMode { return r.cfg.Mode }

// SetLocalZone swaps in a fresh local root zone copy (after a refresh).
// In preload mode the new zone is re-pinned into the cache. With
// validation enabled the copy is re-verified against the trust anchor.
func (r *Resolver) SetLocalZone(z *zone.Zone) {
	r.local.Store(&localRoot{zone: z, loaded: r.cfg.Clock(), secure: r.verifyLocalZone(z)})
	r.cuts.drop() // the new copy may delegate differently
	if r.cfg.Mode == RootModePreload {
		r.PreloadRootZone(z)
	}
}

// verifyLocalZone runs the paper's §3 out-of-band validation path: the
// whole local root zone copy is checked against the trust anchor
// (DNSKEY chain, every RRSIG, NSEC chain links, ZONEMD digest). Answers
// consulted from a verified copy count as Secure without per-response
// work. Returns false — and the copy is served unvalidated, without AD
// — when validation is off or the zone does not verify.
func (r *Resolver) verifyLocalZone(z *zone.Zone) bool {
	if r.validator == nil || z == nil {
		return false
	}
	return dnssec.VerifyZone(z, r.cfg.TrustAnchor, r.cfg.Clock()) == nil
}

// LocalZoneStatus reports the local root zone copy's serial and staleness
// age — the §5.3 freshness metric /statusz surfaces. ok is false when the
// mode carries no local zone.
func (r *Resolver) LocalZoneStatus() (serial uint32, age time.Duration, ok bool) {
	lr := r.local.Load()
	if lr == nil {
		return 0, 0, false
	}
	return lr.zone.Serial(), r.cfg.Clock().Sub(lr.loaded), true
}

// ZoneFreshness places the local zone copy's age on the distribution
// staleness state machine. FreshnessNone when staging is disabled
// (Config.ZoneExpiry zero) or no local zone is installed.
func (r *Resolver) ZoneFreshness() dist.Freshness {
	if r.cfg.ZoneExpiry <= 0 {
		return dist.FreshnessNone
	}
	lr := r.local.Load()
	if lr == nil {
		return dist.FreshnessNone
	}
	return dist.FreshnessOf(r.cfg.Clock().Sub(lr.loaded),
		r.cfg.ZoneRefresh, r.cfg.ZoneExpiry, r.cfg.ZoneStaleFor)
}

// SetTracer installs a query tracer. Call before serving; a nil or
// disabled tracer leaves only an atomic load on the resolution path.
func (r *Resolver) SetTracer(t *obs.Tracer) { r.tracer = t }

// SetTraffic installs a streaming traffic analyzer. Call before serving.
func (r *Resolver) SetTraffic(a *traffic.Analyzer) { r.traffic = a }

// SetSLOObserver installs a per-resolution outcome callback (latency,
// rcode, error) for SLO tracking. Call before serving; the resolver
// stays ignorant of SLO semantics — the daemon decides what "good"
// means.
func (r *Resolver) SetSLOObserver(f func(latency time.Duration, rcode dnswire.Rcode, err error)) {
	r.sloObserve = f
}

// SetFlightRecorder installs a flight recorder receiving one compact
// digest per resolution. Call before serving.
func (r *Resolver) SetFlightRecorder(f *obs.FlightRecorder) { r.flightRec = f }

// Traffic returns the installed analyzer (nil when none).
func (r *Resolver) Traffic() *traffic.Analyzer { return r.traffic }

// TailLatencySeconds returns the resolver's HDR latency tail
// (obs.TailQuantiles: p50/p99/p999/p9999, in seconds) and whether
// Instrument has installed the underlying histogram.
func (r *Resolver) TailLatencySeconds() ([4]float64, bool) {
	if r.latency == nil {
		return [4]float64{}, false
	}
	return r.latency.TailSeconds(), true
}

// Instrument wires the resolver into reg: a scrape-time collector
// republishes the Stats counters, cache statistics and SRTT state size,
// and an HDR summary observes per-resolution latency on the hot path
// (≲1% relative error at every quantile, so the exposed p999/p9999 are
// real tail measurements rather than bucket-edge artifacts). If a
// tracer is installed, its per-phase attribution summaries are
// registered too (SetTracer first).
func (r *Resolver) Instrument(reg *obs.Registry) {
	r.latency = reg.HDRTimer("rootless_resolver_resolution_seconds",
		"total (possibly virtual) network latency per resolution", nil)
	r.tracer.InstrumentAttribution(reg)
	reg.AddCollector(r)
}

// Collect implements obs.Collector.
func (r *Resolver) Collect(reg *obs.Registry) {
	labels := obs.Labels{"mode": r.cfg.Mode.String()}
	obs.SetCountersFromStruct(reg, "rootless_resolver", "resolver activity", labels, r.Stats())
	reg.Gauge("rootless_resolver_srtt_entries",
		"per-server timing entries held (the §4 complexity metric)", labels).
		Set(float64(r.SRTTStateSize()))
	cuts := r.DelegationStats()
	reg.Gauge("rootless_resolver_delegation_entries",
		"zone cuts memoised in front of the RRset cache", labels).
		Set(float64(cuts.Entries))
	for _, c := range []struct {
		result string
		n      int64
	}{{"hit", cuts.Hits}, {"miss", cuts.Misses}, {"expired", cuts.Expired}} {
		reg.Counter("rootless_resolver_delegation_lookups_total",
			"searches for the closest known delegation, by what the table held: a live one, "+
				"none (derived from the cache or started at the root), or only expired ones",
			obs.Labels{"mode": r.cfg.Mode.String(), "result": c.result}).Set(c.n)
	}
	held, backing := r.HealthCounts()
	reg.Gauge("rootless_resolver_held_down_servers",
		"servers currently held down by the circuit breaker", labels).
		Set(float64(held))
	reg.Gauge("rootless_resolver_backoff_servers",
		"servers currently in failure backoff", labels).
		Set(float64(backing))
	if r.gate != nil {
		reg.Gauge("rootless_resolver_gate_in_use",
			"admission slots currently held by upstream resolutions", labels).
			Set(float64(r.gate.InUse()))
		reg.Gauge("rootless_resolver_gate_capacity",
			"admission slot capacity (Config.MaxInflight)", labels).
			Set(float64(r.gate.Capacity()))
		reg.Counter("rootless_resolver_gate_waited_total",
			"admissions that queued for a slot before proceeding", labels).
			Set(r.gate.Stats().Waited)
	}
	if r.flight != nil {
		reg.Gauge("rootless_resolver_coalesce_inflight",
			"distinct (qname,qtype) resolutions currently in flight", labels).
			Set(float64(r.flight.Inflight()))
	}
	if r.traffic != nil {
		r.traffic.Collect(reg)
	}
	if serial, age, ok := r.LocalZoneStatus(); ok {
		reg.Gauge("rootless_zone_serial", "local root zone serial", nil).Set(float64(serial))
		reg.Gauge("rootless_zone_age_seconds", "staleness age of the local root zone copy", nil).
			Set(age.Seconds())
		if r.cfg.ZoneExpiry > 0 {
			reg.Gauge("rootless_zone_freshness_state",
				"local zone staleness stage: 0 none, 1 fresh, 2 aging, 3 stale-serve, 4 expired", nil).
				Set(float64(r.ZoneFreshness()))
		}
	}
	r.cache.Collect(reg)
}

// PreloadRootZone loads every RRset of z into the cache as pinned entries
// — the paper's "place all records from the root zone file in the cache".
func (r *Resolver) PreloadRootZone(z *zone.Zone) {
	_, sets := dnswire.GroupRRsets(z.Records())
	for _, rrs := range sets {
		r.cache.Put(rrs, true) // the SOA too: it answers negative proofs
	}
	r.cuts.drop()
}

// count is the single mutation path for the counters: every write in the
// package is an inc inside a closure passed here (both pinned by
// TestAllCounterWritesUseCount), so no counter can be touched by anything
// but an atomic add.
func (r *Resolver) count(f func(*Stats)) { f(&r.stats) }

// inc moves one counter of the Stats a count closure was handed.
func inc(counter *int64, n int64) { atomic.AddInt64(counter, n) }

// randID draws a query ID from the runtime's per-thread generator: no
// lock, and not predictable from Config.Seed.
func randID() uint16 { return uint16(randv2.Uint32()) }

// srttFor reads one server's smoothed RTT estimate (0 when unknown).
func (r *Resolver) srttFor(addr netip.Addr) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srtt[addr]
}

// Resolve performs a full iterative resolution of (qname, qtype). What
// the resolver already knows is answered first, without touching the
// flight table or any lock shared with upstream work.
func (r *Resolver) Resolve(qname dnswire.Name, qtype dnswire.Type) (*Result, error) {
	var c chain
	tr, ok := r.resolveKnown(qname, qtype, &c)
	if !ok {
		return r.resolveUpstream(qname, qtype, tr)
	}
	a := new(answer)
	c.result(a)
	return &a.res, nil
}

// resolveUpstream resolves a question resolveKnown could not answer; tr is
// the trace resolveKnown began for it. With coalescing enabled, concurrent
// identical calls collapse onto one leader: it alone does the work, and
// every waiter shares its result. The leader starts over at the cache —
// the question was looked up before it joined the flight, and an earlier
// flight may have landed the answer since — so a question that goes
// upstream is looked up twice, which is what keeps a burst of one question
// down to one upstream resolution.
func (r *Resolver) resolveUpstream(qname dnswire.Name, qtype dnswire.Type, tr *obs.Trace) (*Result, error) {
	// Classify before the coalescing branch so waiters and duplicates
	// count toward the composition too (they are real arriving queries).
	var class string
	if r.traffic != nil {
		class = r.traffic.Observe(qname, qtype).String()
		tr.SetClass(class)
	}
	if r.flight == nil {
		return r.resolveTop(qname, qtype, class, tr)
	}
	var flightStart time.Time
	if tr != nil {
		flightStart = time.Now()
	}
	v, err, shared := r.flight.Do(flightKey{qname, qtype}, func() (any, error) {
		return r.resolveTop(qname, qtype, class, tr)
	})
	res, _ := v.(*Result)
	if res == nil {
		res = &Result{Rcode: dnswire.RcodeServFail}
	}
	if !shared {
		return res, err
	}
	// A waiter: count it as its own resolution (every Resolve call is
	// one) and hand back a copy so callers cannot alias each other.
	r.count(func(s *Stats) { inc(&s.Resolutions, 1); inc(&s.CoalescedResolutions, 1) })
	if tr != nil {
		// The waiter's whole life was spent blocked on the leader's
		// flight: charge it to overload_wait in the attribution.
		wsp := tr.StartSpan(obs.PhaseOverloadWait, "coalesce-wait")
		wsp.EndWithDuration(time.Since(flightStart))
		tr.Eventf("coalesced", "shared an in-flight resolution (rcode %s, %d RRs)",
			res.Rcode, len(res.Answers))
		tr.Finish(res.Rcode.String(), res.Latency, 0, err)
	}
	cp := *res
	return &cp, err
}

// flightKey keys the singleflight table by question.
type flightKey struct {
	name dnswire.Name
	typ  dnswire.Type
}

// resolveTop runs one top-level resolution: admission token, the end of
// the trace, and latency observation. Glue chases re-enter resolve
// directly, sharing the parent's token and trace.
func (r *Resolver) resolveTop(qname dnswire.Name, qtype dnswire.Type, class string, tr *obs.Trace) (*Result, error) {
	rs := r.newResolution(tr, nil)
	res, err := r.resolve(qname, qtype, rs)
	if rs.tok.held {
		r.gate.Release()
	}
	r.finish(tr, qtype, class, res, len(res.Answers), err)
	return res, err
}

// finish is the end of every top-level resolution, by whichever route it
// was answered: trace, latency, flight digest, SLO observation. answers
// is the record count of the response (a Result built only to be
// finished carries none).
func (r *Resolver) finish(tr *obs.Trace, qtype dnswire.Type, class string, res *Result, answers int, err error) {
	if tr != nil {
		tr.Finish(res.Rcode.String(), res.Latency, res.Queries, err)
	}
	if r.latency != nil {
		r.latency.RecordDuration(res.Latency)
	}
	if r.flightRec != nil {
		d := obs.FlightDigest{
			UnixNanos: r.cfg.Clock().UnixNano(),
			Class:     class,
			Qtype:     qtype.String(),
			Rcode:     res.Rcode.String(),
			LatencyNS: int64(res.Latency),
			Queries:   res.Queries,
			Answers:   answers,
			FromCache: res.FromCache,
			Shed:      errors.Is(err, ErrOverloaded),
		}
		if tr != nil {
			d.TraceID = obs.FormatTraceID(tr.ID())
		}
		if err != nil {
			d.Err = err.Error()
		}
		r.flightRec.Record(d)
	}
	// The SLO observer runs after the digest is recorded so a burn-rate
	// alert fired from inside it dumps a ring that already includes the
	// query that tripped the alert.
	if r.sloObserve != nil {
		r.sloObserve(res.Latency, res.Rcode, err)
	}
}

// gateToken tracks one top-level resolution's admission slot. The slot
// is claimed lazily at the first upstream need — cache hits, NXDOMAIN
// cuts, and local-zone consults never touch the gate — and held across
// glue chases and referral hops, so one resolution occupies at most one
// slot (a second claim could deadlock a full gate against its own
// sub-work). resolveTop releases it.
type gateToken struct {
	held bool
	shed bool // the gate refused; don't ask again this resolution
}

// admit claims the admission slot before upstream work. ErrOverloaded
// means this resolution is shed: the caller unwinds to iterate's error
// path, which still tries the serve-stale fallback (RFC 8767).
func (r *Resolver) admit(tok *gateToken, tr *obs.Trace) error {
	if r.gate == nil || tok.held {
		return nil
	}
	if !tok.shed {
		wsp := tr.StartSpan(obs.PhaseOverloadWait, "admission")
		ok := r.gate.Acquire()
		wsp.End()
		if ok {
			tok.held = true
			return nil
		}
		tok.shed = true
		r.count(func(s *Stats) { inc(&s.ShedResolutions, 1) })
		tr.Eventf("shed", "admission gate full; shedding upstream work")
	}
	return ErrOverloaded
}

// answer is a Result with room for a one-record answer: what a
// resolution hands back, in one allocation.
type answer struct {
	res Result
	one [1]dnswire.RR // res.Answers when the answer is one record
}

// resolution is the working state of one resolution that may go
// upstream, and the one allocation it makes for itself: its answer, and
// the query it sends, rebuilt in place for every hop, retry and DNSKEY
// fetch. A glue chase is a resolution of its own, sharing its parent's
// trace and admission slot.
type resolution struct {
	answer

	query    dnswire.Message
	question [1]dnswire.Question // query.Questions
	opt      [1]dnswire.RR       // query.Additional: the OPT record

	budget  int // network queries still allowed (Config.MaxQueries)
	retries int // failed attempts still allowed (Config.RetryBudget)
	tr      *obs.Trace
	// tok is the top-level resolution's admission slot: own, or the
	// parent's for a glue chase.
	tok *gateToken
	own gateToken
}

// newResolution starts a resolution; tok is the parent's admission slot
// for a glue chase, nil for a top-level resolution.
func (r *Resolver) newResolution(tr *obs.Trace, tok *gateToken) *resolution {
	rs := &resolution{budget: r.cfg.MaxQueries, retries: r.retryBudget(), tr: tr, tok: tok}
	if tok == nil {
		rs.tok = &rs.own
	}
	rs.res.Rcode = dnswire.RcodeServFail
	return rs
}

// ask rebuilds the query as a fresh one for (name, typ): a new ID, RD
// clear, EDNS at the default size with DO set. A reply may share the
// query's question section (rootbench's Fabric hands it back); the
// resolver never reads a reply's, so a reply still in use when the query
// is rebuilt — a referral being validated while its zone's DNSKEY set is
// fetched — loses nothing it needs.
func (rs *resolution) ask(name dnswire.Name, typ dnswire.Type) *dnswire.Message {
	rs.question[0] = dnswire.Question{Name: name, Type: typ, Class: dnswire.ClassINET}
	rs.query = dnswire.Message{ID: randID(), Opcode: dnswire.OpcodeQuery,
		Questions: rs.question[:], Additional: rs.opt[:0]}
	rs.query.SetEDNS(dnswire.DefaultEDNSSize, true) // fills opt: no allocation
	return &rs.query
}

// resolve is the trace-carrying resolution core (glue chases re-enter
// here so their events land in the parent's trace): a walk that may go
// upstream. The Result it returns is rs's.
func (r *Resolver) resolve(qname dnswire.Name, qtype dnswire.Type, rs *resolution) (*Result, error) {
	r.count(func(s *Stats) { inc(&s.Resolutions, 1) })
	var c chain
	err := r.walk(qname, qtype, rs.tr, func(cname dnswire.Name) (known, error) {
		target := qname
		if cname != "" {
			target = cname
		}
		k, err := r.iterate(target, qtype, rs)
		if err != nil {
			rs.tr.Eventf("fail", "%s: %v", target, err)
		}
		return k, err
	}, &c)
	r.commit(&c)
	if err != nil {
		r.count(func(s *Stats) { inc(&s.Failures, 1) })
		rs.res.Rcode = c.rcode
		return &rs.res, err
	}
	c.result(&rs.answer)
	return &rs.res, nil
}

// terminalCNAME reports whether rrs answers name only via a CNAME.
func terminalCNAME(rrs []dnswire.RR, name dnswire.Name) (dnswire.Name, bool) {
	var cn dnswire.Name
	for _, rr := range rrs {
		if rr.Name == name && rr.Type == dnswire.TypeCNAME {
			cn = rr.Data.(dnswire.CNAME).Target
		}
	}
	if cn == "" {
		return "", false
	}
	// If the set already contains records at the target, no chase needed.
	for _, rr := range rrs {
		if rr.Name == cn && rr.Type != dnswire.TypeCNAME {
			return "", false
		}
	}
	return cn, true
}

// iterate resolves one name nothing known answers, without following
// CNAMEs: from the closest delegation the resolver knows (or the root, per
// the mode) down to an answer, each referral's delegation handed to the
// next hop as it was built.
func (r *Resolver) iterate(qname dnswire.Name, qtype dnswire.Type, rs *resolution) (known, error) {
	tr := rs.tr
	cur := r.closestDelegation(qname)
	// floor is the name QNAME minimisation counts labels from: the zone
	// being asked, or deeper once an empty non-terminal has been met.
	floor := cur.zone
	for hop := 0; hop < 24; hop++ {
		if cur.local {
			if tr != nil {
				tr.Eventf("local-root", "consulting local zone for %s %s", qname, qtype)
			}
			asp := tr.StartSpan(obs.PhaseAuth, "local-root")
			lk := r.lookupLocalRoot(qname, qtype)
			lk.qname = qname
			next, k, done := r.applyLocalRoot(&lk)
			asp.End()
			if done {
				return k, nil
			}
			if tr != nil {
				tr.Eventf("referral", "local zone -> %s (%d servers)", next.zone, len(next.hosts))
			}
			cur, floor = next, next.zone
			continue
		}

		sentName, sentType := qname, qtype
		if r.cfg.QNameMinimisation {
			sentName, sentType = minimise(floor, qname, qtype)
		}
		if len(cur.addrs) == 0 {
			// No glue anywhere: chase one nameserver's address out of band.
			cur = r.chaseGlue(cur, rs)
		}
		resp, err := r.queryZoneServers(cur, sentName, sentType, rs)
		if err != nil {
			if rrs, ok := r.staleAnswer(qname, qtype); ok {
				if tr != nil {
					tr.Eventf("stale", "served %s %s from expired cache", qname, qtype)
				}
				return known{src: counted, rrs: rrs}, nil
			}
			return known{}, err
		}

		secure := false
		if r.validator != nil {
			vsp := tr.StartSpan(obs.PhaseValidate, "validate")
			outcome, verr := r.validateResponse(cur, sentName, sentType, resp, rs)
			vsp.End()
			if outcome == validator.Bogus && r.cfg.Validate == validator.PolicyStrict {
				// Strict policy: the answer is discarded before any of it
				// can reach the cache, and the resolution fails closed.
				r.count(func(s *Stats) { inc(&s.BogusRejected, 1) })
				return known{}, fmt.Errorf("%w: %w", ErrBogus, verr)
			}
			secure = outcome == validator.Secure
		}

		st := r.processResponse(cur, sentName, sentType, sentName == qname && sentType == qtype, resp, tr)
		if st.done {
			return known{src: counted, rcode: st.rcode, rrs: st.rrs, secure: secure}, nil
		}
		if tr != nil && st.next != cur {
			tr.Eventf("referral", "hop=%d %s -> %s (%d servers)", hop+1, cur.zone, st.next.zone, len(st.next.hosts))
		}
		cur, floor = st.next, st.floor
		if floor == "" {
			floor = qname // the next query goes out unminimised
		}
	}
	return known{}, ErrLame
}

// staleAnswer consults the expired cache when serve-stale is enabled.
func (r *Resolver) staleAnswer(qname dnswire.Name, qtype dnswire.Type) ([]dnswire.RR, bool) {
	if !r.cfg.ServeStale {
		return nil, false
	}
	limit := r.cfg.StaleLimit
	if limit == 0 {
		limit = 24 * time.Hour
	}
	if hit, ok := r.cache.GetStale(qname, qtype, limit); ok {
		r.count(func(s *Stats) { inc(&s.StaleAnswers, 1) })
		return hit.CopyRRs(), true
	}
	return nil, false
}

// queryZoneServers sends the (possibly minimised) query to the best
// servers of the current delegation until one answers, rebuilding rs's
// query for each attempt. Server order is
// SRTT with health overlaid: backing-off servers are demoted, held-down
// servers are skipped (or probed, once the hold-down expires). Each
// timeout or lame answer consumes one unit of the resolution's retry
// budget and feeds the server's backoff/hold-down state.
//
// The trace calls here are guarded, not just nil-safe: with tracing off
// an unguarded Eventf still boxes every argument, and did so eight times
// per cold miss.
func (r *Resolver) queryZoneServers(cur *delegation, sendName dnswire.Name, sendType dnswire.Type, rs *resolution) (*dnswire.Message, error) {
	tr := rs.tr
	// Everything past this point is upstream work: claim the admission
	// slot first (held for the rest of the resolution), shed if refused.
	if err := r.admit(rs.tok, tr); err != nil {
		return nil, err
	}
	if len(cur.addrs) == 0 {
		return nil, ErrAllServersFail
	}
	// The delegation is shared; ordering works on a copy, on the stack
	// for any delegation of ordinary width.
	var buf [16]netip.Addr
	addrs := append(buf[:0], cur.addrs...)
	r.orderBySRTT(addrs)
	candidates, heldCount, probes := r.planAttempts(addrs, r.cfg.Clock())
	if heldCount > 0 {
		r.count(func(s *Stats) { inc(&s.HeldDownSkips, int64(heldCount)) })
		if tr != nil {
			tr.Eventf("hold-down", "zone=%s skipping %d held-down servers", cur.zone, heldCount)
		}
	}
	if len(candidates) > 1 {
		r.count(func(s *Stats) { inc(&s.ServerSelections, 1) })
		if tr != nil { // srttFor takes the lock; skip entirely when not tracing
			tr.Eventf("select", "zone=%s picked %s by SRTT (%v) of %d servers",
				cur.zone, candidates[0], r.srttFor(candidates[0]), len(candidates))
		}
	}

	var lastErr error
	for attempt, addr := range candidates {
		if rs.budget <= 0 {
			return nil, ErrBudgetExceeded
		}
		rs.budget--
		q := rs.ask(sendName, sendType)
		if attempt > 0 && tr != nil {
			tr.Eventf("retry", "attempt=%d trying %s", attempt+1, addr)
		}
		if probes[addr] {
			r.count(func(s *Stats) { inc(&s.Probes, 1) })
			if tr != nil {
				tr.Eventf("probe", "re-admitting %s after hold-down", addr)
			}
		}

		r.count(func(s *Stats) {
			inc(&s.TotalQueries, 1)
			switch {
			case r.rootAddrs[addr] || (cur.zone.IsRoot() && r.cfg.Mode == RootModeHints):
				inc(&s.RootQueries, 1)
			case addr == r.cfg.LocalAuthAddr && r.cfg.Mode == RootModeLocalAuth:
				inc(&s.LocalRootConsults, 1)
			case cur.zone.LabelCount() == 1:
				inc(&s.TLDQueries, 1)
			default:
				inc(&s.OtherQueries, 1)
			}
		})

		if tr != nil {
			tr.Eventf("send", "%s %s -> %s (zone %s)", sendName, sendType, addr, cur.zone)
		}
		// The attempt span is charged the (possibly virtual) RTT rather
		// than wall time, and reclassified as backoff when the attempt
		// turns out to be wasted — a timeout or a lame answer is retry
		// cost, not productive network time.
		xsp := tr.StartSpan(obs.PhaseNet, "attempt")
		if xsp != nil {
			xsp.SetDetail(addr.String() + " zone " + string(cur.zone))
			if r.cfg.TracePropagate {
				q.SetTraceOption(dnswire.TraceContext{
					TraceID: tr.ID(), SpanID: xsp.SpanID(), Sampled: true,
				}, nil)
			}
		}
		resp, rtt, err := r.exchange(tr, addr, q)
		rs.res.Queries++
		rs.res.Latency += rtt
		if err != nil {
			xsp.SetPhase(obs.PhaseBackoff)
			xsp.EndWithDuration(rtt)
			r.count(func(s *Stats) { inc(&s.Timeouts, 1) })
			r.updateSRTT(addr, rtt, true)
			if tr != nil {
				tr.Eventf("timeout", "%s after %v: %v", addr, rtt, err)
			}
			lastErr = fmt.Errorf("%w: %v", ErrTimeout, err)
			if err := r.recordFailure(addr, &rs.retries, tr); err != nil {
				return nil, fmt.Errorf("%w: %w", err, lastErr)
			}
			continue
		}
		r.updateSRTT(addr, rtt, false)
		if resp.Rcode == dnswire.RcodeServFail || resp.Rcode == dnswire.RcodeRefused {
			xsp.SetPhase(obs.PhaseBackoff)
			xsp.EndWithDuration(rtt)
			r.count(func(s *Stats) { inc(&s.LameResponses, 1) })
			if tr != nil {
				tr.Eventf("lame", "%s from %s", resp.Rcode, addr)
			}
			lastErr = fmt.Errorf("%w: %s from %s", ErrLame, resp.Rcode, addr)
			if err := r.recordFailure(addr, &rs.retries, tr); err != nil {
				return nil, fmt.Errorf("%w: %w", err, lastErr)
			}
			continue
		}
		if nonDescendingReferral(cur.zone, resp) {
			// A lame referral burns the server, not the resolution: fail
			// over to the next candidate like any other lame answer.
			xsp.SetPhase(obs.PhaseBackoff)
			xsp.EndWithDuration(rtt)
			r.count(func(s *Stats) { inc(&s.LameResponses, 1) })
			if tr != nil {
				tr.Eventf("lame", "non-descending referral from %s", addr)
			}
			lastErr = fmt.Errorf("%w: non-descending referral from %s", ErrLame, addr)
			if err := r.recordFailure(addr, &rs.retries, tr); err != nil {
				return nil, fmt.Errorf("%w: %w", err, lastErr)
			}
			continue
		}
		r.noteSuccess(addr)
		xsp.EndWithDuration(rtt)
		if tr != nil {
			tr.Eventf("recv", "%s rtt=%v rcode=%s ans=%d auth=%d",
				addr, rtt, resp.Rcode, len(resp.Answers), len(resp.Authority))
		}
		return resp, nil
	}
	if lastErr == nil {
		lastErr = ErrTimeout
	}
	return nil, fmt.Errorf("%w: %w", ErrAllServersFail, lastErr)
}

// exchange sends one query through the transport, forwarding the trace
// when both ends support it so far-side spans (netsim transit, auth
// handling) nest inside the caller's attempt span.
func (r *Resolver) exchange(tr *obs.Trace, dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	if tr != nil {
		if tt, ok := r.cfg.Transport.(TracedTransport); ok {
			return tt.ExchangeTraced(tr, dst, q)
		}
	}
	resp, rtt, err := r.cfg.Transport.Exchange(dst, q)
	if err == nil && tr != nil && r.cfg.TracePropagate {
		// A cooperating far side ships its span tree back in the response
		// option; graft it under the in-flight attempt span so the stitched
		// tree shows auth-side work inside the exchange that paid for it.
		if _, payload, ok := resp.TraceOption(); ok && payload != nil {
			tr.GraftRemote(payload)
		}
	}
	return resp, rtt, err
}

// recordFailure feeds one failed attempt into the server's health state
// and the resolution's retry budget. A non-nil return (ErrRetryBudget)
// aborts the resolution.
func (r *Resolver) recordFailure(addr netip.Addr, retries *int, tr *obs.Trace) error {
	backoff, hold := r.noteFailure(addr, r.cfg.Clock())
	if hold > 0 {
		r.count(func(s *Stats) { inc(&s.HoldDowns, 1) })
		if tr != nil {
			tr.Eventf("hold-down", "tripped %s for %v", addr, hold)
		}
	} else if backoff > 0 && tr != nil {
		tr.Eventf("backoff", "%s backing off %v", addr, backoff)
	}
	*retries--
	if *retries > 0 {
		return nil
	}
	r.count(func(s *Stats) { inc(&s.RetryBudgetStops, 1) })
	if tr != nil {
		tr.Eventf("retry-budget", "exhausted at %s", addr)
	}
	return ErrRetryBudget
}

// nonDescendingReferral reports whether resp is a referral whose target
// zone does not properly descend from the queried zone — the classic
// misconfigured-secondary answer. Mirrors processResponse's terminal
// check, but detecting it per-server lets queryZoneServers fail over.
func nonDescendingReferral(zoneName dnswire.Name, resp *dnswire.Message) bool {
	return isReferral(resp) && !descends(referralCut(resp), zoneName)
}

// referralCut is the cut a referral announces: the owner of the first NS
// record in its Authority section ("" when there is none).
func referralCut(resp *dnswire.Message) dnswire.Name {
	for i := range resp.Authority {
		if resp.Authority[i].Type == dnswire.TypeNS {
			return resp.Authority[i].Name
		}
	}
	return ""
}

// descends reports whether cut lies properly below zoneName.
func descends(cut, zoneName dnswire.Name) bool {
	return cut != "" && cut != zoneName && cut.IsSubdomainOf(zoneName)
}

// minimise computes the QNAME-minimised (name, type) to send to servers
// of zone for the eventual target qname (RFC 7816).
func minimise(zoneName, qname dnswire.Name, qtype dnswire.Type) (dnswire.Name, dnswire.Type) {
	zl, ql := zoneName.LabelCount(), qname.LabelCount()
	if ql <= zl+1 {
		return qname, qtype
	}
	labels := qname.Labels()
	// Keep zl+1 trailing labels.
	keep := labels[len(labels)-(zl+1):]
	var name dnswire.Name = dnswire.Root
	for i := len(keep) - 1; i >= 0; i-- {
		child, err := name.Child(string(keep[i]))
		if err != nil {
			return qname, qtype
		}
		name = child
	}
	return name, dnswire.TypeNS
}

// step is what one upstream response means for the iteration: an end
// (rcode and records), or whose servers to ask next.
type step struct {
	done  bool
	rcode dnswire.Rcode
	rrs   []dnswire.RR
	next  *delegation
	// floor is the name QNAME minimisation counts labels from at next's
	// servers; "" asks for the full name to be sent.
	floor dnswire.Name
}

func terminal(rcode dnswire.Rcode, rrs []dnswire.RR) step {
	return step{done: true, rcode: rcode, rrs: rrs}
}

// processResponse classifies the response of one of cur's servers to
// (sentName, sentType) and takes from it what the bailiwick rule lets
// those servers say: the cache and the delegation table see nothing else.
// final reports that the question sent was the one being resolved, not a
// minimised step toward it.
func (r *Resolver) processResponse(cur *delegation, sentName dnswire.Name, sentType dnswire.Type, final bool, resp *dnswire.Message, tr *obs.Trace) step {
	rule := bailiwick{zone: cur.zone}
	switch {
	case resp.Rcode == dnswire.RcodeNXDomain:
		if soa := r.zoneSOA(cur, resp, tr); soa != nil {
			r.cache.PutNegative(sentName, sentType, *soa, true)
			// An NXDOMAIN whose SOA is the root zone's proves the TLD is
			// not delegated at all (the root would have referred
			// otherwise), so record an RFC 8020 cut at the TLD.
			if tld := sentName.TLD(); r.cfg.NXDomainCut && soa.Name.IsRoot() && !tld.IsRoot() {
				r.cache.PutNXDomainCut(tld, *soa)
			}
		}
		// NXDOMAIN for an ancestor name dooms the full qname too.
		return terminal(dnswire.RcodeNXDomain, nil)

	case len(resp.Answers) > 0:
		// A minimised intermediate answer may be the NS set of a cut we
		// asked about: descend to the servers it names. Its glue is
		// learned before the answer is cached — see learn.
		var next *delegation
		dropped := 0
		if !final {
			next, dropped = r.learn(sentName, cur.zone, resp.Answers, resp.Additional)
		}
		answers := resp.Answers
		if out := r.cacheSets(answers, rule.answer); out > 0 {
			dropped += out
			// What may not be cached may not be served either: a CNAME's
			// out-of-zone target is resolved where it lives.
			answers = make([]dnswire.RR, 0, len(resp.Answers)-out)
			for _, rr := range resp.Answers {
				if rr.Name.IsSubdomainOf(cur.zone) {
					answers = append(answers, rr)
				}
			}
		}
		r.countDropped(dropped, tr)
		switch {
		case final:
			return terminal(dnswire.RcodeSuccess, answers)
		case next != nil:
			return step{next: next, floor: next.zone}
		}
		// CNAME at an intermediate minimised name: rare; restart from
		// the full name against the same servers.
		return step{next: cur}

	case isReferral(resp):
		cut := referralCut(resp)
		// A referral that does not descend is lame; stop.
		if !descends(cut, cur.zone) {
			return terminal(dnswire.RcodeServFail, nil)
		}
		next, dropped := r.learn(cut, cur.zone, resp.Authority, resp.Additional)
		dropped += r.cacheSets(resp.Authority, rule.authority)
		r.countDropped(dropped, tr)
		if next == nil {
			return terminal(dnswire.RcodeServFail, nil)
		}
		return step{next: next, floor: next.zone}

	default:
		// NODATA. For a minimised intermediate name this means an empty
		// non-terminal: reveal one more label to the same servers.
		if !final {
			return step{next: cur, floor: sentName}
		}
		if soa := r.zoneSOA(cur, resp, tr); soa != nil {
			r.cache.PutNegative(sentName, sentType, *soa, false)
		}
		return terminal(dnswire.RcodeSuccess, nil)
	}
}

// zoneSOA is the SOA a negative answer from cur's servers carries, if it
// is one those servers may speak for: its negative TTL bounds the cache
// entry, and a root SOA records an NXDOMAIN cut, so a server below the
// root must not be able to supply either.
func (r *Resolver) zoneSOA(cur *delegation, resp *dnswire.Message, tr *obs.Trace) *dnswire.RR {
	soa := findSOA(resp.Authority)
	if soa != nil && !soa.Name.IsSubdomainOf(cur.zone) {
		r.countDropped(1, tr)
		return nil
	}
	return soa
}

func findSOA(rrs []dnswire.RR) *dnswire.RR {
	for i := range rrs {
		if rrs[i].Type == dnswire.TypeSOA {
			return &rrs[i]
		}
	}
	return nil
}

func isReferral(resp *dnswire.Message) bool {
	if resp.Authoritative || len(resp.Answers) > 0 {
		return false
	}
	for _, rr := range resp.Authority {
		if rr.Type == dnswire.TypeNS {
			return true
		}
	}
	return false
}

// orderBySRTT sorts candidate servers by smoothed RTT, unknown servers
// first at a small optimistic default so new servers get explored —
// the selection machinery §4 notes local-root modes can delete.
func (r *Resolver) orderBySRTT(addrs []netip.Addr) {
	const unknownSRTT = 30 * time.Millisecond
	if len(addrs) < 2 {
		return
	}
	// One read of each estimate under the lock; the sort runs outside it.
	var buf [16]time.Duration
	keys := buf[:0]
	r.mu.Lock()
	for _, a := range addrs {
		v, ok := r.srtt[a]
		if !ok {
			v = unknownSRTT
		}
		keys = append(keys, v)
	}
	r.mu.Unlock()
	for i := 1; i < len(addrs); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			addrs[j], addrs[j-1] = addrs[j-1], addrs[j]
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// maxSRTTEntries bounds the per-server timing and health tables. A cold
// stream of never-repeated names meets a new set of nameservers with every
// delegation, and an unbounded table grew by tens of megabytes a minute
// (resolver_cold: 41 MB after 800 K lookups). A server evicted here is
// simply unknown again: it gets the optimistic SRTT default, or is tried
// as healthy. Unbound bounds its infra cache the same way (10 000 hosts
// by default).
const maxSRTTEntries = 1 << 16

// makeRoom deletes an arbitrary entry from a per-server table that is at
// maxSRTTEntries, so that the caller's insert keeps it within the bound.
func makeRoom[V any](m map[netip.Addr]V) {
	if len(m) < maxSRTTEntries {
		return
	}
	for victim := range m {
		delete(m, victim)
		return
	}
}

// updateSRTT folds a measurement into the per-server estimate (EWMA with
// BIND-style decay; timeouts penalize multiplicatively).
func (r *Resolver) updateSRTT(addr netip.Addr, rtt time.Duration, timedOut bool) {
	r.count(func(s *Stats) { inc(&s.SRTTUpdates, 1) })
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.srtt[addr]
	if !ok {
		makeRoom(r.srtt)
	}
	switch {
	case timedOut && ok:
		r.srtt[addr] = old*2 + time.Second
	case timedOut:
		r.srtt[addr] = 10 * time.Second
	case ok:
		r.srtt[addr] = (old*7 + rtt*3) / 10
	default:
		r.srtt[addr] = rtt
	}
}

// SRTTStateSize returns how many per-server timing entries the resolver
// maintains (the §4 complexity metric).
func (r *Resolver) SRTTStateSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.srtt)
}
