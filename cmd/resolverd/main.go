// Command resolverd is a recursive DNS resolver daemon with selectable
// root mode — the component the paper proposes to change.
//
// Modes:
//
//	hints      classic: bootstrap from the root hints, query root servers
//	preload    load a local root zone file into the cache (§3 option 1)
//	lookaside  consult the local root zone per transaction (§3 option 2)
//	localauth  send root queries to a local authoritative server (RFC 7706)
//
// Usage:
//
//	resolverd -listen 127.0.0.1:5301 -mode lookaside -rootzone root.zone
//	resolverd -listen 127.0.0.1:5301 -mode localauth -localauth 127.0.0.1 -localauth-port 5300
//	resolverd -listen 127.0.0.1:5301 -mode hints -hints root.hints
//
// Multi-core serving:
//
//	-udp-workers N          parallel UDP workers (default GOMAXPROCS); on
//	                        Linux each worker owns an SO_REUSEPORT listener.
//	                        1 = exactly the classic single-socket loop
//	-udp-batch 8            datagrams moved per recvmmsg/sendmmsg syscall
//	                        (Linux amd64/arm64; 1 = single-datagram I/O)
//
// DNSSEC validation:
//
//	-validate off           strict | permissive | off: walk the chain of
//	                        trust from the anchor; strict turns bogus
//	                        answers into SERVFAIL, permissive only counts
//	-trust-anchor ta.key    root KSK DNSKEY in zone-file form (required
//	                        unless -validate off)
//	-nsec-aggressive        synthesize NXDOMAIN/NODATA from validated
//	                        NSEC ranges, RFC 8198 (needs -validate)
//	-dnssec-skew 0s         clock-skew tolerance for RRSIG validity windows
//
// Self-refreshing root zone copy (preload/lookaside modes):
//
//	-zone-mirrors URLs      comma-separated zonedist mirror base URLs; the
//	                        resolver fetches, verifies and installs the root
//	                        zone itself (signed delta chains with full-bundle
//	                        fallback, RFC 5011 trust-anchor rollover, rollback
//	                        protection, per-source quarantine). With this set,
//	                        -rootzone becomes an optional cold-start copy.
//	-zone-pub root.dnskey   publisher KSK in zone-file form, the initial
//	                        trust anchor (required with -zone-mirrors)
//	-zone-refresh 42h       planned interval between zone fetches
//	-zone-retry 1h          base retry pause after a failed fetch
//	-zone-expiry 48h        copy age at which staged staleness degrades:
//	                        fresh -> aging -> stale-serve -> expired
//	-zone-stale-for 12h     stale-serve window past expiry: root consults
//	                        still answer, with referral TTLs capped, before
//	                        the copy fails closed
//	-zone-cross-check 0     serial-stuck duration that triggers an
//	                        all-mirror sweep (freeze-attack defense;
//	                        0 = 2x refresh, negative disables)
//
// Overload protection:
//
//	-coalesce               share one upstream flight among concurrent
//	                        identical (qname, qtype) resolutions (default true)
//	-nxdomain-cut           answer queries under a TLD already proven
//	                        nonexistent from cache, RFC 8020 (default true)
//	-max-inflight 256       concurrent resolutions admitted to upstream work;
//	                        0 = unlimited. The front door's pool for
//	                        questions needing it holds 4x this many
//	                        (1024 when 0); past that, datagrams are shed
//	-queue-deadline 50ms    how long an over-capacity resolution may wait
//	                        for a slot before being shed (0 = fail fast)
//	-per-client-qps 0       token-bucket each stub client (0 = unlimited)
//
// Observability:
//
//	-admin 127.0.0.1:9153   HTTP admin endpoint: /metrics (Prometheus or
//	                        ?format=json), /healthz, /tracez, /statusz,
//	                        /timeseries, /topk
//	-trace                  record per-query resolution traces (view at /tracez)
//	-trace-slow 100ms       only keep traces at least this slow (0 = all)
//	-trace-ring 128         how many recent traces to retain
//	-trace-propagate        stamp upstream queries with an EDNS0 trace
//	                        option so a trace-enabled authd joins its spans
//	                        to ours; /tracez?traceid=<id> then shows the
//	                        stitched cross-process tree (needs -trace;
//	                        off = byte-identical queries on the wire)
//	-slo-latency-p99 0      latency SLO target: resolutions slower than
//	                        this burn the 1% error budget; multi-window
//	                        burn-rate alerting as rootless_slo_* (0 = off)
//	-slo-error-rate 0       error-rate SLO budget, the allowed
//	                        SERVFAIL/error fraction, e.g. 0.001 (0 = off)
//	-flight-recorder DIR    keep a fixed-memory ring of per-query digests,
//	                        served at /flightrecorder and dumped to DIR as
//	                        JSON on an SLO burn-rate alert or SIGUSR1
//	-flight-ring 4096       flight-recorder ring size (digests retained)
//	-traffic                classify queries into the junk taxonomy and track
//	                        heavy hitters — /topk, rootless_traffic_* metrics,
//	                        and class tags on /tracez traces (default true)
//	-traffic-topk 16        heavy-hitter table size (qnames and clients)
//	-timeseries 1s          record /metrics history at this interval for
//	                        /timeseries (0 disables; needs -admin)
//	-pprof                  mount net/http/pprof at /debug/pprof/ on -admin
//	-log-level info         debug | info | warn | error
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
	"rootless/internal/obs/tsdb"
	"rootless/internal/resolver"
	"rootless/internal/rootzone"
	"rootless/internal/udpengine"
	"rootless/internal/zone"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5301", "UDP listen address for stub queries")
	udpWorkers := flag.Int("udp-workers", runtime.GOMAXPROCS(0), "parallel UDP workers, each on its own SO_REUSEPORT listener on Linux (1 = classic single-socket loop)")
	udpBatch := flag.Int("udp-batch", 8, "datagrams moved per recvmmsg/sendmmsg syscall on Linux (1 = single-datagram I/O)")
	modeStr := flag.String("mode", "hints", "root mode: hints | preload | lookaside | localauth")
	rootZonePath := flag.String("rootzone", "", "local root zone file (preload/lookaside)")
	hintsPath := flag.String("hints", "", "root hints file (defaults to built-in hints)")
	localAuth := flag.String("localauth", "127.0.0.1", "local root server address (localauth mode)")
	localAuthPort := flag.Uint("localauth-port", 53, "local root server port (localauth mode)")
	qmin := flag.Bool("qmin", false, "enable QNAME minimisation")
	stale := flag.Bool("serve-stale", false, "serve expired cache entries when upstreams fail (RFC 8767)")
	cacheCap := flag.Int("cache", 0, "cache capacity in RRsets (0 = unlimited)")
	cacheShards := flag.Int("cache-shards", 0, "cache lock shards, rounded down to a power of two (0 = default; 1 = single global LRU)")
	timeout := flag.Duration("timeout", 3*time.Second, "upstream query timeout")
	retryBudget := flag.Int("retry-budget", 0, "failed upstream attempts allowed per resolution (0 = default 16, negative = unlimited)")
	holdDownAfter := flag.Int("holddown-after", 0, "consecutive failures before a server is held down (0 = default 3, negative disables health tracking)")
	holdDown := flag.Duration("holddown", 0, "base hold-down period for a tripped server (0 = default 30s)")
	zoneMirrors := flag.String("zone-mirrors", "", "comma-separated zonedist mirror URLs: self-refresh the local root zone (preload/lookaside)")
	zonePub := flag.String("zone-pub", "", "publisher KSK file, the initial trust anchor (required with -zone-mirrors)")
	zoneRefresh := flag.Duration("zone-refresh", 42*time.Hour, "planned interval between zone fetches")
	zoneRetry := flag.Duration("zone-retry", time.Hour, "base retry pause after a failed zone fetch")
	zoneExpiry := flag.Duration("zone-expiry", 48*time.Hour, "zone copy age at which staleness degrades toward fail-closed")
	zoneStaleFor := flag.Duration("zone-stale-for", 12*time.Hour, "stale-serve window past expiry before root consults fail closed")
	zoneCrossCheck := flag.Duration("zone-cross-check", 0, "serial-stuck duration triggering an all-mirror sweep (0 = 2x refresh, negative disables)")
	validateStr := flag.String("validate", "off", "DNSSEC validation policy: strict | permissive | off")
	anchorPath := flag.String("trust-anchor", "", "trust-anchor file: the root KSK DNSKEY in zone-file form")
	nsecAggressive := flag.Bool("nsec-aggressive", false, "synthesize denials from validated NSEC ranges (RFC 8198; needs -validate)")
	dnssecSkew := flag.Duration("dnssec-skew", 0, "clock-skew tolerance for RRSIG validity windows")
	coalesce := flag.Bool("coalesce", true, "coalesce concurrent identical resolutions into one upstream flight")
	nxCut := flag.Bool("nxdomain-cut", true, "serve NXDOMAIN from cache for anything under a TLD proven nonexistent (RFC 8020)")
	maxInflight := flag.Int("max-inflight", 256, "concurrent resolutions admitted to upstream work before shedding (0 = unlimited); the front door's miss pool holds 4x this (1024 when 0)")
	queueDeadline := flag.Duration("queue-deadline", 50*time.Millisecond, "max wait for an admission slot before a resolution is shed (0 = fail fast)")
	perClientQPS := flag.Float64("per-client-qps", 0, "token-bucket each stub client at this rate (0 = unlimited)")
	adminAddr := flag.String("admin", "", "HTTP admin address for /metrics, /healthz, /tracez, /statusz (e.g. 127.0.0.1:9153; empty to disable)")
	traceOn := flag.Bool("trace", false, "record per-query resolution traces")
	traceSlow := flag.Duration("trace-slow", 0, "retain only traces at least this slow (0 = all)")
	traceRing := flag.Int("trace-ring", 128, "recent traces to retain for /tracez")
	tracePropagate := flag.Bool("trace-propagate", false, "stamp upstream queries with an EDNS0 trace option so auth servers can join their spans (needs -trace)")
	sloLatencyP99 := flag.Duration("slo-latency-p99", 0, "latency SLO target: resolutions slower than this burn the 1% error budget (0 disables)")
	sloErrorRate := flag.Float64("slo-error-rate", 0, "error-rate SLO budget, the allowed SERVFAIL/error fraction, e.g. 0.001 (0 disables)")
	flightDir := flag.String("flight-recorder", "", "directory for flight-recorder dumps; enables the digest ring, /flightrecorder, SIGUSR1 and SLO-burn dumps")
	flightRing := flag.Int("flight-ring", 4096, "flight-recorder ring size (recent query digests retained)")
	trafficOn := flag.Bool("traffic", true, "classify queries into the junk taxonomy (/topk, rootless_traffic_*)")
	trafficTopK := flag.Int("traffic-topk", 16, "heavy-hitter table size for /topk")
	tsInterval := flag.Duration("timeseries", time.Second, "metric history recording interval for /timeseries (0 disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers at /debug/pprof/ on the admin endpoint")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, "resolverd", *logLevel)

	var mode resolver.RootMode
	switch *modeStr {
	case "hints":
		mode = resolver.RootModeHints
	case "preload":
		mode = resolver.RootModePreload
	case "lookaside":
		mode = resolver.RootModeLookaside
	case "localauth":
		mode = resolver.RootModeLocalAuth
	default:
		fatal("unknown -mode %q", *modeStr)
	}

	policy, err := validator.ParsePolicy(*validateStr)
	if err != nil {
		fatal("%v", err)
	}
	var anchor dnswire.DS
	if policy != validator.PolicyOff {
		if *anchorPath == "" {
			fatal("-validate %s requires -trust-anchor", policy)
		}
		f, err := os.Open(*anchorPath)
		if err != nil {
			fatal("%v", err)
		}
		key, err := dnssec.ReadPublicKey(f)
		f.Close()
		if err != nil {
			fatal("parsing trust anchor: %v", err)
		}
		anchor = dnssec.AnchorDS(dnswire.Root, key)
	} else if *nsecAggressive {
		fatal("-nsec-aggressive needs -validate strict or permissive (synthesis requires validated NSEC records)")
	}

	transport := &resolver.UDPTransport{Timeout: *timeout}
	cfg := resolver.Config{
		Mode:              mode,
		Transport:         transport,
		QNameMinimisation: *qmin,
		ServeStale:        *stale,
		CacheCapacity:     *cacheCap,
		CacheShards:       *cacheShards,
		RetryBudget:       *retryBudget,
		HoldDownAfter:     *holdDownAfter,
		HoldDown:          *holdDown,
		Coalesce:          *coalesce,
		NXDomainCut:       *nxCut,
		Validate:          policy,
		TrustAnchor:       anchor,
		DNSSECSkew:        *dnssecSkew,
		NSECAggressive:    *nsecAggressive,
		MaxInflight:       *maxInflight,
		QueueDeadline:     *queueDeadline,
		TracePropagate:    *tracePropagate,
	}

	// Hints: from file, or the built-in 13-letter set.
	if *hintsPath != "" {
		f, err := os.Open(*hintsPath)
		if err != nil {
			fatal("%v", err)
		}
		hz, err := zone.Parse(f, dnswire.Root)
		f.Close()
		if err != nil {
			fatal("parsing hints: %v", err)
		}
		cfg.Hints = hz.Records()
	} else {
		cfg.Hints = rootzone.Hints()
	}

	switch mode {
	case resolver.RootModePreload, resolver.RootModeLookaside:
		if *rootZonePath == "" && *zoneMirrors == "" {
			fatal("-mode %s requires -rootzone or -zone-mirrors", mode)
		}
		if *rootZonePath != "" {
			z, err := loadZone(*rootZonePath)
			if err != nil {
				fatal("%v", err)
			}
			cfg.LocalZone = z
			logger.Info("loaded local root zone", "serial", z.Serial(), "records", z.Len())
		}
		if *zoneMirrors != "" {
			// Staged staleness only engages when the copy is supposed to
			// refresh itself; a hand-loaded zone file keeps the old
			// serve-forever behavior.
			cfg.ZoneExpiry = *zoneExpiry
			cfg.ZoneRefresh = *zoneRefresh
			cfg.ZoneStaleFor = *zoneStaleFor
		}
	case resolver.RootModeLocalAuth:
		addr, err := netip.ParseAddr(*localAuth)
		if err != nil {
			fatal("bad -localauth: %v", err)
		}
		cfg.LocalAuthAddr = addr
		if *localAuthPort != 53 {
			transport.PortOverrides = map[netip.Addr]uint16{addr: uint16(*localAuthPort)}
		}
	}

	r := resolver.New(cfg)
	if policy != validator.PolicyOff {
		logger.Info("DNSSEC validation enabled", "policy", policy.String(),
			"nsec_aggressive", *nsecAggressive, "skew", *dnssecSkew)
	}
	srv := resolver.NewServer(r)
	if *perClientQPS > 0 {
		srv.SetClientLimit(*perClientQPS, 0)
		logger.Info("per-client limit enabled", "qps", *perClientQPS)
	}

	tracer := obs.NewTracer(*traceRing, *traceSlow)
	tracer.SetEnabled(*traceOn)
	r.SetTracer(tracer)
	if *traceOn {
		logger.Info("query tracing enabled", "ring", *traceRing, "slow_threshold", *traceSlow)
	}
	if *tracePropagate {
		if !*traceOn {
			fatal("-trace-propagate needs -trace (there is no local trace to stitch into)")
		}
		logger.Info("trace propagation enabled", "edns0_option", dnswire.OptionCodeTrace)
	}

	var flight *obs.FlightRecorder
	if *flightDir != "" {
		flight = obs.NewFlightRecorder(*flightRing, *flightDir)
		r.SetFlightRecorder(flight)
		logger.Info("flight recorder enabled", "ring", *flightRing, "dir", *flightDir)
	}
	var watchdog *obs.Watchdog
	if *sloLatencyP99 > 0 || *sloErrorRate > 0 {
		watchdog = obs.NewWatchdog(nil)
		var latSLO, errSLO *obs.SLOTracker
		if *sloLatencyP99 > 0 {
			latSLO = watchdog.Add(obs.SLOConfig{Name: "latency_p99", Budget: 0.01})
		}
		if *sloErrorRate > 0 {
			errSLO = watchdog.Add(obs.SLOConfig{Name: "errors", Budget: *sloErrorRate})
		}
		target := *sloLatencyP99
		r.SetSLOObserver(func(lat time.Duration, rcode dnswire.Rcode, err error) {
			// Trackers are nil-safe; an error counts against both SLOs.
			latSLO.Observe(err == nil && lat <= target)
			errSLO.Observe(err == nil && rcode != dnswire.RcodeServFail)
		})
		watchdog.OnAlert(func(name string, fast, slow float64) {
			logger.Warn("SLO burn-rate alert", "slo", name, "burn_fast", fast, "burn_slow", slow)
			if path, err := flight.Dump("slo-burn:" + name); err != nil {
				logger.Error("flight-recorder dump", "err", err)
			} else if path != "" {
				logger.Warn("flight recorder dumped", "path", path)
			}
		})
		logger.Info("SLO watchdog enabled",
			"latency_p99", *sloLatencyP99, "error_budget", *sloErrorRate)
	}
	if flight != nil {
		usr1 := make(chan os.Signal, 1)
		signal.Notify(usr1, syscall.SIGUSR1)
		go func() {
			for range usr1 {
				if path, err := flight.Dump("sigusr1"); err != nil {
					logger.Error("flight-recorder dump", "err", err)
				} else {
					logger.Info("flight recorder dumped", "path", path)
				}
			}
		}()
	}

	var analyzer *traffic.Analyzer
	if *trafficOn {
		// The junk taxonomy needs the valid-TLD universe: the local root
		// zone copy when this mode carries one, the modeled corpus otherwise.
		var tlds []dnswire.Name
		if cfg.LocalZone != nil {
			tlds = cfg.LocalZone.Delegations()
		} else {
			for _, t := range rootzone.TLDsAt(time.Now()) {
				tlds = append(tlds, t.Name)
			}
		}
		analyzer = traffic.NewAnalyzer(traffic.NewTLDSet(tlds), *trafficTopK)
		r.SetTraffic(analyzer)
		logger.Info("traffic analysis enabled", "tlds", len(tlds), "topk", *trafficTopK)
	}

	eng, err := udpengine.New(udpengine.Config{
		Addr:      *listen,
		Workers:   *udpWorkers,
		Batch:     *udpBatch,
		Handler:   srv.DatagramHandler(),
		MaxPacket: 64 * 1024,
	})
	if err != nil {
		fatal("listen: %v", err)
	}
	logger.Info("listening", "mode", mode.String(), "addr", eng.LocalAddr().String(),
		"udp_workers", eng.Workers(), "udp_batch", eng.Batch(), "reuseport", eng.ReusePort())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var refresher *dist.Refresher
	if *zoneMirrors != "" {
		if mode != resolver.RootModePreload && mode != resolver.RootModeLookaside {
			fatal("-zone-mirrors needs -mode preload or lookaside (the modes that carry a local zone copy)")
		}
		if *zonePub == "" {
			fatal("-zone-mirrors requires -zone-pub (the publisher's DNSKEY)")
		}
		f, err := os.Open(*zonePub)
		if err != nil {
			fatal("%v", err)
		}
		ksk, err := dnssec.ReadPublicKey(f)
		f.Close()
		if err != nil {
			fatal("parsing -zone-pub: %v", err)
		}
		var sources []dist.Source
		for _, m := range strings.Split(*zoneMirrors, ",") {
			sources = append(sources, dist.NewHTTPClient(strings.TrimSpace(m)))
		}
		refresher, err = dist.NewRefresher(dist.RefresherConfig{
			Source:    sources[0],
			Fallbacks: sources[1:],
			Trust:     dist.NewTrustAnchors(0, ksk),
			Install: func(z *zone.Zone) error {
				r.SetLocalZone(z)
				logger.Info("installed root zone", "serial", z.Serial(), "records", z.Len())
				return nil
			},
			Refresh:    *zoneRefresh,
			Retry:      *zoneRetry,
			Expiry:     *zoneExpiry,
			StaleFor:   *zoneStaleFor,
			CrossCheck: *zoneCrossCheck,
			Tracer:     tracer,
		})
		if err != nil {
			fatal("zone refresher: %v", err)
		}
		// Synchronous first fetch: without a -rootzone cold-start copy the
		// resolver has nothing to serve until a mirror answers.
		refresher.Tick(ctx)
		if st := refresher.State(); !st.HaveZone && cfg.LocalZone == nil {
			fatal("initial zone fetch failed: %v", st.LastErr)
		}
		go refresher.Run(ctx)
		logger.Info("zone refresher started", "mirrors", len(sources),
			"refresh", *zoneRefresh, "expiry", *zoneExpiry, "stale_for", *zoneStaleFor)
	}

	if *adminAddr != "" {
		start := time.Now()
		reg := obs.NewRegistry()
		r.Instrument(reg)
		reg.AddCollector(srv)
		reg.AddCollector(tracer)
		reg.AddCollector(eng)
		if refresher != nil {
			reg.AddCollector(refresher)
		}
		if watchdog != nil {
			watchdog.Collect(reg)
		}
		if flight != nil {
			flight.Collect(reg)
		}
		obs.RegisterProcessMetrics(reg, start)
		if mode == resolver.RootModeHints {
			// Hints mode still leans on the root-server fleet; expose the
			// modeled deployment it depends on next to the traffic counters.
			reg.AddCollector(anycast.DeploymentCollector{})
		}
		admin := &obs.Admin{
			Registry: reg,
			Tracer:   tracer,
			Pprof:    *pprofOn,
		}
		if analyzer != nil {
			admin.TopK = analyzer.Handler()
		}
		if flight != nil {
			admin.Flight = flight.Handler()
		}
		if *tsInterval > 0 {
			rec := tsdb.NewRecorder(reg, tsdb.Options{Interval: *tsInterval})
			admin.Timeseries = rec
			go rec.Run(ctx)
		}
		base := statusFunc(r, refresher, tracer, watchdog, flight, mode, policy, start)
		admin.Status = func() map[string]any {
			doc := base()
			for k, v := range eng.StatusDoc() {
				doc[k] = v
			}
			// What became of each datagram, drops by reason. (A pool
			// hand-off is also an engine udp_async_replies.)
			door := srv.FrontDoorStats()
			doc["frontdoor_sync"] = door.Sync
			doc["frontdoor_pool"] = door.Pool
			doc["frontdoor_shed"] = door.Shed
			doc["frontdoor_malformed"] = door.Malformed
			doc["frontdoor_limited"] = door.Limited
			return doc
		}
		go func() {
			if err := admin.ListenAndServe(ctx, *adminAddr, logger); err != nil {
				logger.Error("admin server", "err", err)
			}
		}()
	}

	if err := eng.Serve(ctx); err != nil {
		fatal("%v", err)
	}
	st := r.Stats()
	logger.Info("shutdown",
		"resolutions", st.Resolutions, "cache_answers", st.CacheAnswers,
		"upstream_queries", st.TotalQueries, "root_queries", st.RootQueries,
		"local_root_consults", st.LocalRootConsults)
}

func statusFunc(r *resolver.Resolver, refresher *dist.Refresher, tracer *obs.Tracer, watchdog *obs.Watchdog, flight *obs.FlightRecorder, mode resolver.RootMode, policy validator.Policy, start time.Time) func() map[string]any {
	return func() map[string]any {
		st := r.Stats()
		status := map[string]any{
			"component":        "resolverd",
			"mode":             mode.String(),
			"resolutions":      st.Resolutions,
			"cache_answers":    st.CacheAnswers,
			"upstream_queries": st.TotalQueries,
			"root_queries":     st.RootQueries,
			"coalesced":        st.CoalescedResolutions,
			"shed":             st.ShedResolutions,
			"nxdomain_cut":     st.NXDomainCutHits,
			"cache_rrsets":     r.Cache().Len(),
			"cache_pinned":     r.Cache().PinnedLen(),
			"srtt_entries":     r.SRTTStateSize(),
			"uptime_seconds":   time.Since(start).Seconds(),
			"tracing":          tracer.Enabled(),
		}
		// The hop budget: a miss under a known cut starts from the
		// delegation table, not from the RRset cache.
		cuts := r.DelegationStats()
		status["delegation_entries"] = cuts.Entries
		status["delegation_hits"] = cuts.Hits
		status["delegation_misses"] = cuts.Misses
		status["delegation_expired"] = cuts.Expired
		status["out_of_bailiwick"] = st.OutOfBailiwick
		if tail, ok := r.TailLatencySeconds(); ok {
			status["latency_p50"] = tail[0]
			status["latency_p99"] = tail[1]
			status["latency_p999"] = tail[2]
			status["latency_p9999"] = tail[3]
		}
		if watchdog != nil {
			status["slo"] = watchdog.Status()
		}
		if flight != nil {
			status["flight_recorded"] = flight.Seen()
			status["flight_dumps"] = flight.Dumps()
		}
		if policy != validator.PolicyOff {
			status["validate"] = policy.String()
			status["secure_answers"] = st.SecureAnswers
			status["insecure_answers"] = st.InsecureAnswers
			status["bogus_answers"] = st.BogusAnswers
			status["bogus_rejected"] = st.BogusRejected
			status["nsec_ranges"] = r.Cache().NSECRangeLen()
			status["nsec_synthesized"] = st.NSECSynthesized
		}
		if an := r.Traffic(); an != nil {
			status["junk_share"] = an.JunkShare()
			status["unique_qnames"] = an.UniqueQnames()
		}
		if serial, age, ok := r.LocalZoneStatus(); ok {
			// The §5.3 staleness metric: how old is our root copy?
			status["zone_serial"] = serial
			status["zone_age_seconds"] = age.Seconds()
		}
		if refresher != nil {
			rst := refresher.State()
			status["zone_freshness"] = r.ZoneFreshness().String()
			status["zone_fetches"] = rst.Fetches
			status["zone_fetch_failures"] = rst.Failures
			status["zone_installs"] = rst.Installs
			status["zone_delta_installs"] = rst.DeltaInstalls
			status["zone_chain_fallbacks"] = rst.ChainFallbacks
			status["zone_rollbacks_rejected"] = rst.RollbacksRejected
			status["zone_cross_checks"] = rst.CrossChecks
			status["zone_source_quarantines"] = rst.Quarantines
			status["zone_trust_anchors_valid"] = rst.Trust.Valid
			status["zone_trust_anchors_pending"] = rst.Trust.Pending
			status["zone_trust_rollovers"] = rst.Trust.Rollovers
		}
		return status
	}
}

func loadZone(path string) (*zone.Zone, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".gz") {
		return zone.Decompress(data, dnswire.Root)
	}
	return zone.Parse(bytes.NewReader(data), dnswire.Root)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "resolverd: "+format+"\n", args...)
	os.Exit(1)
}
