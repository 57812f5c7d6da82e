// Command authd is an authoritative DNS server: it loads a zone file and
// answers queries over UDP and TCP (including AXFR and IXFR). Pointing a
// resolver at an authd instance loaded with the root zone is the RFC 7706
// "local root on loopback" arrangement from §3 of the paper.
//
// With -primary, authd instead runs as a replicating secondary: it
// bootstraps the zone with AXFR from the primary, listens for NOTIFY
// pushes, and rides serial changes with IXFR — a self-maintaining local
// root instance.
//
// Usage:
//
//	authd -zone root.zone -origin . -udp 127.0.0.1:5300 -tcp 127.0.0.1:5300
//	authd -primary 127.0.0.1:5300 -origin . -udp 127.0.0.1:5310 -notify 127.0.0.1:5311
//
// Multi-core serving:
//
//	-udp-workers N          parallel UDP workers (default GOMAXPROCS); on
//	                        Linux each worker owns an SO_REUSEPORT listener
//	                        and the kernel flow-hashes clients across them.
//	                        1 = exactly the classic single-socket loop
//	-udp-batch 8            datagrams moved per recvmmsg/sendmmsg syscall
//	                        (Linux amd64/arm64; 1 = single-datagram I/O)
//
// Overload protection:
//
//	-max-inflight 512       concurrent queries admitted; 0 = unlimited
//	-queue-deadline 20ms    how long an over-capacity query may wait for a
//	                        slot before being dropped (0 = fail fast)
//	-per-client-qps 0       token-bucket each client address (0 = unlimited)
//	-rrl-rate 0             response-rate-limit identical responses per
//	                        second per client /24 (0 = disabled)
//	-rrl-slip 2             let every Nth RRL-suppressed response out
//	                        truncated so real clients can retry over TCP
//	                        (0 = drop all suppressed responses)
//
// Observability:
//
//	-admin 127.0.0.1:9154   HTTP admin endpoint: /metrics, /healthz, /statusz,
//	                        /tracez, /timeseries, /topk
//	-trace                  join EDNS0-propagated traces from resolvers
//	                        running -trace-propagate, and record the auth-side
//	                        span tree for /tracez?traceid=<id>
//	-trace-ring 128         how many recent joined traces to retain
//	-latency                observe per-query handle latency into an HDR
//	                        summary (rootless_authserver_handle_seconds
//	                        p50/p99/p999/p9999; needs -admin)
//	-traffic                classify arriving queries into the junk taxonomy
//	                        against the served zone's delegations (default true)
//	-traffic-topk 16        heavy-hitter table size (qnames and clients)
//	-timeseries 1s          record /metrics history for /timeseries (0 disables)
//	-pprof                  mount net/http/pprof at /debug/pprof/ on -admin
//	-log-level info         debug | info | warn | error
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
	"rootless/internal/obs/tsdb"
	"rootless/internal/udpengine"
	"rootless/internal/zone"
)

func main() {
	zonePath := flag.String("zone", "root.zone", "zone file to serve")
	originStr := flag.String("origin", ".", "zone origin")
	udpAddr := flag.String("udp", "127.0.0.1:5300", "UDP listen address (empty to disable)")
	udpWorkers := flag.Int("udp-workers", runtime.GOMAXPROCS(0), "parallel UDP workers, each on its own SO_REUSEPORT listener on Linux (1 = classic single-socket loop)")
	udpBatch := flag.Int("udp-batch", 8, "datagrams moved per recvmmsg/sendmmsg syscall on Linux (1 = single-datagram I/O)")
	tcpAddr := flag.String("tcp", "127.0.0.1:5300", "TCP listen address (empty to disable)")
	ixfr := flag.Int("ixfr", 8, "IXFR journal window in zone versions (0 to disable)")
	tcpTimeout := flag.Duration("tcp-timeout", 0, "per-read/write TCP deadline, also bounds AXFR/IXFR stream writes (0 = default 30s)")
	primaryAddr := flag.String("primary", "", "run as a secondary: AXFR/IXFR from this primary (host:port, TCP)")
	notifyAddr := flag.String("notify", "", "secondary mode: UDP address to receive NOTIFY pushes on")
	maxInflight := flag.Int("max-inflight", 512, "concurrent queries admitted before shedding (0 = unlimited)")
	queueDeadline := flag.Duration("queue-deadline", 20*time.Millisecond, "max wait for an admission slot before a query is dropped (0 = fail fast)")
	perClientQPS := flag.Float64("per-client-qps", 0, "token-bucket each client address at this rate (0 = unlimited)")
	rrlRate := flag.Int("rrl-rate", 0, "response rate limit: identical responses per second per client /24 (0 = disabled)")
	rrlSlip := flag.Int("rrl-slip", 2, "let every Nth RRL-suppressed response out truncated (0 = drop all)")
	ansCache := flag.Int("answer-cache", authserver.DefaultAnswerCacheSize, "precompiled-answer cache capacity in entries: answers, referrals and NODATA, never NXDOMAIN or truncated replies (0 to disable, along with the per-NSEC denial memo)")
	adminAddr := flag.String("admin", "", "HTTP admin address for /metrics, /healthz, /statusz (e.g. 127.0.0.1:9154; empty to disable)")
	traceOn := flag.Bool("trace", false, "join EDNS0-propagated traces from resolvers and serve them at /tracez")
	traceRing := flag.Int("trace-ring", 128, "recent joined traces to retain for /tracez")
	latencyOn := flag.Bool("latency", false, "observe per-query handle latency as an HDR summary (needs -admin)")
	trafficOn := flag.Bool("traffic", true, "classify arriving queries into the junk taxonomy (/topk, rootless_traffic_*)")
	trafficTopK := flag.Int("traffic-topk", 16, "heavy-hitter table size for /topk")
	tsInterval := flag.Duration("timeseries", time.Second, "metric history recording interval for /timeseries (0 disables)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiling handlers at /debug/pprof/ on the admin endpoint")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, "authd", *logLevel)

	origin, err := dnswire.ParseName(*originStr)
	if err != nil {
		fatal("bad -origin: %v", err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var z *zone.Zone
	var secondary *authserver.Secondary
	if *primaryAddr != "" {
		bctx, bcancel := context.WithTimeout(ctx, 60*time.Second)
		sec, err := authserver.NewSecondary(bctx, origin, *primaryAddr)
		bcancel()
		if err != nil {
			fatal("%v", err)
		}
		secondary = sec
		z = sec.Zone()
		logger.Info("bootstrapped as secondary", "primary", *primaryAddr, "serial", z.Serial())
	} else {
		z = loadZoneFile(*zonePath, origin)
	}

	srv := authserver.New(z)
	srv.TCPTimeout = *tcpTimeout
	if *ansCache != authserver.DefaultAnswerCacheSize {
		srv.SetAnswerCache(*ansCache)
	}
	if *ixfr > 0 {
		srv.EnableIXFR(*ixfr)
	}
	if *maxInflight > 0 || *perClientQPS > 0 || *rrlRate > 0 {
		srv.SetOverload(authserver.OverloadConfig{
			MaxInflight:   *maxInflight,
			QueueDeadline: *queueDeadline,
			PerClientQPS:  *perClientQPS,
			RRLRate:       *rrlRate,
			RRLSlip:       *rrlSlip,
		})
		logger.Info("overload protection enabled",
			"max_inflight", *maxInflight, "queue_deadline", *queueDeadline,
			"per_client_qps", *perClientQPS, "rrl_rate", *rrlRate, "rrl_slip", *rrlSlip)
	}
	logger.Info("serving zone", "origin", string(origin), "records", z.Len(), "serial", z.Serial())

	var tracer *obs.Tracer
	if *traceOn {
		tracer = obs.NewTracer(*traceRing, 0)
		tracer.SetEnabled(true)
		srv.SetTracer(tracer)
		logger.Info("trace joining enabled", "ring", *traceRing,
			"edns0_option", dnswire.OptionCodeTrace)
	}

	var analyzer *traffic.Analyzer
	if *trafficOn {
		// The served zone's delegations are the valid-TLD universe (for a
		// root zone that is exactly the TLD set).
		analyzer = traffic.NewAnalyzer(traffic.NewTLDSet(z.Delegations()), *trafficTopK)
		srv.SetTraffic(analyzer)
		logger.Info("traffic analysis enabled", "tlds", len(z.Delegations()), "topk", *trafficTopK)
	}

	// The UDP engine is built before the admin endpoint so its per-worker
	// stats are collectable from the start.
	var eng *udpengine.Engine
	if *udpAddr != "" {
		e, err := udpengine.New(udpengine.Config{
			Addr:      *udpAddr,
			Workers:   *udpWorkers,
			Batch:     *udpBatch,
			Handler:   srv.DatagramHandler(),
			MaxPacket: 64 * 1024,
		})
		if err != nil {
			fatal("udp listen: %v", err)
		}
		eng = e
		logger.Info("udp engine ready", "addr", eng.LocalAddr().String(),
			"workers", eng.Workers(), "batch", eng.Batch(), "reuseport", eng.ReusePort())
	}

	if *adminAddr != "" {
		start := time.Now()
		reg := obs.NewRegistry()
		reg.AddCollector(srv)
		if eng != nil {
			reg.AddCollector(eng)
		}
		if tracer != nil {
			reg.AddCollector(tracer)
		}
		if *latencyOn {
			srv.InstrumentLatency(reg)
		}
		obs.RegisterProcessMetrics(reg, start)
		admin := &obs.Admin{
			Registry: reg,
			Tracer:   tracer,
			Pprof:    *pprofOn,
			Status: func() map[string]any {
				st := srv.Stats()
				cur := srv.Zone()
				doc := map[string]any{
					"component":      "authd",
					"origin":         string(origin),
					"zone_serial":    cur.Serial(),
					"zone_records":   cur.Len(),
					"queries":        st.Queries,
					"answers":        st.Answers,
					"referrals":      st.Referrals,
					"axfrs":          st.AXFRs,
					"ixfrs":          st.IXFRs,
					"shed":           st.Shed,
					"rate_limited":   st.RateLimited,
					"rrl_dropped":    st.RRLDropped,
					"rrl_slipped":    st.RRLSlipped,
					"secondary":      secondary != nil,
					"uptime_seconds": time.Since(start).Seconds(),
					"tracing":        tracer != nil,
				}
				if tail, ok := srv.TailLatencySeconds(); ok {
					doc["latency_p50"] = tail[0]
					doc["latency_p99"] = tail[1]
					doc["latency_p999"] = tail[2]
					doc["latency_p9999"] = tail[3]
				}
				if eng != nil {
					for k, v := range eng.StatusDoc() {
						doc[k] = v
					}
				}
				return doc
			},
		}
		if analyzer != nil {
			admin.TopK = analyzer.Handler()
		}
		if *tsInterval > 0 {
			rec := tsdb.NewRecorder(reg, tsdb.Options{Interval: *tsInterval})
			admin.Timeseries = rec
			go rec.Run(ctx)
		}
		go func() {
			if err := admin.ListenAndServe(ctx, *adminAddr, logger); err != nil {
				logger.Error("admin server", "err", err)
			}
		}()
	}

	errs := make(chan error, 3)
	if secondary != nil {
		secondary.OnUpdate(func(nz *zone.Zone) {
			srv.SetZone(nz)
			if analyzer != nil {
				// Keep the junk taxonomy tracking the replicated TLD set.
				analyzer.SetTLDs(traffic.NewTLDSet(nz.Delegations()))
			}
			logger.Info("replicated zone", "serial", nz.Serial())
		})
		if *notifyAddr != "" {
			nconn, err := net.ListenPacket("udp", *notifyAddr)
			if err != nil {
				fatal("notify listen: %v", err)
			}
			logger.Info("NOTIFY listener ready", "addr", nconn.LocalAddr().String())
			go func() { errs <- secondary.ServeNotify(ctx, nconn) }()
		}
	}

	if eng != nil {
		go func() { errs <- eng.Serve(ctx) }()
	}
	if *tcpAddr != "" {
		l, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			fatal("tcp listen: %v", err)
		}
		logger.Info("tcp listener ready", "addr", l.Addr().String(), "axfr", true)
		go func() { errs <- srv.ServeTCP(ctx, l) }()
	}
	if *udpAddr == "" && *tcpAddr == "" {
		fatal("nothing to serve: both -udp and -tcp empty")
	}

	select {
	case <-ctx.Done():
	case err := <-errs:
		if err != nil {
			fatal("%v", err)
		}
	}
	st := srv.Stats()
	logger.Info("shutdown",
		"queries", st.Queries, "referrals", st.Referrals, "answers", st.Answers,
		"nxdomain", st.NXDomain, "axfrs", st.AXFRs, "ixfrs", st.IXFRs)
}

func loadZoneFile(path string, origin dnswire.Name) *zone.Zone {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	if strings.HasSuffix(path, ".gz") {
		z, err := zone.Decompress(data, origin)
		if err != nil {
			fatal("parsing %s: %v", path, err)
		}
		return z
	}
	z, err := zone.Parse(bytes.NewReader(data), origin)
	if err != nil {
		fatal("parsing %s: %v", path, err)
	}
	return z
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "authd: "+format+"\n", args...)
	os.Exit(1)
}
