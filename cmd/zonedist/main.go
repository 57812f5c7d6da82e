// Command zonedist distributes root zones: it can serve an HTTP mirror
// (full signed bundles and a signed delta chain) or act as the resolver-side client
// that fetches, verifies and stores a zone copy.
//
// Serve (publisher side):
//
//	zonedist serve -listen 127.0.0.1:8053 -seed 42 -date 2019-06-07
//
// Fetch (resolver side):
//
//	zonedist fetch -mirror http://127.0.0.1:8053 -pub root.dnskey -o root.zone
//
// Observability (serve mode):
//
//	-admin 127.0.0.1:9155   HTTP admin endpoint: /metrics, /healthz, /statusz
//	-pprof                  mount net/http/pprof at /debug/pprof/ on -admin
//	-log-level info         debug | info | warn | error
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/tsdb"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

type seededRand struct{ r *rand.Rand }

func (s seededRand) Read(p []byte) (int, error) { return s.r.Read(p) }

func main() {
	if len(os.Args) < 2 {
		fatal("usage: zonedist serve|fetch [flags]")
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "fetch":
		fetch(os.Args[2:])
	default:
		fatal("unknown subcommand %q (want serve or fetch)", os.Args[1])
	}
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8053", "HTTP listen address")
	seed := fs.Int64("seed", 20190607, "deterministic signing key seed")
	dateStr := fs.String("date", "2019-06-07", "zone snapshot date")
	pubOut := fs.String("pub-out", "", "write the public KSK here for clients")
	republish := fs.Duration("republish", 0, "re-sign and publish a fresh serial at this interval (0 = once)")
	window := fs.Int("window", 16, "delta-chain history depth: serials a client may be behind and still catch up incrementally")
	adminAddr := fs.String("admin", "", "HTTP admin address for /metrics, /healthz, /statusz (e.g. 127.0.0.1:9155; empty to disable)")
	tsInterval := fs.Duration("timeseries", time.Second, "metric history recording interval for /timeseries (0 disables)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof profiling handlers at /debug/pprof/ on the admin endpoint")
	logLevel := fs.String("log-level", "info", "log level: debug | info | warn | error")
	_ = fs.Parse(args)

	logger := obs.NewLogger(os.Stderr, "zonedist", *logLevel)

	at, err := time.Parse("2006-01-02", *dateStr)
	if err != nil {
		fatal("bad -date: %v", err)
	}
	signer, err := dnssec.NewSigner(dnswire.Root, seededRand{rand.New(rand.NewSource(*seed))})
	if err != nil {
		fatal("%v", err)
	}
	signer.AddNSEC = true
	signer.Quantize = 14 * 24 * time.Hour
	signer.Validity = 28 * 24 * time.Hour

	if *pubOut != "" {
		f, err := os.Create(*pubOut)
		if err != nil {
			fatal("%v", err)
		}
		if err := dnssec.WritePublicKey(f, signer.KSK); err != nil {
			fatal("%v", err)
		}
		f.Close()
	}

	mirror := dist.NewMirror(signer, *window)
	publish := func(at time.Time) error {
		z, err := rootzone.Build(at)
		if err != nil {
			return err
		}
		if err := signer.SignZone(z, at); err != nil {
			return err
		}
		if err := mirror.Publish(z); err != nil {
			return err
		}
		logger.Info("published zone", "serial", z.Serial(), "records", z.Len())
		return nil
	}
	if err := publish(at); err != nil {
		fatal("%v", err)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *adminAddr != "" {
		start := time.Now()
		reg := obs.NewRegistry()
		reg.AddCollector(mirror)
		obs.RegisterProcessMetrics(reg, start)
		admin := &obs.Admin{
			Registry: reg,
			Pprof:    *pprofOn,
			Status: func() map[string]any {
				st := mirror.Stats()
				status := map[string]any{
					"component":      "zonedist",
					"requests":       st.Requests,
					"bundle_bytes":   st.BundleBytes,
					"uptime_seconds": time.Since(start).Seconds(),
				}
				if b := mirror.Current(); b != nil {
					status["zone_serial"] = b.Serial
				}
				return status
			},
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
	if *republish > 0 {
		go func() {
			day := at
			for {
				select {
				case <-ctx.Done():
					return
				case <-time.After(*republish):
					day = day.AddDate(0, 0, 1)
					if err := publish(day); err != nil {
						logger.Error("republish failed", "err", err)
					}
				}
			}
		}()
	}

	srv := &http.Server{Addr: *listen, Handler: mirror}
	go func() {
		<-ctx.Done()
		_ = srv.Close()
	}()
	logger.Info("mirror ready", "url", "http://"+*listen)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal("%v", err)
	}
	st := mirror.Stats()
	logger.Info("shutdown", "requests", st.Requests,
		"bundle_bytes", st.BundleBytes, "chain_bytes", st.ChainBytes)
}

func fetch(args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	mirrorURL := fs.String("mirror", "http://127.0.0.1:8053", "mirror base URL; may list fallbacks comma-separated, tried in order")
	pubPath := fs.String("pub", "", "public KSK file for verification (required)")
	out := fs.String("o", "root.zone", "where to store the verified zone")
	retries := fs.Int("retries", 0, "extra attempts over the mirror list after a failed pass")
	retryWait := fs.Duration("retry-wait", 2*time.Second, "base pause between retry passes (decorrelated jitter on top)")
	_ = fs.Parse(args)

	if *pubPath == "" {
		fatal("fetch requires -pub (the publisher's DNSKEY)")
	}
	f, err := os.Open(*pubPath)
	if err != nil {
		fatal("%v", err)
	}
	ksk, err := dnssec.ReadPublicKey(f)
	f.Close()
	if err != nil {
		fatal("%v", err)
	}

	// One verified fetch attempt per mirror per pass; a failing pass
	// backs off with decorrelated jitter so a fleet of cron-driven
	// fetchers does not retry in lockstep.
	mirrors := strings.Split(*mirrorURL, ",")
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	delay := *retryWait
	var z *zone.Zone
	var fetched int64
	for pass := 0; ; pass++ {
		var lastErr error
		for _, m := range mirrors {
			ctx, cancelTO := context.WithTimeout(context.Background(), 30*time.Second)
			client := dist.NewHTTPClient(strings.TrimSpace(m))
			bundle, err := client.Fetch(ctx)
			cancelTO()
			if err != nil {
				lastErr = err
				continue
			}
			if z, err = bundle.Verify(ksk); err != nil {
				lastErr = fmt.Errorf("VERIFICATION FAILED via %s: %w", m, err)
				continue
			}
			fetched = client.BytesFetched()
			break
		}
		if z != nil {
			break
		}
		if pass >= *retries {
			fatal("fetch: %v", lastErr)
		}
		fmt.Fprintf(os.Stderr, "zonedist: pass %d failed (%v), retrying in %v\n", pass+1, lastErr, delay)
		time.Sleep(delay)
		if span := 3*delay - *retryWait; span > 0 {
			delay = *retryWait + time.Duration(rng.Int63n(int64(span)+1))
		}
	}
	if err := os.WriteFile(*out, []byte(zone.Text(z)), 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "zonedist: verified serial %d (%d records, %d bytes fetched) -> %s\n",
		z.Serial(), z.Len(), fetched, *out)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "zonedist: "+format+"\n", args...)
	os.Exit(1)
}
