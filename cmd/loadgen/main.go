// Command loadgen drives a DNS server over real UDP sockets with an
// open-loop query schedule and a B-Root-style query mix, and reports
// response rate and latency tails (p50/p99/p999) as one JSON object.
//
// Usage:
//
//	loadgen -target 127.0.0.1:5300 -qps 50000 -queries 100000 -workers 4
//	loadgen -target 127.0.0.1:5300 -duration 10s -qps 20000 -json out.json
//
// The mix is expressed in the internal/obs/traffic taxonomy:
//
//	-mix valid=0.35,repeat=0.20,bogus=0.30,chromium=0.15
//
// With -qps 0 the generator sends as fast as the sockets accept
// (saturation mode): achieved-qps × resp-rate is then the serving
// capacity bound of the target.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rootless/internal/loadgen"
	"rootless/internal/rootzone"
)

func main() {
	target := flag.String("target", "127.0.0.1:5300", "server UDP address to drive")
	qps := flag.Float64("qps", 0, "aggregate open-loop send rate (0 = unpaced saturation)")
	queries := flag.Int("queries", 0, "total queries to send (0 = derive from -duration and -qps)")
	duration := flag.Duration("duration", 0, "send window; with -qps > 0 this sets -queries")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "sender sockets (each with its own receiver)")
	mixStr := flag.String("mix", "", "query mix shares, e.g. valid=0.35,repeat=0.20,bogus=0.30,chromium=0.15 (empty = B-Root default)")
	seed := flag.Int64("seed", 1, "query-pool RNG seed")
	edns := flag.Bool("edns", true, "advertise EDNS0 (4096, DO clear) on queries")
	rootTLDs := flag.Bool("root-tlds", false, "draw valid TLDs from the modeled root zone corpus instead of com/net/org")
	drain := flag.Duration("drain", 500*time.Millisecond, "wait for in-flight responses after the last send")
	jsonPath := flag.String("json", "", "write the run's figures as a JSON object here (empty = stdout)")
	flag.Parse()

	n := *queries
	if n <= 0 {
		if *duration <= 0 || *qps <= 0 {
			fatal("need -queries, or -duration with -qps")
		}
		n = int(*qps * duration.Seconds())
	}
	cfg := loadgen.Config{
		Target:  *target,
		Queries: n,
		QPS:     *qps,
		Workers: *workers,
		Seed:    *seed,
		Drain:   *drain,
		EDNS:    *edns,
	}
	if *mixStr != "" {
		mix, err := parseMix(*mixStr)
		if err != nil {
			fatal("%v", err)
		}
		cfg.Mix = mix
	}
	if *rootTLDs {
		for _, t := range rootzone.TLDsAt(time.Now()) {
			cfg.TLDs = append(cfg.TLDs, t.Name)
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr,
		"loadgen: sent=%d received=%d resp-rate=%.4f achieved-qps=%.0f p50=%.3fms p99=%.3fms p999=%.3fms\n",
		res.Sent, res.Received, res.RespRate, res.AchievedQPS,
		res.P50*1e3, res.P99*1e3, res.P999*1e3)

	blob, err := json.MarshalIndent(res.Figures(), "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	blob = append(blob, '\n')
	if *jsonPath == "" {
		os.Stdout.Write(blob)
	} else if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
		fatal("%v", err)
	}
}

func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("bad -mix component %q", part)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 {
			return m, fmt.Errorf("bad -mix share %q", part)
		}
		switch k {
		case "valid":
			m.Valid = f
		case "repeat":
			m.Repeat = f
		case "bogus":
			m.Bogus = f
		case "chromium":
			m.Chromium = f
		default:
			return m, fmt.Errorf("unknown -mix class %q (valid|repeat|bogus|chromium)", k)
		}
	}
	if m.Valid+m.Repeat+m.Bogus+m.Chromium <= 0 {
		return m, fmt.Errorf("-mix shares sum to zero")
	}
	return m, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
