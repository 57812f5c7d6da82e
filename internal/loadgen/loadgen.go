// Package loadgen is a real-socket, open-loop DNS load generator: the
// measurement half of the multi-core serving work. It drives a target
// server over actual UDP sockets with a configurable query rate and a
// B-Root-style query mix expressed in the internal/obs/traffic taxonomy
// (valid, repeated, bogus-TLD, Chromium-probe shares), and measures
// response rate and latency tails with the obs HDR histogram.
//
// Open loop means the send schedule never waits for responses: each
// worker computes the i-th departure time from the start time and the
// configured rate, sleeps until then, and sends — exactly how load
// arrives at a real root server, and the only discipline under which
// measured latency includes queueing delay honestly (a closed loop
// self-throttles when the server slows down, hiding the queue). With
// QPS 0 the generator degenerates to saturation mode: send as fast as
// the socket accepts.
//
// Each worker owns one connected UDP socket, a sender and a receiver
// goroutine, and a 65536-slot ID→departure-time table; the receiver
// matches responses by DNS message ID (the low 16 bits of a per-worker
// sequence counter), so a response is attributed to its query without
// parsing beyond the header.
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
)

// Mix is the query composition, by share. Shares are normalized over
// their sum, so {1, 1, 1, 1} means a quarter each.
type Mix struct {
	// Valid queries name a random host under an existing TLD.
	Valid float64
	// Repeat re-asks one fixed (qname, qtype) — the redundancy an
	// upstream cache would absorb (traffic.ClassValidRepeat).
	Repeat float64
	// Bogus queries name a TLD that does not exist (traffic.ClassBogusTLD).
	Bogus float64
	// Chromium queries are single random-alpha labels, the NXDOMAIN
	// middlebox probe shape (traffic.ClassChromiumProbe).
	Chromium float64
}

// DefaultMix approximates the B-Root composition from §2.2 of the
// paper: roughly half the load never needed to reach the root.
func DefaultMix() Mix { return Mix{Valid: 0.35, Repeat: 0.20, Bogus: 0.30, Chromium: 0.15} }

func (m Mix) sum() float64 { return m.Valid + m.Repeat + m.Bogus + m.Chromium }

// Config parameterizes one load run.
type Config struct {
	// Target is the server's UDP address ("host:port").
	Target string
	// Queries is the total number of queries to send across all workers.
	Queries int
	// QPS is the aggregate open-loop send rate. 0 = unpaced (saturation).
	QPS float64
	// Workers is the number of sender sockets. 0 = 1.
	Workers int
	// Mix is the query composition. A zero Mix means DefaultMix.
	Mix Mix
	// TLDs is the valid-TLD universe for generating valid names. Empty
	// defaults to a small built-in set.
	TLDs []dnswire.Name
	// Seed makes the generated query pool reproducible.
	Seed int64
	// Drain is how long to wait for in-flight responses after the last
	// send. 0 = 500ms.
	Drain time.Duration
	// EDNS advertises an EDNS0 OPT (4096, DO clear) on every query,
	// matching what real resolvers send. Default false = plain queries.
	EDNS bool
}

// Result is the measured outcome of a run.
type Result struct {
	Sent     int64
	Received int64
	// RespRate is Received/Sent in [0, 1].
	RespRate float64
	// Elapsed covers first send to end of drain.
	Elapsed time.Duration
	// AchievedQPS is Sent/(start to last departure) — what the open
	// loop actually sustained, which under saturation is the serving
	// capacity bound. The drain is not part of the window: it ends as
	// soon as every reply is in, so its length is not known up front.
	AchievedQPS float64
	// Latency tails in seconds (p50, p99, p999, p9999) from the merged
	// per-worker HDR histograms.
	P50, P99, P999, P9999 float64
	// Hist is the merged latency histogram (nanosecond values).
	Hist *obs.HDR
}

// pool is the pre-generated query wire set for one worker. Queries are
// packed once up front so the send loop does no message building.
type pool struct {
	wires [][]byte // ID field zeroed; sender patches per send
}

const poolSize = 256

// buildPool generates a worker's query pool honoring the mix shares.
func buildPool(cfg *Config, rng *rand.Rand) pool {
	mix := cfg.Mix
	if mix.sum() <= 0 {
		mix = DefaultMix()
	}
	tlds := cfg.TLDs
	if len(tlds) == 0 {
		tlds = []dnswire.Name{"com.", "net.", "org."}
	}
	randLabel := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	// One fixed repeat target per run: the shape of cacheable redundancy.
	repeatName := dnswire.Name("popular." + string(tlds[rng.Intn(len(tlds))]))
	sum := mix.sum()
	p := pool{wires: make([][]byte, 0, poolSize)}
	for i := 0; i < poolSize; i++ {
		r := rng.Float64() * sum
		var name dnswire.Name
		switch {
		case r < mix.Valid:
			name = dnswire.Name(randLabel(8) + "." + string(tlds[rng.Intn(len(tlds))]))
		case r < mix.Valid+mix.Repeat:
			name = repeatName
		case r < mix.Valid+mix.Repeat+mix.Bogus:
			name = dnswire.Name(randLabel(6) + "." + randLabel(10) + ".")
		default:
			name = dnswire.Name(randLabel(7+rng.Intn(9)) + ".")
		}
		q := dnswire.NewQuery(0, name, dnswire.TypeA)
		if cfg.EDNS {
			q.SetEDNS(dnswire.DefaultEDNSSize, false)
		}
		wire, err := q.Pack()
		if err != nil {
			continue // unpackable generated name; skip the slot
		}
		p.wires = append(p.wires, wire)
	}
	return p
}

// Classify buckets every query in a config's generated pools through
// the live-traffic classifier — the parity hook tests use to prove the
// generator and the taxonomy agree on what "junk" means.
func Classify(cfg Config) map[traffic.Class]int {
	tlds := cfg.TLDs
	if len(tlds) == 0 {
		tlds = []dnswire.Name{"com.", "net.", "org."}
	}
	set := traffic.NewTLDSet(tlds)
	counts := make(map[traffic.Class]int)
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := buildPool(&cfg, rng)
	for _, wire := range p.wires {
		var m dnswire.Message
		if err := m.Unpack(wire); err != nil || len(m.Questions) != 1 {
			continue
		}
		counts[traffic.Classify(m.Questions[0].Name, m.Questions[0].Type, set)]++
	}
	return counts
}

// worker state for one sender/receiver socket pair.
type worker struct {
	conn     *net.UDPConn
	pool     pool
	queries  int
	interval time.Duration // 0 = unpaced

	sent     atomic.Int64
	received atomic.Int64
	hist     *obs.HDR
	lastSend time.Time // departure of the last query sent; read after run returns

	// sendNS[id] is the departure time (UnixNano) of the most recent
	// query with that DNS message ID; 0 = no outstanding query.
	sendNS [65536]atomic.Int64
}

func (w *worker) run(ctx context.Context, start time.Time, drain time.Duration) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64*1024)
		for {
			_ = w.conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			n, err := w.conn.Read(buf)
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					continue // keep listening; the drain close ends us
				}
				return // conn closed after drain (or a real error)
			}
			if n < 2 {
				continue
			}
			id := int(buf[0])<<8 | int(buf[1])
			if dep := w.sendNS[id].Swap(0); dep != 0 {
				w.received.Add(1)
				w.hist.Record(time.Now().UnixNano() - dep)
			}
		}
	}()

	for i := 0; i < w.queries; i++ {
		if ctx.Err() != nil {
			break
		}
		if w.interval > 0 {
			// Open loop: departure times are fixed on the schedule; a
			// late sender catches up with a burst instead of shifting
			// the schedule (that would be closed-loop self-throttling).
			due := start.Add(time.Duration(i) * w.interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		wire := w.pool.wires[i%len(w.pool.wires)]
		id := i & 0xffff
		wire[0], wire[1] = byte(id>>8), byte(id)
		w.sendNS[id].Store(time.Now().UnixNano())
		if _, err := w.conn.Write(wire); err != nil {
			w.sendNS[id].Store(0)
			continue
		}
		w.sent.Add(1)
		w.lastSend = time.Now()
	}
	// Drain: leave the receiver running for late responses.
	deadline := time.Now().Add(drain)
	for time.Now().Before(deadline) && w.received.Load() < w.sent.Load() {
		time.Sleep(5 * time.Millisecond)
	}
	w.conn.Close()
	wg.Wait()
}

// Run executes the configured load against the target and reports the
// measured response rate and latency tails.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Target == "" {
		return Result{}, fmt.Errorf("loadgen: no target")
	}
	if cfg.Queries <= 0 {
		return Result{}, fmt.Errorf("loadgen: no queries")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > cfg.Queries {
		workers = cfg.Queries
	}
	drain := cfg.Drain
	if drain <= 0 {
		drain = 500 * time.Millisecond
	}

	ws := make([]*worker, workers)
	perWorker := cfg.Queries / workers
	extra := cfg.Queries % workers
	for i := range ws {
		raddr, err := net.ResolveUDPAddr("udp", cfg.Target)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: %w", err)
		}
		conn, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: %w", err)
		}
		n := perWorker
		if i < extra {
			n++
		}
		w := &worker{conn: conn, queries: n, hist: obs.NewHDR()}
		w.pool = buildPool(&cfg, rand.New(rand.NewSource(cfg.Seed+int64(i))))
		if len(w.pool.wires) == 0 {
			conn.Close()
			return Result{}, fmt.Errorf("loadgen: empty query pool")
		}
		if cfg.QPS > 0 {
			w.interval = time.Duration(float64(workers) / cfg.QPS * float64(time.Second))
		}
		ws[i] = w
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(ctx, start, drain)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := Result{Elapsed: elapsed, Hist: obs.NewHDR()}
	lastSend := start
	for _, w := range ws {
		res.Sent += w.sent.Load()
		res.Received += w.received.Load()
		res.Hist.Merge(w.hist)
		if w.lastSend.After(lastSend) {
			lastSend = w.lastSend
		}
	}
	if res.Sent > 0 {
		res.RespRate = float64(res.Received) / float64(res.Sent)
	}
	if window := lastSend.Sub(start); window > 0 {
		res.AchievedQPS = float64(res.Sent) / window.Seconds()
	}
	tail := res.Hist.TailSeconds()
	res.P50, res.P99, res.P999, res.P9999 = tail[0], tail[1], tail[2], tail[3]
	return res, nil
}

// Figures is the run as a flat name → value map — what cmd/loadgen
// writes as its JSON object. Latencies are in milliseconds.
func (r Result) Figures() map[string]float64 {
	return map[string]float64{
		"sent":         float64(r.Sent),
		"received":     float64(r.Received),
		"resp-rate":    r.RespRate,
		"achieved-qps": r.AchievedQPS,
		"served-qps":   r.AchievedQPS * r.RespRate,
		"p50-ms":       r.P50 * 1e3,
		"p99-ms":       r.P99 * 1e3,
		"p999-ms":      r.P999 * 1e3,
	}
}
