package resolver

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
	"rootless/internal/udpengine"
)

// BenchmarkResolve measures a cache-warm resolution — the hot path an
// always-on tracer check would tax. The three variants document the
// acceptance bar that a disabled tracer stays within noise of no tracer
// at all (the enabled variant shows what turning it on costs).
func BenchmarkResolve(b *testing.B) {
	run := func(b *testing.B, setup func(*Resolver), opts ...func(*Config)) {
		tp := newTopo(b)
		r := tp.resolver(b, RootModeHints, opts...)
		if setup != nil {
			setup(r)
		}
		if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("NoTracer", func(b *testing.B) { run(b, nil) })
	b.Run("TracerDisabled", func(b *testing.B) {
		run(b, func(r *Resolver) { r.SetTracer(obs.NewTracer(128, 0)) })
	})
	b.Run("TracerEnabled", func(b *testing.B) {
		run(b, func(r *Resolver) {
			tr := obs.NewTracer(128, 0)
			tr.SetEnabled(true)
			r.SetTracer(tr)
		})
	})
	// The propagation variant documents what trace stamping adds on top
	// of an enabled tracer (the acceptance bar is ≤5% over TracerEnabled;
	// on the cache-warm path no upstream queries happen, so the stamp
	// branch costs only the config check).
	b.Run("TracePropagate", func(b *testing.B) {
		run(b, func(r *Resolver) {
			tr := obs.NewTracer(128, 0)
			tr.SetEnabled(true)
			r.SetTracer(tr)
		}, func(c *Config) { c.TracePropagate = true })
	})
	// The analyzer variant documents what the streaming classification
	// sketches add to a cache-warm resolution (tens of ns against ~µs).
	b.Run("TrafficAnalyzer", func(b *testing.B) {
		run(b, func(r *Resolver) {
			r.SetTraffic(traffic.NewAnalyzer(traffic.NewTLDSet([]dnswire.Name{"com.", "net."}), 32))
		})
	})
}

// BenchmarkResolveConcurrent measures the coalescing win: parallel
// goroutines repeatedly miss on the same fresh name (the name changes
// every windowSize lookups, so each window opens with a thundering herd
// of identical cache misses). With Coalesce one flight pays the upstream
// round trips and everyone else shares it; without it every concurrent
// miss resolves independently. The headline metric is
// upstream-queries/op — coalescing exists to shield upstream servers
// from thundering herds, and it cuts that number by roughly the herd
// width (≈8× here). Wall time is comparable given GOMAXPROCS > 1; on a
// single-CPU box scheduler artifacts dominate it, so trust the query
// counts.
func BenchmarkResolveConcurrent(b *testing.B) {
	run := func(b *testing.B, coalesce bool) {
		tp := newTopo(b)
		r := tp.resolver(b, RootModeHints, func(c *Config) {
			// A real 50µs per exchange keeps flights open long enough to
			// overlap — netsim alone completes in zero wall time.
			c.Transport = slowTransport{inner: tp.net.Client(locClient), delay: 50 * time.Microsecond}
			c.Coalesce = coalesce
		})
		// Warm the delegation chain so each miss costs one upstream query.
		if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
		// Everyone chases the frontier window: while its first resolution
		// is in flight the others pile onto the same name; the CAS advances
		// the frontier once a miss lands. SetParallelism keeps a real herd
		// even on a single-CPU machine (sleeps overlap).
		var window atomic.Int64
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				w := window.Load()
				name := dnswire.Name(fmt.Sprintf("h%d.example.com.", w))
				res, err := r.Resolve(name, dnswire.TypeA)
				if err != nil {
					b.Error(err)
					return
				}
				if !res.FromCache {
					window.CompareAndSwap(w, w+1)
				}
			}
		})
		b.StopTimer()
		st := r.Stats()
		b.ReportMetric(float64(st.TotalQueries)/float64(b.N), "upstream-queries/op")
		b.ReportMetric(float64(st.CoalescedResolutions)/float64(b.N), "coalesced/op")
	}
	b.Run("Coalesce", func(b *testing.B) { run(b, true) })
	b.Run("NoCoalesce", func(b *testing.B) { run(b, false) })
}

// BenchmarkResolverServe measures the front door itself, datagram in to
// bytes out, for each kind of traffic: a cache hit, a negative-cache hit
// and junk dying at the local root are answered where a socket worker
// would answer them; Miss is what the worker pays to hand a question to
// the pool (the resolution runs on the pool's goroutines, against an
// upstream that answers at once).
func BenchmarkResolverServe(b *testing.B) {
	setup := func(b *testing.B) *Server {
		tp := newTopo(b)
		r := tp.resolver(b, RootModeLookaside, func(c *Config) {
			c.Transport = &lockedTransport{inner: c.Transport}
		})
		for _, name := range []dnswire.Name{"www.example.com.", "nope.example.com."} {
			if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
				b.Fatal(err)
			}
		}
		return NewServer(r)
	}
	run := func(b *testing.B, srv *Server, wires [][]byte, answered bool) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := srv.serveDatagram(wires[i%len(wires)], udpengine.Peer{}, buf)
			if (len(out) > 0) != answered {
				b.Fatalf("datagram %d: reply %x", i, out)
			}
		}
	}
	b.Run("Hit", func(b *testing.B) {
		run(b, setup(b), [][]byte{packQuery(b, 1, "www.example.com.", dnswire.TypeA, withOPT)}, true)
	})
	b.Run("NegHit", func(b *testing.B) {
		run(b, setup(b), [][]byte{packQuery(b, 1, "nope.example.com.", dnswire.TypeA, withOPT)}, true)
	})
	b.Run("LocalJunk", func(b *testing.B) {
		wires := make([][]byte, b.N) // every name new: no negative-cache hits
		for i := range wires {
			wires[i] = packQuery(b, 1, dnswire.Name(fmt.Sprintf("h%d.junk%d-zz.", i, i)), dnswire.TypeA, withOPT)
		}
		run(b, setup(b), wires, true)
	})
	b.Run("Miss", func(b *testing.B) {
		wires := make([][]byte, b.N)
		for i := range wires {
			wires[i] = packQuery(b, 1, dnswire.Name(fmt.Sprintf("h%d.example.com.", i)), dnswire.TypeA, withOPT)
		}
		srv := setup(b)
		run(b, srv, wires, false)
		b.StopTimer()
		if st := srv.FrontDoorStats(); st.Pool+st.Shed != int64(b.N) {
			b.Fatalf("front door counted %+v for %d misses", st, b.N)
		}
	})
}

// BenchmarkResolveParallel is BenchmarkResolve/NoTracer from GOMAXPROCS
// goroutines at once over a warm set of names: the figure that shows
// whether cache hits still meet at a shared lock. Coalescing is on, as in
// resolverd: a hit must not reach the flight table. The set is wide
// enough to spread over the cache's shards and the clock is a constant,
// so the only things shared are the resolver's own.
func BenchmarkResolveParallel(b *testing.B) {
	tp := newTopo(b)
	now := tp.net.Now()
	r := tp.resolver(b, RootModeHints, func(c *Config) {
		c.Clock = func() time.Time { return now }
		c.Coalesce = true
	})
	names := make([]dnswire.Name, 256)
	for i := range names {
		names[i] = dnswire.Name(fmt.Sprintf("w%d.example.com.", i))
		r.Cache().Put([]dnswire.RR{dnswire.NewRR(names[i], 3600, dnswire.A{Addr: exampleV4})}, false)
	}
	var starts atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(starts.Add(97)); pb.Next(); i++ {
			if res, err := r.Resolve(names[i%len(names)], dnswire.TypeA); err != nil || !res.FromCache {
				b.Errorf("%s: %+v, %v", names[i%len(names)], res, err)
				return
			}
		}
	})
}
