package bench

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"rootless/bench/driver"
	"rootless/internal/authserver"
	"rootless/internal/cache"
	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/resolver"
	"rootless/internal/udpengine"
)

const (
	// replayBatch is how many inputs prep readies, and how many calls
	// are timed between two clock reads unless a call is slow.
	replayBatch = 512
	// slowCall is the call time above which a batch is cut to slowBatch
	// calls: auth_junk_do's 5 ms ServeWire would otherwise spend 13 s on
	// the five batches the five-slice median needs.
	slowCall  = 100 * time.Microsecond
	slowBatch = 16
	// replayCalls is how many calls a replay aims for.
	replayCalls = 100000
	// replaySeq is where replays start numbering unique names, far past
	// anything the live phases reach.
	replaySeq = uint64(1) << 40
)

var loopback = netip.MustParseAddr("127.0.0.1")

// replayed is the cost of one public function, fed the workload's own
// inputs single-threaded with no sockets.
type replayed struct {
	ns     float64 // median over five slices of the mean time per call
	allocs float64 // allocations per call, over all calls
	calls  int64
}

// replay times call over batches until it has made replayCalls calls
// or used budget, but never fewer than five batches. prep(n) runs
// untimed before each batch and readies inputs 0..n-1, n at most
// replayBatch; call(i) then gets each i below n. The first call,
// untimed, sizes the batches.
func replay(budget time.Duration, prep func(n int), call func(i int)) replayed {
	prep(1)
	probe := time.Now()
	call(0)
	size := replayBatch
	if time.Since(probe) > slowCall {
		size = slowBatch
	}
	var perBatch []float64
	var mallocs uint64
	var before, after runtime.MemStats
	deadline := time.Now().Add(budget)
	for len(perBatch)*size < replayCalls && (len(perBatch) < 5 || time.Now().Before(deadline)) {
		prep(size)
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < size; i++ {
			call(i)
		}
		took := time.Since(start)
		runtime.ReadMemStats(&after)
		perBatch = append(perBatch, float64(took)/float64(size))
		mallocs += after.Mallocs - before.Mallocs
	}
	// Five equal consecutive slices, as for the live latencies.
	n := len(perBatch)
	var slices []float64
	for s := 0; s < 5; s++ {
		lo, hi := s*n/5, (s+1)*n/5
		if hi == lo {
			continue
		}
		sum := 0.0
		for _, v := range perBatch[lo:hi] {
			sum += v
		}
		slices = append(slices, sum/float64(hi-lo))
	}
	calls := int64(n) * int64(size)
	return replayed{ns: driver.Median(slices), allocs: float64(mallocs) / float64(calls), calls: calls}
}

// spanHandler is the wrapper a traced run puts around the workload's
// udpengine.Handler: it records a handler span per datagram while
// tracing is on and is a plain call while it is off.
type spanHandler struct {
	next udpengine.Handler
	run  *run
}

func (h *spanHandler) ServeDatagram(req []byte, src udpengine.Peer, resp []byte) []byte {
	if !h.run.tracing.Load() {
		return h.next.ServeDatagram(req, src, resp)
	}
	var id uint16
	if len(req) >= 2 {
		id = uint16(req[0])<<8 | uint16(req[1])
	}
	start := time.Now()
	out := h.next.ServeDatagram(req, src, resp)
	h.run.spans.AddID("handler", 0, id, start, time.Now())
	return out
}

// counters is a snapshot of every layer's public Stats.
type counters struct {
	engine   udpengine.WorkerStats
	auth     authserver.Stats
	resolver resolver.Stats
	cache    cache.Stats
}

func (r *run) counters() counters {
	c := counters{engine: r.srv.eng.Stats().Total}
	if r.inst.Auth != nil {
		c.auth = r.inst.Auth.Stats()
	}
	if r.inst.Resolver != nil {
		c.resolver = r.inst.Resolver.Stats()
		c.cache = r.inst.Resolver.Cache().Stats()
	}
	return c
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// liveLayers reports what the layers' own counters say about the traced
// phases: queries is the number of correct replies over the interval.
func (r *run) liveLayers(before, after counters, queries int64) {
	rep := r.rep
	e0, e1 := before.engine, after.engine
	packets := e1.Packets - e0.Packets
	rep.add("udpengine.msgs_per_read", ratio(packets, e1.Reads-e0.Reads), e1.Reads-e0.Reads)
	rep.add("udpengine.rx_queue_drops", float64(e1.RxQueueDrops-e0.RxQueueDrops), packets)
	rep.add("udpengine.dropped", float64(e1.Dropped-e0.Dropped), packets)
	rep.add("udpengine.async_frac", ratio(e1.Async-e0.Async, packets), packets)
	rep.add("udpengine.write_errs", float64(e1.WriteErrs-e0.WriteErrs), packets)

	if r.inst.Resolver == nil {
		a0, a1 := before.auth, after.auth
		looked := a1.PackedHits - a0.PackedHits + a1.PackedMisses - a0.PackedMisses
		rep.add("authserver.packed_hit_frac", ratio(a1.PackedHits-a0.PackedHits, looked), looked)
		rep.add("authserver.wire_packs_per_query", ratio(a1.WirePacks-a0.WirePacks, a1.Queries-a0.Queries), a1.Queries-a0.Queries)
		return
	}
	s0, s1 := before.resolver, after.resolver
	res := s1.Resolutions - s0.Resolutions
	rep.add("resolver.upstream_queries_per_query", ratio(s1.TotalQueries-s0.TotalQueries, queries), queries)
	rep.add("resolver.root_queries_per_query", ratio(s1.RootQueries-s0.RootQueries, queries), queries)
	rep.add("resolver.local_root_consults_per_query", ratio(s1.LocalRootConsults-s0.LocalRootConsults, queries), queries)
	rep.add("resolver.cache_answer_frac", ratio(s1.CacheAnswers-s0.CacheAnswers, res), res)
	rep.add("resolver.nsec_synth_frac", ratio(s1.NSECSynthesized-s0.NSECSynthesized, res), res)
	rep.add("resolver.coalesced_frac", ratio(s1.CoalescedResolutions-s0.CoalescedResolutions, res), res)
	rep.add("validator.dnskey_fetches_per_query", ratio(s1.DNSKEYFetches-s0.DNSKEYFetches, queries), queries)

	c0, c1 := before.cache, after.cache
	gets := c1.Hits - c0.Hits + c1.Misses - c0.Misses
	rep.add("cache.hit_frac", ratio(c1.Hits-c0.Hits, gets), gets)
	rep.add("cache.evictions_per_query", ratio(c1.Evictions-c0.Evictions, queries), queries)
}

func (r *run) addReplay(nsName, allocsName string, scale float64, v replayed) {
	r.rep.add(nsName, v.ns/scale, v.calls)
	if allocsName != "" {
		r.rep.add(allocsName, v.allocs, v.calls)
	}
}

// wireBatch copies the next replayBatch queries of the workload's load
// into buffers of their own; the load hands out shared templates.
type wireBatch struct {
	load  driver.Load
	seq   uint64
	wires [replayBatch][]byte
}

func (b *wireBatch) next(n int) {
	for i := 0; i < n; i++ {
		wire, _ := b.load.Next(b.seq)
		b.seq++
		b.wires[i] = append(b.wires[i][:0], wire...)
	}
}

// replayAuth prices the authoritative path layer by layer and returns
// what one query costs the handler, in nanoseconds.
func (r *run) replayAuth(budget time.Duration) float64 {
	srv := r.inst.Auth
	batch := &wireBatch{load: r.inst.Load, seq: replaySeq}
	var msgs [replayBatch]dnswire.Message
	unpackAll := func(n int) {
		batch.next(n)
		for i := 0; i < n; i++ {
			msgs[i] = dnswire.Message{}
			_ = msgs[i].UnpackShared(batch.wires[i]) // the load packed it
		}
	}

	var m dnswire.Message
	unpack := replay(budget, batch.next, func(i int) { _ = m.UnpackShared(batch.wires[i]) })
	r.addReplay("dnswire.unpack_ns", "dnswire.unpack_allocs", 1, unpack)

	var out []byte
	serve := replay(budget, batch.next, func(i int) { out = srv.ServeWire(batch.wires[i], loopback, out[:0]) })
	r.addReplay("authserver.servewire_ns", "authserver.servewire_allocs", 1, serve)

	var resps [replayBatch]*dnswire.Message
	handle := replay(budget, unpackAll, func(i int) { resps[i] = srv.Handle(&msgs[i], loopback) })
	r.addReplay("authserver.handle_ns", "", 1, handle)

	// The captured responses: what Handle answers to a fresh batch.
	var bytes, packed int64
	pack := replay(budget, func(n int) {
		unpackAll(n)
		for i := 0; i < n; i++ {
			resps[i] = srv.Handle(&msgs[i], loopback)
		}
	}, func(i int) {
		out, _ = resps[i].AppendPack(out[:0])
		bytes += int64(len(out))
		packed++
	})
	r.addReplay("dnswire.pack_ns", "dnswire.pack_allocs", 1, pack)
	r.rep.add("dnswire.resp_bytes", ratio(bytes, packed), packed)

	z := srv.Zone()
	query := replay(budget, unpackAll, func(i int) { z.Query(msgs[i].Questions[0].Name, msgs[i].Questions[0].Type) })
	r.addReplay("zone.query_ns", "zone.query_allocs", 1, query)
	return serve.ns
}

// nameBatch makes replayBatch fresh names per batch.
type nameBatch struct {
	seq   uint64
	names [replayBatch]dnswire.Name
	make  func(seq uint64) dnswire.Name
}

func (b *nameBatch) next(n int) {
	for i := 0; i < n; i++ {
		b.names[i] = b.make(b.seq)
		b.seq++
	}
}

func seqString(seq uint64) string {
	var b [seqLetters]byte
	putSeq(b[:], seq)
	return string(b[:])
}

// replayResolver prices the recursive path layer by layer and returns
// what one query of this workload's mix costs the handler, in
// nanoseconds: unpack, Resolve and pack.
func (r *run) replayResolver(budget time.Duration) float64 {
	in := r.inst
	res := in.Resolver
	tlds := in.World.TLDs
	valid := &nameBatch{seq: replaySeq, make: func(seq uint64) dnswire.Name {
		s := seqString(seq)
		return dnswire.Name("h" + s + ".d" + s + "." + string(tlds[seq%64]))
	}}
	junk := &nameBatch{seq: replaySeq, make: func(seq uint64) dnswire.Name {
		return dnswire.Name(seqString(seq) + ".rootbench-" + probeSuffix + ".")
	}}

	// The hit set: the names the workload keeps warm, or for the cold
	// workload a set resolved here once.
	hot := in.ReplayNames
	for i := 0; len(hot) < replayBatch; i++ {
		name := dnswire.Name(fmt.Sprintf("www.replay%d.%s", i, tlds[i%64]))
		if _, err := res.Resolve(name, dnswire.TypeA); err != nil {
			r.rep.note("replay: warming %s: %v", name, err)
		}
		hot = append(hot, dnswire.Question{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET})
	}
	pick := 0
	var hits [replayBatch]dnswire.Question
	nextHits := func(n int) {
		for i := 0; i < n; i++ {
			hits[i] = hot[pick%len(hot)]
			pick++
		}
	}

	batch := &wireBatch{load: in.Load, seq: replaySeq << 1}
	var m dnswire.Message
	unpack := replay(budget, batch.next, func(i int) { _ = m.Unpack(batch.wires[i]) })
	r.addReplay("dnswire.unpack_ns", "dnswire.unpack_allocs", 1, unpack)

	hit := replay(budget, nextHits, func(i int) { _, _ = res.Resolve(hits[i].Name, hits[i].Type) })
	r.addReplay("resolver.resolve_hit_ns", "resolver.resolve_hit_allocs", 1, hit)

	// Responses as resolver.Server builds them from a Resolve result.
	var resps [replayBatch]dnswire.Message
	var out []byte
	var bytes, packed int64
	pack := replay(budget, func(n int) {
		nextHits(n)
		for i := 0; i < n; i++ {
			resps[i] = dnswire.Message{Response: true, RecursionDesired: true, RecursionAvailable: true,
				Questions: []dnswire.Question{hits[i]}}
			if res, err := res.Resolve(hits[i].Name, hits[i].Type); err == nil {
				resps[i].Rcode, resps[i].Answers, resps[i].AuthenticData = res.Rcode, res.Answers, res.AuthData
			}
		}
	}, func(i int) {
		out, _ = resps[i].AppendPack(out[:0])
		bytes += int64(len(out))
		packed++
	})
	r.addReplay("dnswire.pack_ns", "dnswire.pack_allocs", 1, pack)
	r.rep.add("dnswire.resp_bytes", ratio(bytes, packed), packed)

	miss := replay(budget, valid.next, func(i int) { _, _ = res.Resolve(valid.names[i], dnswire.TypeA) })
	r.addReplay("resolver.resolve_miss_us", "resolver.resolve_miss_allocs", 1e3, miss)
	junked := replay(budget, junk.next, func(i int) { _, _ = res.Resolve(junk.names[i], dnswire.TypeA) })
	r.addReplay("resolver.junk_us", "", 1e3, junked)

	c := res.Cache()
	get := replay(budget, nextHits, func(i int) { c.Get(hits[i].Name, hits[i].Type) })
	r.addReplay("cache.get_ns", "", 1, get)

	// Put and NSEC synthesis run against caches of their own, so that
	// replaying them does not disturb the resolver's.
	clock := func() time.Time { return ZoneDate }
	putCache := cache.New(resolverCache, clock)
	var sets [replayBatch][]dnswire.RR
	put := replay(budget, func(n int) {
		valid.next(n)
		for i, name := range valid.names[:n] {
			sets[i] = []dnswire.RR{dnswire.NewRR(name, 3600, dnswire.A{Addr: in.Fabric.AddrFor(name)})}
		}
	}, func(i int) { putCache.Put(sets[i], false) })
	r.addReplay("cache.put_ns", "", 1, put)

	nsecCache := cache.New(resolverCache, clock)
	for _, rr := range in.World.Zone.Records() {
		if n, ok := rr.Data.(dnswire.NSEC); ok {
			nsecCache.PutValidatedNSEC(dnswire.Root, rr.Name, n, rr.TTL)
		}
	}
	synthesized := 0
	synth := replay(budget, junk.next, func(i int) {
		if _, ok := nsecCache.NSECSynthesize(junk.names[i], dnswire.TypeA); ok {
			synthesized++
		}
	})
	r.addReplay("cache.nsec_synth_ns", "", 1, synth)
	// synthesized also counts replay's one untimed sizing call.
	if int64(synthesized) < synth.calls {
		r.rep.note("replay: only %d of %d junk names were synthesized from the NSEC chain", synthesized, synth.calls)
	}

	// What the validator is asked in this configuration: TLD servers'
	// referrals, for zones the local-root consult left without chain state.
	v := validator.New(validator.Config{Anchor: in.World.Signer.TrustAnchor(), Now: clock})
	var tldAddr netip.Addr
	for a := range in.Fabric.tldAddrs {
		tldAddr = a
		break
	}
	var referrals [replayBatch]*dnswire.Message
	validate := replay(budget, func(n int) {
		valid.next(n)
		for i, name := range valid.names[:n] {
			referrals[i], _, _ = in.Fabric.Exchange(tldAddr, dnswire.NewQuery(0, name, dnswire.TypeA))
		}
	}, func(i int) { v.Validate(valid.names[i].TLD(), valid.names[i], dnswire.TypeA, referrals[i]) })
	r.addReplay("validator.validate_us", "", 1e3, validate)

	resolve := hit.ns
	if r.opts.Workload == ResolverCold {
		resolve = 0.7*miss.ns + 0.3*junked.ns
	}
	return unpack.ns + resolve + pack.ns
}
