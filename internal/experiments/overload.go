package experiments

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/ditl"
	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
	"rootless/internal/obs/tsdb"
	"rootless/internal/resolver"
)

// slowWire adds a fixed real-time delay to every exchange. netsim only
// advances virtual time, so without this a "concurrent" replay finishes
// serially in zero wall time and the overload machinery (admission gate,
// coalescing) never sees contention.
type slowWire struct {
	inner resolver.Transport
	delay time.Duration
}

func (s slowWire) Exchange(dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	time.Sleep(s.delay)
	return s.inner.Exchange(dst, q)
}

// ExchangeTraced forwards the trace to the inner transport so wrapping
// does not sever span propagation into netsim and the authserver.
func (s slowWire) ExchangeTraced(tr *obs.Trace, dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	time.Sleep(s.delay)
	if tt, ok := s.inner.(resolver.TracedTransport); ok {
		return tt.ExchangeTraced(tr, dst, q)
	}
	return s.inner.Exchange(dst, q)
}

// loadOutcome aggregates one replay trial.
type loadOutcome struct {
	legit, legitOK int64 // valid-TLD queries attempted / answered
	bogus          int64
	shed           int64 // resolutions refused an admission slot
	coalesced      int64
	cutHits        int64 // NXDOMAIN-cut cache answers
	rootQueries    int64
	p99            time.Duration   // over answered legit queries, virtual
	attr           obs.Attribution // hot-half latency attribution (warm half subtracted)
}

// goodput is the fraction of legit queries answered.
func (o loadOutcome) goodput() float64 {
	if o.legit == 0 {
		return 0
	}
	return float64(o.legitOK) / float64(o.legit)
}

// Overload reproduces the overload-behaviour story the paper's §2.2
// traffic mix implies: a resolver whose upstream capacity is bounded
// (admission gate), fed a DITL-like mix that is mostly junk, must keep
// answering the legitimate minority even when the offered load is a
// multiple of capacity. Junk is absorbed by the RFC 8020 NXDOMAIN cut,
// duplicate misses by coalescing, over-capacity work is shed, and shed
// resolutions with stale cache degrade per RFC 8767 instead of failing.
// queries sets the trace size per trial (min 1200).
func Overload(queries int) Result {
	if queries < 1200 {
		queries = 1200
	}
	w, err := buildWorld(9, ditlDate, 2)
	if err != nil {
		return Result{ID: "t_overload", Title: "Overload behaviour", Notes: err.Error()}
	}
	valid := make(map[dnswire.Name]bool, len(w.tlds))
	for _, t := range w.tlds {
		valid[t] = true
	}

	const capacity = 8 // admission slots = the resolver's upstream capacity
	const wireDelay = 300 * time.Microsecond

	mkTrace := func(bogusShare float64, seed int64) (*ditl.Trace, error) {
		cfg := scaledDITLConfig(queries)
		cfg.Seed = seed
		cfg.BogusShare = bogusShare
		return ditl.Generate(cfg)
	}

	// replay drives qs through r from `workers` closed-loop workers: the
	// offered load is workers/capacity of the resolver's capacity, since
	// each worker has at most one resolution (one admission slot) open.
	replay := func(r *resolver.Resolver, qs []ditl.Query, workers int) (legit, legitOK int64, lats []time.Duration) {
		var mu sync.Mutex
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(qs) {
						return
					}
					res, err := r.Resolve(qs[i].Name, qs[i].Type)
					if !valid[qs[i].Name.TLD()] {
						continue
					}
					mu.Lock()
					legit++
					if err == nil && res.Rcode == dnswire.RcodeSuccess {
						legitOK++
						lats = append(lats, res.Latency)
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return
	}

	// trial warms a fresh overload-protected resolver at capacity on the
	// first half of the trace, then measures the second half at mult×
	// capacity. Warm-half state (delegations, answers, NXDOMAIN cuts) is
	// what lets the hot half ride the cache. queueDeadline selects the
	// gate regime: a positive deadline queues over-capacity work briefly
	// (the daemon default), zero fails fast and sheds every miss that
	// cannot get a slot immediately.
	city := 30
	trial := func(mode resolver.RootMode, trace *ditl.Trace, mult int, seed int64, queueDeadline time.Duration) loadOutcome {
		city++
		r := w.newResolver(mode, city, seed, func(c *resolver.Config) {
			c.Transport = slowWire{inner: c.Transport, delay: wireDelay}
			c.Coalesce = true
			c.NXDomainCut = true
			c.MaxInflight = capacity
			c.QueueDeadline = queueDeadline
		})
		t := attrTracer()
		r.SetTracer(t)
		half := len(trace.Queries) / 2
		replay(r, trace.Queries[:half], capacity)
		warm := r.Stats()
		warmAttr := t.AttributionTotals()
		legit, legitOK, lats := replay(r, trace.Queries[half:], capacity*mult)
		st := r.Stats()
		out := loadOutcome{
			attr:        t.AttributionTotals().Sub(warmAttr),
			legit:       legit,
			legitOK:     legitOK,
			bogus:       int64(len(trace.Queries)-half) - legit,
			shed:        st.ShedResolutions - warm.ShedResolutions,
			coalesced:   st.CoalescedResolutions - warm.CoalescedResolutions,
			cutHits:     st.NXDomainCutHits - warm.NXDomainCutHits,
			rootQueries: st.RootQueries,
		}
		if len(lats) > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			out.p99 = lats[len(lats)*99/100]
		}
		return out
	}

	trace, err := mkTrace(0.61, 41)
	if err != nil {
		return Result{ID: "t_overload", Title: "Overload behaviour", Notes: err.Error()}
	}
	// Hot-half composition check: the measured mix must be the paper's.
	hotBogus := 0
	hot := trace.Queries[len(trace.Queries)/2:]
	for _, q := range hot {
		if !valid[q.Name.TLD()] {
			hotBogus++
		}
	}
	hotBogusShare := float64(hotBogus) / float64(len(hot))

	// Offered-load sweep at the paper's junk mix: 1× is the baseline. The
	// queued gate (50 ms deadline, the daemon default) briefly parks
	// over-capacity misses instead of refusing them.
	const queued = 50 * time.Millisecond
	mults := []int{1, 2, 4}
	byLoad := make([]loadOutcome, len(mults))
	for i, m := range mults {
		byLoad[i] = trial(resolver.RootModeHints, trace, m, 500+int64(i), queued)
	}
	base := byLoad[0]
	at4 := byLoad[len(byLoad)-1]

	// The same 4× flood against a fail-fast gate (deadline 0): fresh
	// misses that cannot get a slot shed immediately, while cache-served
	// traffic (including the junk absorbed by the NXDOMAIN cut) is
	// untouched — the degraded-but-bounded operating point.
	failFast := trial(resolver.RootModeHints, trace, 4, 504, 0)

	// Junk-fraction sweep at 4× capacity: goodput must hold whether the
	// flood is mostly junk or mostly real.
	junks := []float64{0.2, 0.9}
	byJunk := make([]loadOutcome, len(junks))
	for i, b := range junks {
		tr, err := mkTrace(b, 60+int64(i))
		if err != nil {
			return Result{ID: "t_overload", Title: "Overload behaviour", Notes: err.Error()}
		}
		byJunk[i] = trial(resolver.RootModeHints, tr, 4, 600+int64(i), queued)
	}

	// Cut-based vs NSEC-aggressive junk suppression across the 20→90%
	// bogus ramp: a fresh world with a signed root, replayed sequentially
	// so the two mechanisms see identical workloads. The RFC 8020 cut
	// learns one observed NXDOMAIN per bogus TLD; the RFC 8198 ranges
	// prove whole namespace gaps at once, so they need strictly fewer
	// trips to the root for the same junk — and keep working after a
	// cache flush, because the proofs are cryptographic.
	nsecRamp := []float64{0.2, 0.45, 0.7, 0.9}
	cutRoots := make([]int64, len(nsecRamp))
	nsecRoots := make([]int64, len(nsecRamp))
	nsecSynths := make([]int64, len(nsecRamp))
	nsecRampOK := true
	{
		ws, err := buildWorld(9, ditlDate, 2)
		if err != nil {
			return Result{ID: "t_overload", Title: "Overload behaviour", Notes: err.Error()}
		}
		signer, err := ws.signWorldRoot(77)
		if err != nil {
			return Result{ID: "t_overload", Title: "Overload behaviour", Notes: err.Error()}
		}
		junkTrial := func(trace *ditl.Trace, nsec bool, seed int64) (rootQ, synth int64) {
			city++
			r := ws.newResolver(resolver.RootModeHints, city, seed, func(c *resolver.Config) {
				if nsec {
					c.Validate = validator.PolicyStrict
					c.TrustAnchor = signer.TrustAnchor()
					c.NSECAggressive = true
				} else {
					c.NXDomainCut = true
				}
			})
			for _, q := range trace.Queries {
				_, _ = r.Resolve(q.Name, q.Type)
			}
			st := r.Stats()
			return st.RootQueries, st.NSECSynthesized
		}
		for i, share := range nsecRamp {
			tr, err := mkTrace(share, 800+int64(i))
			if err != nil {
				return Result{ID: "t_overload", Title: "Overload behaviour", Notes: err.Error()}
			}
			cutRoots[i], _ = junkTrial(tr, false, 810+int64(i))
			nsecRoots[i], nsecSynths[i] = junkTrial(tr, true, 820+int64(i))
			if nsecRoots[i] > cutRoots[i] || nsecSynths[i] == 0 {
				nsecRampOK = false
			}
		}
	}

	// Per-root-mode trials at 4×: the local-root modes absorb the junk
	// without any root traffic at all.
	modes := []resolver.RootMode{resolver.RootModePreload, resolver.RootModeLookaside, resolver.RootModeLocalAuth}
	byMode := make([]loadOutcome, len(modes))
	for i, m := range modes {
		byMode[i] = trial(m, trace, 4, 700+int64(i), queued)
	}
	modesHold := true
	var modeText []string
	for i, m := range modes {
		o := byMode[i]
		if o.goodput() < 0.8*base.goodput() || o.rootQueries != 0 {
			modesHold = false
		}
		modeText = append(modeText, fmt.Sprintf("%s %.0f%%/p99 %v", m,
			100*o.goodput(), o.p99.Round(time.Millisecond)))
	}

	// Coalescing burst: a thundering herd on one cold name costs one
	// upstream flight, not one per caller.
	burstRes, burstCoal, burstQueries := func() (int64, int64, int64) {
		city++
		r := w.newResolver(resolver.RootModeHints, city, 900, func(c *resolver.Config) {
			c.Transport = slowWire{inner: c.Transport, delay: time.Millisecond}
			c.Coalesce = true
		})
		name, _ := w.tlds[0].Child("burst")
		name, _ = name.Child("www")
		const g = 64
		var wg sync.WaitGroup
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = r.Resolve(name, dnswire.TypeA)
			}()
		}
		wg.Wait()
		st := r.Stats()
		return st.Resolutions, st.CoalescedResolutions, st.TotalQueries
	}()

	// Authoritative-side protection: a root instance under a spoofed
	// identical-query flood limits the abuser per client and per response
	// class (classic RRL with slip), while an unrelated client is served.
	atkAnswered, atkSlipped, atkDropped, atkLimited, victimOK := func() (int, int, int, int64, int) {
		srv := authserver.New(w.rootZone)
		t0 := w.net.Now()
		srv.SetOverload(authserver.OverloadConfig{
			PerClientQPS: 5,
			RRLRate:      2,
			RRLSlip:      3,
			Clock:        func() time.Time { return t0 },
		})
		attacker := netip.MustParseAddr("203.0.113.7")
		victim := netip.MustParseAddr("198.51.100.9")
		q := dnswire.NewQuery(7, "www.spoofed.example.", dnswire.TypeA)
		answered, slipped, dropped := 0, 0, 0
		for i := 0; i < 100; i++ {
			switch resp := srv.Handle(q, attacker); {
			case resp == nil:
				dropped++
			case resp.Truncated:
				slipped++
			default:
				answered++
			}
		}
		vOK := 0
		for i, tld := range w.tlds[:3] {
			if resp := srv.Handle(dnswire.NewQuery(uint16(i), tld, dnswire.TypeNS), victim); resp != nil && !resp.Truncated {
				vOK++
			}
		}
		return answered, slipped, dropped, srv.Stats().RateLimited, vOK
	}()

	// SLO watchdog under the 4× fail-fast flood: the same ramp the daemon
	// would see, observed through the error-rate SLO resolverd wires up
	// (-slo-error-rate). Shed resolutions are errors, so the multi-window
	// burn rate blows through the threshold and the rising edge dumps the
	// flight-recorder ring — which must already contain the shed queries
	// that caused the burn.
	sloAlerts, sloBurnFast, sloDumpShed, sloDumpErr := func() (int, float64, int, error) {
		city++
		r := w.newResolver(resolver.RootModeHints, city, 903, func(c *resolver.Config) {
			c.Transport = slowWire{inner: c.Transport, delay: wireDelay}
			c.Coalesce = true
			c.NXDomainCut = true
			c.MaxInflight = capacity
			c.QueueDeadline = 0 // fail fast: over-capacity misses shed
		})
		dir, err := os.MkdirTemp("", "t_overload_flight")
		if err != nil {
			return 0, 0, 0, err
		}
		defer os.RemoveAll(dir)
		fr := obs.NewFlightRecorder(4096, dir)
		r.SetFlightRecorder(fr)
		wd := obs.NewWatchdog(w.net.Now)
		errSLO := wd.Add(obs.SLOConfig{Name: "errors", Budget: 0.01})
		var mu sync.Mutex
		alerts := 0
		var dumpPath string
		wd.OnAlert(func(name string, fast, slow float64) {
			p, _ := fr.Dump("slo-burn:" + name)
			mu.Lock()
			alerts++
			if dumpPath == "" {
				dumpPath = p
			}
			mu.Unlock()
		})
		r.SetSLOObserver(func(lat time.Duration, rcode dnswire.Rcode, err error) {
			errSLO.Observe(err == nil && rcode != dnswire.RcodeServFail)
		})
		replay(r, trace.Queries[len(trace.Queries)/2:], capacity*4)
		fast, _ := errSLO.BurnRates()
		if dumpPath == "" {
			return alerts, fast, 0, fmt.Errorf("no flight dump written")
		}
		data, err := os.ReadFile(dumpPath)
		if err != nil {
			return alerts, fast, 0, err
		}
		var doc struct {
			Reason  string             `json:"reason"`
			Digests []obs.FlightDigest `json:"digests"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return alerts, fast, 0, err
		}
		if doc.Reason != "slo-burn:errors" {
			return alerts, fast, 0, fmt.Errorf("dump reason %q", doc.Reason)
		}
		shed := 0
		for _, d := range doc.Digests {
			if d.Shed {
				shed++
			}
		}
		return alerts, fast, shed, nil
	}()

	// Serve-stale under shedding: a warmed resolver whose entries have
	// expired keeps answering through an overload because shed
	// resolutions fall back to RFC 8767 stale data.
	rescueOK, rescueTotal, rescueShed, rescueStale := func() (int, int, int64, int64) {
		city++
		r := w.newResolver(resolver.RootModeHints, city, 901, func(c *resolver.Config) {
			c.Transport = slowWire{inner: c.Transport, delay: wireDelay}
			c.MaxInflight = 1 // a single admission slot: trivially saturated
			c.ServeStale = true
			c.StaleLimit = 7 * 24 * time.Hour
		})
		names := w.workloadNames(24, 902)
		for _, name := range names {
			_, _ = r.Resolve(name, dnswire.TypeA)
		}
		w.net.Advance(2 * time.Hour) // answers (1 h TTL) expire; delegations live
		var mu sync.Mutex
		var next atomic.Int64
		ok := 0
		var wg sync.WaitGroup
		for k := 0; k < 12; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(names) {
						return
					}
					if res, err := r.Resolve(names[i], dnswire.TypeA); err == nil && res.Rcode == dnswire.RcodeSuccess {
						mu.Lock()
						ok++
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		st := r.Stats()
		return ok, len(names), st.ShedResolutions, st.StaleAnswers
	}()

	// Composition over time: a flood's junk mix is not static, it ramps.
	// Replay a trace whose injected bogus share climbs chunk by chunk
	// through a traffic.Analyzer-instrumented resolver (the same streaming
	// classifier the daemons mount on their hot path) and require the
	// measured invalid-TLD share to track the injected ramp twice over:
	// live, from per-chunk class-counter deltas, and after the fact, from
	// the embedded tsdb recorder's metric history.
	ramp := []float64{0.2, 0.45, 0.7, 0.9}
	chunkN := queries / 2
	compInjected := make([]float64, len(ramp))
	compMeasured := make([]float64, len(ramp))
	compOK := true
	histOK := false
	histText := "no recorded history"
	{
		city++
		r := w.newResolver(resolver.RootModeHints, city, 800, func(c *resolver.Config) {
			c.Coalesce = true
			c.NXDomainCut = true
		})
		an := traffic.NewAnalyzer(traffic.NewTLDSet(w.tlds), 8)
		r.SetTraffic(an)
		reg := obs.NewRegistry()
		reg.AddCollector(r)
		rec := tsdb.NewRecorder(reg, tsdb.Options{Interval: time.Second})
		t0 := w.date
		rec.Record(t0) // baseline tick before any traffic
		prev := an.Counts()
		for i, share := range ramp {
			cfg := scaledDITLConfig(chunkN)
			cfg.Seed = 800 + int64(i)
			cfg.BogusShare = share
			tr, err := ditl.Generate(cfg)
			if err != nil {
				return Result{ID: "t_overload", Title: "Overload behaviour", Notes: err.Error()}
			}
			truth := 0
			for _, q := range tr.Queries {
				_, _ = r.Resolve(q.Name, q.Type)
				if !valid[q.Name.TLD()] {
					truth++
				}
			}
			rec.Record(t0.Add(time.Duration(i+1) * time.Second))
			cur := an.Counts()
			var dBogus, dTotal int64
			for c := range cur {
				d := cur[c] - prev[c]
				dTotal += d
				if traffic.Class(c).InvalidTLD() {
					dBogus += d
				}
			}
			prev = cur
			compInjected[i] = float64(truth) / float64(len(tr.Queries))
			if dTotal > 0 {
				compMeasured[i] = float64(dBogus) / float64(dTotal)
			}
			// The class counters are exact counts, so the measured share
			// must equal the trace's realised share; the looser bound
			// against the configured share only absorbs generator rounding.
			if !within(compMeasured[i], compInjected[i], 0.02) || !within(compMeasured[i], share, 0.1) {
				compOK = false
			}
		}
		// The recorded history must tell the same story: one point per
		// chunk whose per-interval invalid-TLD rate climbs with the ramp.
		byName := map[string]traffic.Class{}
		for _, c := range traffic.Classes() {
			byName[c.String()] = c
		}
		sums := map[time.Time]float64{}
		var ticks []tsdb.Point
		for _, sd := range rec.Series(0, "rootless_traffic_class_total") {
			if !byName[sd.Labels["class"]].InvalidTLD() {
				continue
			}
			for _, p := range sd.Points {
				if _, seen := sums[p.T]; !seen {
					ticks = append(ticks, p)
				}
				sums[p.T] += p.V
			}
		}
		for i := range ticks {
			ticks[i].V = sums[ticks[i].T]
		}
		rates := tsdb.Rate(ticks)
		histOK = len(rates) == len(ramp)
		var parts []string
		for i, p := range rates {
			parts = append(parts, fmt.Sprintf("%.0f", p.V))
			if i > 0 && p.V <= rates[i-1].V {
				histOK = false
			}
		}
		if len(parts) > 0 {
			histText = strings.Join(parts, "/") + " queries per tick"
		}
	}
	compSeries := Series{
		Name:   "t_overload composition ramp (injected vs measured bogus share)",
		XLabel: "chunk", YLabel: "invalid-TLD share",
	}
	var compText []string
	for i := range ramp {
		compSeries.Append(float64(i), compMeasured[i])
		compText = append(compText, fmt.Sprintf("%.0f%%→%.1f%%", 100*ramp[i], 100*compMeasured[i]))
	}

	junkHold := byJunk[0].goodput() >= 0.8*base.goodput() && byJunk[1].goodput() >= 0.8*base.goodput() &&
		at4.cutHits > 0

	return Result{
		ID:    "t_overload",
		Title: "Overload behaviour: junk-fraction × offered-load (§2.2 mix)",
		Rows: []Row{
			row("trace junk fraction", "61% bogus TLDs", "%.1f%%", 100*hotBogusShare)(
				within(hotBogusShare, 0.61, 0.1)),
			row("legit goodput at capacity (1×)", "~100%", "%.1f%% (%d/%d)",
				100*base.goodput(), base.legitOK, base.legit)(base.goodput() >= 0.99),
			row("legit goodput at 4× capacity (queued gate)", "within 20% of baseline", "%.1f%% (p99 %v)",
				100*at4.goodput(), at4.p99.Round(time.Millisecond))(
				at4.goodput() >= 0.8*base.goodput()),
			row("fail-fast gate at 4×", "sheds fresh misses, cache still answers", "%s",
				fmt.Sprintf("%d shed, %.0f%% goodput", failFast.shed, 100*failFast.goodput()))(
				base.shed == 0 && failFast.shed > 0 && failFast.goodput() > 0),
			row("offered-load sweep (1×,2×,4×)", "no goodput collapse", "%s",
				fmt.Sprintf("%.0f%% / %.0f%% / %.0f%%", 100*byLoad[0].goodput(),
					100*byLoad[1].goodput(), 100*byLoad[2].goodput()))(
				byLoad[1].goodput() >= 0.8*base.goodput() && byLoad[2].goodput() >= 0.8*base.goodput()),
			row("junk sweep at 4× (20%,90% bogus)", "goodput holds, junk absorbed by NXDOMAIN cut", "%s",
				fmt.Sprintf("%.0f%% / %.0f%%, %d cut hits at 61%%", 100*byJunk[0].goodput(),
					100*byJunk[1].goodput(), at4.cutHits))(junkHold),
			row("composition ramp (injected→measured bogus)", "streaming analyzer tracks the mix per chunk", "%s",
				strings.Join(compText, ", "))(compOK),
			row("junk ramp 20→90%: root queries, cut vs NSEC-aggressive",
				"validated ranges need no more root trips than observed cuts", "%s",
				func() string {
					var parts []string
					for i := range nsecRamp {
						parts = append(parts, fmt.Sprintf("%.0f%%: %d vs %d (%d synth)",
							100*nsecRamp[i], cutRoots[i], nsecRoots[i], nsecSynths[i]))
					}
					return strings.Join(parts, ", ")
				}())(nsecRampOK),
			row("composition history via /timeseries recorder", "per-tick invalid-TLD rate climbs with the ramp", "%s",
				histText)(histOK),
			row("local-root modes at 4×", "goodput holds with zero root traffic", "%s",
				strings.Join(modeText, ", "))(modesHold),
			row("thundering herd of 64 on one name", "one upstream flight",
				"%d resolutions, %d coalesced, %d upstream queries",
				burstRes, burstCoal, burstQueries)(
				burstRes == 64 && burstCoal >= 48 && burstQueries <= 8),
			row("auth RRL vs 100-query spoofed flood", "2 sent, 1 slip (TC), 97 suppressed",
				"%d sent, %d slipped, %d dropped, %d client-limited",
				atkAnswered, atkSlipped, atkDropped, atkLimited)(
				atkAnswered == 2 && atkSlipped == 1 && atkDropped == 97 && atkLimited == 95),
			row("auth victim during flood", "3/3 answered", "%d/3", victimOK)(victimOK == 3),
			row("SLO watchdog under 4× fail-fast flood", "burn-rate alert fires once, dump holds the shed queries",
				"%s", func() string {
					if sloDumpErr != nil {
						return sloDumpErr.Error()
					}
					return fmt.Sprintf("%d alert (burn %.0f×), %d shed digests in dump",
						sloAlerts, sloBurnFast, sloDumpShed)
				}())(sloDumpErr == nil && sloAlerts == 1 && sloBurnFast >= 10 && sloDumpShed > 0),
			row("serve-stale rescue while shedding", "every answer lands, stale fills the shed gap",
				"%d/%d ok, %d shed, %d stale", rescueOK, rescueTotal, rescueShed, rescueStale)(
				rescueOK == rescueTotal && rescueShed > 0 && rescueStale > 0),
			row("latency attribution at 4× (queued gate)", "overload-wait appears under contention",
				"net %.0f ms, overload-wait %.1f ms (vs %.1f ms at 1×)",
				attrMS(at4.attr.NetNS), attrMS(at4.attr.OverloadWaitNS), attrMS(base.attr.OverloadWaitNS))(
				at4.attr.NetNS > 0 && at4.attr.OverloadWaitNS > base.attr.OverloadWaitNS),
		},
		Series: []Series{compSeries},
		Notes: fmt.Sprintf("capacity is %d admission slots over a %v-per-exchange wire; offered load is "+
			"closed-loop workers/capacity; the queued gate (50ms deadline, the daemon "+
			"default) keeps goodput at baseline through 4× because queue waits stay far "+
			"under the deadline, while the fail-fast gate (deadline 0) sheds every fresh "+
			"miss that cannot get a slot immediately — cache-served traffic, including the "+
			"junk absorbed by the RFC 8020 NXDOMAIN cut, is untouched in both regimes. The "+
			"knobs sweep junk share (20/61/90%%), offered load (1/2/4×), and all four root "+
			"modes; local-root modes hold goodput with zero root queries (%d coalesced at 4×). The attribution "+
			"row shows where the extra 4× latency lives: net time (the wire) barely moves "+
			"per query, while the overload-wait phase — admission-gate queueing plus "+
			"coalesced-flight waits, invisible before span tracing — grows three orders of "+
			"magnitude over the 1× baseline. The two composition rows replay a flood whose "+
			"injected bogus share ramps 20→45→70→90%% chunk by chunk through a "+
			"`traffic.Analyzer`-instrumented resolver (the same streaming classifier the "+
			"daemons mount): the live class-counter deltas must equal each chunk's realised "+
			"share — the class counters are exact, so tolerance only absorbs generator "+
			"rounding — and an embedded `tsdb.Recorder` ticked once per chunk must reproduce "+
			"the same ramp from its recorded `/timeseries` history. The junk-ramp row replays "+
			"the same 20→90%% bogus flood against a signed root twice — once with RFC 8020 "+
			"NXDOMAIN cuts, once as a strict validator with RFC 8198 aggressive NSEC — and "+
			"counts root queries: validated ranges deny junk the cut has not yet observed, so "+
			"the NSEC-aggressive resolver goes to the root strictly less often at every step.",
			capacity, wireDelay, at4.coalesced),
	}
}
