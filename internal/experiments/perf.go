package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/resolver"
)

var allModes = []resolver.RootMode{
	resolver.RootModeHints,
	resolver.RootModePreload,
	resolver.RootModeLookaside,
	resolver.RootModeLocalAuth,
}

// ResolutionLatency reproduces §4 "Performance": resolution latency per
// root mode over a Zipf workload, cold cache and warm cache separated.
// The paper predicts the local-root saving is modest because two-day TTLs
// make root answers highly cacheable — visible here as near-identical
// warm latencies but diverging cold-TLD latencies and root query counts.
func ResolutionLatency(lookups int) Result {
	w, err := buildWorld(1, ditlDate, 12)
	if err != nil {
		return Result{ID: "t_perf", Title: "Resolution latency", Notes: err.Error()}
	}

	type modeResult struct {
		cold, warm  obs.HDR // resolution latency in ns; Mean is exact, the sum is an int64
		rootQueries int64
		failures    int
		attr        obs.Attribution // per-phase latency attribution, summed over the trial
	}
	results := make(map[resolver.RootMode]*modeResult)
	names := w.workloadNames(lookups, 99)

	for _, mode := range allModes {
		mr := &modeResult{}
		results[mode] = mr
		r := w.newResolver(mode, 8, 5) // London client
		t := attrTracer()
		r.SetTracer(t)
		seen := make(map[dnswire.Name]bool)
		for _, name := range names {
			res, err := r.Resolve(name, dnswire.TypeA)
			if err != nil || res.Rcode != dnswire.RcodeSuccess {
				mr.failures++
				continue
			}
			if seen[name] {
				mr.warm.RecordDuration(res.Latency)
			} else {
				seen[name] = true
				mr.cold.RecordDuration(res.Latency)
			}
		}
		mr.rootQueries = r.Stats().RootQueries
		mr.attr = t.AttributionTotals()
	}

	classic := results[resolver.RootModeHints]
	look := results[resolver.RootModeLookaside]
	pre := results[resolver.RootModePreload]
	loop := results[resolver.RootModeLocalAuth]

	coldMS := func(m *modeResult) float64 { return m.cold.Mean() / 1e6 }
	overall := func(m *modeResult) float64 {
		return float64(m.cold.Sum()+m.warm.Sum()) / float64(m.cold.Count()+m.warm.Count())
	}
	coldSaving := coldMS(classic) - coldMS(look)
	warmDelta := (classic.warm.Mean() - look.warm.Mean()) / 1e6
	overallSavingPct := 100 * (overall(classic) - overall(look)) / overall(classic)

	rows := []Row{
		row("classic cold-lookup mean", "pays root RTT", "%.1f ms", coldMS(classic))(
			coldMS(classic) > 0),
		row("lookaside cold-lookup mean", "skips root RTT", "%.1f ms", coldMS(look))(
			coldMS(look) < coldMS(classic)),
		row("preload cold-lookup mean", "skips root RTT", "%.1f ms", coldMS(pre))(
			coldMS(pre) < coldMS(classic)),
		row("RFC7706 cold-lookup mean", "loopback ≈ free", "%.1f ms", coldMS(loop))(
			coldMS(loop) < coldMS(classic)+2),
		row("warm-lookup delta", "≈ 0 (cache absorbs roots)", "%.2f ms", warmDelta)(
			warmDelta < 2 && warmDelta > -2),
		row("cold saving per lookup", "one root transaction", "%.1f ms", coldSaving)(coldSaving > 0),
		row("overall saving", "modest at best", "%.1f%%", overallSavingPct)(
			overallSavingPct >= 0 && overallSavingPct < 35),
		row("root queries classic", ">0", "%d", classic.rootQueries)(classic.rootQueries > 0),
		row("root queries local modes", "0", "%d/%d/%d",
			look.rootQueries, pre.rootQueries, loop.rootQueries)(
			look.rootQueries == 0 && pre.rootQueries == 0 && loop.rootQueries == 0),
	}

	// Latency attribution (span tracing): where each mode's time actually
	// goes. Classic resolution is dominated by network exchanges; dropping
	// the root transactions shrinks the net phase, and lookaside's root
	// work reappears as on-box auth time.
	classicNetShare := phaseShare(classic.attr, classic.attr.NetNS+classic.attr.BackoffNS)
	rows = append(rows,
		row("classic attribution", "network-dominated", "%.0f%% net+backoff of %.0f ms attributed",
			100*classicNetShare, attrMS(classic.attr.Total()))(classicNetShare > 0.5),
		row("net time, lookaside vs classic", "root RTTs drop out of the net phase", "%.0f ms vs %.0f ms",
			attrMS(look.attr.NetNS), attrMS(classic.attr.NetNS))(
			look.attr.NetNS < classic.attr.NetNS),
		row("lookaside auth time", "root consults move on-box (>0, tiny)", "%.2f ms total",
			attrMS(look.attr.AuthNS))(look.attr.AuthNS > 0),
	)

	// Tail latency over every resolution, cold and warm merged: the means
	// above hide where the root RTT actually lives — the cold-lookup
	// tail. The log-linear HDR resolves p999 to ~1% relative error at any
	// magnitude.
	tail := func(m *modeResult) [4]float64 {
		var all obs.HDR
		all.Merge(&m.cold)
		all.Merge(&m.warm)
		return all.TailSeconds()
	}
	fmtTail := func(t [4]float64) string {
		return fmt.Sprintf("%.1f / %.1f / %.1f ms", 1e3*t[0], 1e3*t[1], 1e3*t[2])
	}
	classicTail := tail(classic)
	lookTail := tail(look)
	rows = append(rows,
		row("classic p50/p99/p999", "the p999 carries the root RTT the mean hides", "%s",
			fmtTail(classicTail))(classicTail[2] > classicTail[0] && classicTail[2] > 0),
		row("lookaside p50/p99/p999", "tail shrinks with the root hop gone", "%s",
			fmtTail(lookTail))(lookTail[2] <= classicTail[2]),
	)
	return Result{
		ID:    "t_perf",
		Title: "Resolution latency by root mode (§4 Performance)",
		Rows:  rows,
		Notes: fmt.Sprintf("%d lookups, Zipf TLD popularity, single London resolver per mode. The "+
			"attribution rows come from span tracing (DESIGN.md §7a): totals sum "+
			"per-phase self-time across all %d lookups, so they exceed any single "+
			"wall clock; the finding is the *shift* — lookaside moves the root "+
			"transaction out of the net phase and into a tiny on-box auth phase.", lookups, lookups),
	}
}

// Robustness reproduces §4 "Robustness": lookup success under root
// outages — classic resolvers survive partial outages via failover but
// die with all 13 letters down; local-root resolvers ride out even a
// total outage inside the refresh window.
func Robustness() Result {
	w, err := buildWorld(2, ditlDate, 6)
	if err != nil {
		return Result{ID: "t_robust", Title: "Robustness", Notes: err.Error()}
	}

	// Fresh resolvers per scenario so caches don't mask the root path.
	trial := func(mode resolver.RootMode, lettersDown int, lookups int) (successes int, timeouts int64) {
		for _, a := range w.rootAddrs {
			w.net.SetAddrDown(a, false)
		}
		for i := 0; i < lettersDown; i++ {
			w.net.SetAddrDown(w.rootAddrs[i], true)
		}
		r := w.newResolver(mode, 20, int64(100+lettersDown))
		names := w.workloadNames(lookups, int64(lettersDown)*7+int64(mode))
		for _, n := range names {
			res, err := r.Resolve(n, dnswire.TypeA)
			if err == nil && res.Rcode == dnswire.RcodeSuccess {
				successes++
			}
		}
		return successes, r.Stats().Timeouts
	}

	const lookups = 60
	classicOK, _ := trial(resolver.RootModeHints, 0, lookups)
	classic6, t6 := trial(resolver.RootModeHints, 6, lookups)
	classic13, _ := trial(resolver.RootModeHints, 13, lookups)
	local13, _ := trial(resolver.RootModeLookaside, 13, lookups)
	loop13, _ := trial(resolver.RootModeLocalAuth, 13, lookups)
	w.allRootsDown(false)

	// The incumbent alternative: RFC 8767 serve-stale. Warm a classic
	// resolver, let every cached TTL run out, then take all 13 letters
	// down: previously-seen names still answer (stale), unseen ones fail.
	staleSeen, staleUnseenFail, staleUnseen := 0, 0, 0
	{
		r := w.newResolverStale(12, 3)
		seen := w.workloadNames(lookups, 71)
		seenSet := make(map[dnswire.Name]bool)
		for _, n := range seen {
			seenSet[n] = true
			_, _ = r.Resolve(n, dnswire.TypeA)
		}
		w.net.Advance(72 * time.Hour) // beyond the 2-day TLD TTLs
		w.allRootsDown(true)
		for _, n := range seen {
			if res, err := r.Resolve(n, dnswire.TypeA); err == nil && res.Rcode == dnswire.RcodeSuccess {
				staleSeen++
			}
		}
		for _, n := range w.workloadNames(lookups, 72) {
			if seenSet[n] {
				continue
			}
			seenSet[n] = true
			staleUnseen++
			if res, err := r.Resolve(n, dnswire.TypeA); err != nil || res.Rcode != dnswire.RcodeSuccess {
				staleUnseenFail++
			}
		}
		w.allRootsDown(false)
	}

	return Result{
		ID:    "t_robust",
		Title: "Lookup success under root outages (§4 Robustness)",
		Rows: []Row{
			row("classic, all roots up", "works", "%d/%d", classicOK, lookups)(classicOK == lookups),
			row("classic, 6 letters down", "failover works (with retries)",
				fmt.Sprintf("%d/%d, %d timeouts", classic6, lookups, t6))(classic6 == lookups && t6 > 0),
			row("classic, all 13 down", "fails", "%d/%d", classic13, lookups)(classic13 == 0),
			row("lookaside, all 13 down", "works", "%d/%d", local13, lookups)(local13 == lookups),
			row("RFC7706, all 13 down", "works", "%d/%d", loop13, lookups)(loop13 == lookups),
			row("serve-stale, all 13 down, seen names", "stale cache covers the past",
				"%d/%d", staleSeen, lookups)(staleSeen == lookups),
			row("serve-stale, all 13 down, unseen names", "cannot cover new names; local root can",
				"%d/%d fail", staleUnseenFail, staleUnseen)(staleUnseen > 0 && staleUnseenFail == staleUnseen),
		},
		Notes: "fresh cold-cache resolver per scenario; serve-stale (RFC 8767) is the incumbent fallback the local root zone strictly dominates",
	}
}

// Attack reproduces §4 "Security": an on-path attacker answering for the
// 13 root addresses ("root manipulation") poisons a classic resolver's
// view of any TLD, while local-root resolvers never expose a root
// transaction to manipulate.
func Attack(lookups int) Result {
	w, err := buildWorld(3, ditlDate, 6)
	if err != nil {
		return Result{ID: "t_attack", Title: "Root manipulation", Notes: err.Error()}
	}
	evilNS := dnswire.Name("ns.attacker-controlled.example.")
	evilAddr := netip.MustParseAddr("198.18.66.66")
	evilAnswer := netip.MustParseAddr("198.18.66.99")

	// The attacker's fake TLD server answers everything with its own
	// address.
	w.net.AddHost("attacker", evilAddr, anycast.CityLocation(0),
		netsimHandler(func(q *dnswire.Message) *dnswire.Message {
			return &dnswire.Message{
				ID: q.ID, Response: true, Authoritative: true, Questions: q.Questions,
				Answers: []dnswire.RR{dnswire.NewRR(q.Questions[0].Name, 60,
					dnswire.A{Addr: evilAnswer})},
			}
		}))

	rootSet := make(map[netip.Addr]bool)
	for _, a := range w.rootAddrs {
		rootSet[a] = true
	}
	w.net.SetInterceptor(func(_ anycast.GeoPoint, dst netip.Addr, q *dnswire.Message) (*dnswire.Message, bool) {
		if !rootSet[dst] {
			return nil, false
		}
		// Forge a referral handing the whole queried TLD to the attacker.
		tld := q.Questions[0].Name.TLD()
		return &dnswire.Message{
			ID: q.ID, Response: true, Questions: q.Questions,
			Authority:  []dnswire.RR{dnswire.NewRR(tld, 172800, dnswire.NS{Host: evilNS})},
			Additional: []dnswire.RR{dnswire.NewRR(evilNS, 172800, dnswire.A{Addr: evilAddr})},
		}, true
	})
	defer w.net.SetInterceptor(nil)

	poisonShare := func(mode resolver.RootMode) float64 {
		r := w.newResolver(mode, 3, 17)
		names := w.workloadNames(lookups, 31+int64(mode))
		poisoned := 0
		for _, n := range names {
			res, err := r.Resolve(n, dnswire.TypeA)
			if err != nil || res.Rcode != dnswire.RcodeSuccess {
				continue
			}
			for _, rr := range res.Answers {
				if a, ok := rr.Data.(dnswire.A); ok && a.Addr == evilAnswer {
					poisoned++
					break
				}
			}
		}
		return float64(poisoned) / float64(lookups)
	}

	classic := poisonShare(resolver.RootModeHints)
	look := poisonShare(resolver.RootModeLookaside)
	pre := poisonShare(resolver.RootModePreload)

	return Result{
		ID:    "t_attack",
		Title: "Root-manipulation MITM (§4 Security)",
		Rows: []Row{
			row("classic poisoned lookups", "entire namespace at risk", "%.0f%%", 100*classic)(classic > 0.9),
			row("lookaside poisoned lookups", "0% (no root transactions)", "%.0f%%", 100*look)(look == 0),
			row("preload poisoned lookups", "0% (no root transactions)", "%.0f%%", 100*pre)(pre == 0),
		},
		Notes: "attacker forges referrals for all 13 root addresses; local modes remove the attack surface",
	}
}

// netsimHandler adapts a message function to netsim.Handler.
type netsimHandler func(*dnswire.Message) *dnswire.Message

func (f netsimHandler) Handle(q *dnswire.Message, _ netip.Addr) *dnswire.Message { return f(q) }

// Privacy reproduces §4 "Privacy": how many full client qnames does an
// observer on the root path see, per mode and with QNAME minimisation.
func Privacy(lookups int) Result {
	w, err := buildWorld(4, ditlDate, 6)
	if err != nil {
		return Result{ID: "t_privacy", Title: "Privacy", Notes: err.Error()}
	}
	rootSet := make(map[netip.Addr]bool)
	for _, a := range w.rootAddrs {
		rootSet[a] = true
	}
	var observed []dnswire.Name
	w.net.AddObserver(func(_ anycast.GeoPoint, dst netip.Addr, q *dnswire.Message) {
		if rootSet[dst] {
			observed = append(observed, q.Questions[0].Name)
		}
	})

	run := func(mode resolver.RootMode, qmin bool) (full, minimal int) {
		observed = nil
		loc := 5
		r := w.newResolver(mode, loc, 23)
		if qmin {
			// Rebuild with QMIN (config knob lives on the resolver).
			r = w.newResolverQMIN(mode, loc, 23)
		}
		names := w.workloadNames(lookups, 47+int64(mode))
		for _, n := range names {
			_, _ = r.Resolve(n, dnswire.TypeA)
		}
		for _, n := range observed {
			if n.LabelCount() > 1 {
				full++
			} else {
				minimal++
			}
		}
		return full, minimal
	}

	classicFull, _ := run(resolver.RootModeHints, false)
	qminFull, qminMin := run(resolver.RootModeHints, true)
	lookFull, lookMin := run(resolver.RootModeLookaside, false)

	// Junk leakage: queries for names under invented TLDs (§2.2 junk).
	// A cut-based resolver still sends each previously-unseen junk qname
	// to a root letter before the cut absorbs its TLD; an NSEC-aggressive
	// validator learns covering ranges, so junk falling inside an
	// already-proven gap is denied locally and never reaches the wire.
	cutLeaked, nsecLeaked := 0, 0
	{
		signer, serr := w.signWorldRoot(31)
		if serr != nil {
			return Result{ID: "t_privacy", Title: "Privacy", Notes: serr.Error()}
		}
		junk := w.junkNames(lookups, 900)
		leaked := func(opt func(*resolver.Config)) int {
			observed = nil
			r := w.newResolver(resolver.RootModeHints, 6, 29, opt)
			for _, n := range junk {
				_, _ = r.Resolve(n, dnswire.TypeA)
			}
			distinct := make(map[dnswire.Name]bool)
			for _, n := range observed {
				if n.LabelCount() > 1 {
					distinct[n] = true
				}
			}
			return len(distinct)
		}
		cutLeaked = leaked(func(c *resolver.Config) { c.NXDomainCut = true })
		nsecLeaked = leaked(func(c *resolver.Config) {
			c.Validate = validator.PolicyStrict
			c.TrustAnchor = signer.TrustAnchor()
			c.NSECAggressive = true
		})
	}

	return Result{
		ID:    "t_privacy",
		Title: "Qnames exposed to a root-path observer (§4 Privacy)",
		Rows: []Row{
			row("classic full qnames exposed", "every cold lookup leaks", "%d", classicFull)(classicFull > 0),
			row("QMIN full qnames exposed", "only germane labels sent", "%d (plus %d TLD-only)", qminFull, qminMin)(
				qminFull == 0 && qminMin > 0),
			row("local-root qnames exposed", "0 (transactions eliminated)", "%d full, %d minimal", lookFull, lookMin)(
				lookFull == 0 && lookMin == 0),
			row("junk qnames leaked, cut vs NSEC-aggressive", "validated ranges leak no more than observed cuts",
				"%d cut, %d nsec of %d junk lookups", cutLeaked, nsecLeaked, lookups)(
				nsecLeaked <= cutLeaked && nsecLeaked < lookups),
		},
		Notes: "observer taps the path to all 13 root addresses; the junk row signs the root " +
			"in place and compares RFC 8020 cuts (leak once per unseen junk qname until its TLD's " +
			"cut is cached) against RFC 8198 aggressive NSEC (leak only until the covering ranges " +
			"are proven, then deny locally)",
	}
}

// Complexity reproduces §4 "Complexity Reduction": the SRTT-based root
// server selection machinery a classic resolver must run, which local
// modes delete outright.
func Complexity(lookups int) Result {
	w, err := buildWorld(5, ditlDate, 6)
	if err != nil {
		return Result{ID: "t_complex", Title: "Complexity", Notes: err.Error()}
	}
	measure := func(mode resolver.RootMode) (rootQ, selections int64, srttEntries int) {
		r := w.newResolver(mode, 12, 3)
		names := w.workloadNames(lookups, 61+int64(mode))
		for _, n := range names {
			_, _ = r.Resolve(n, dnswire.TypeA)
		}
		st := r.Stats()
		return st.RootQueries, st.ServerSelections, r.SRTTStateSize()
	}

	cRoot, cSel, cState := measure(resolver.RootModeHints)
	lRoot, lSel, lState := measure(resolver.RootModeLookaside)

	return Result{
		ID:    "t_complex",
		Title: "Root selection machinery (§4 Complexity)",
		Rows: []Row{
			row("classic root queries", "needs 13-way selection", "%d", cRoot)(cRoot > 0),
			row("classic SRTT selections", "history-guided choice", "%d over %d tracked servers", cSel, cState)(cSel > 0),
			row("local root queries", "question becomes moot", "%d", lRoot)(lRoot == 0),
			row("local selections (TLD only)", "root share removed", "%d over %d tracked servers", lSel, lState)(
				lState <= cState),
		},
		Notes: "SRTT state and selections remain for TLD servers in both modes; the root share disappears",
	}
}
