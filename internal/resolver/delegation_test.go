package resolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// A hostile upstream — or an off-path reply that guessed an ID — pads its
// responses with records about names nobody asked it about. None of that
// may reach the cache, the delegation table or the client; what the
// servers were entitled to say must still work, including a delegation to
// a nameserver outside their zone, whose planted address is ignored and
// whose real one is found by asking for it.
func TestBailiwickFilter(t *testing.T) {
	w := newCutWorld(t)
	evil := netip.MustParseAddr("6.6.6.6")
	planted := netip.MustParseAddr("10.9.9.9")
	bankA := dnswire.NewRR("www.bank.example.", 3600, dnswire.A{Addr: evil})
	bankNS := dnswire.NewRR("bank.example.", 3600, dnswire.NS{Host: "ns.evil.example."})
	var asked []netip.Addr
	w.tamper = func(dst netip.Addr, q dnswire.Question, resp *dnswire.Message) {
		asked = append(asked, dst)
		switch {
		case !w.tld[dst]:
			resp.Answers = append(slices.Clone(resp.Answers), bankA)
		case q.Name.IsSubdomainOf("out.tld."):
			// The cut's only nameserver lives under another TLD; the
			// address offered for it is not this server's to give.
			resp.Authority = []dnswire.RR{dnswire.NewRR("out.tld.", 172800, dnswire.NS{Host: "ns1.hoster.other."})}
			resp.Additional = []dnswire.RR{dnswire.NewRR("ns1.hoster.other.", 172800, dnswire.A{Addr: planted})}
		default:
			resp.Authority = append(slices.Clone(resp.Authority), bankNS)
			resp.Additional = append(slices.Clone(resp.Additional), bankA)
		}
	}
	r := w.resolver()

	res, err := r.Resolve("h.d.tld.", dnswire.TypeA)
	if err != nil || res.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("h.d.tld.: %+v, %v", res, err)
	}
	if len(res.Answers) != 1 || res.Answers[0].Name != "h.d.tld." {
		t.Errorf("answers = %v, want the one record that was asked for", res.Answers)
	}
	c := r.Cache()
	for _, planted := range []struct {
		name dnswire.Name
		typ  dnswire.Type
	}{{"www.bank.example.", dnswire.TypeA}, {"bank.example.", dnswire.TypeNS}} {
		if c.Peek(planted.name, planted.typ) {
			t.Errorf("%s %s was planted in the cache", planted.name, planted.typ)
		}
	}
	if d := r.closestDelegation("www.bank.example."); !d.local {
		t.Errorf("the delegation table sends bank.example. to %+v", d)
	}
	if !c.Peek("d.tld.", dnswire.TypeNS) || !c.Peek("ns1.d.tld.", dnswire.TypeA) || !c.Peek("h.d.tld.", dnswire.TypeA) {
		t.Error("the referral's own NS set, its glue or the answer is missing from the cache")
	}
	// Referral: the foreign NS record and the foreign address. Answer: the
	// foreign address again.
	if got := r.Stats().OutOfBailiwick; got != 3 {
		t.Errorf("OutOfBailiwick = %d, want 3", got)
	}

	asked = asked[:0]
	res, err = r.Resolve("h.out.tld.", dnswire.TypeA)
	if err != nil || res.Rcode != dnswire.RcodeSuccess || len(res.Answers) != 1 {
		t.Fatalf("h.out.tld.: %+v, %v", res, err)
	}
	if slices.Contains(asked, planted) {
		t.Errorf("queried the planted address: %v", asked)
	}
	if !slices.Contains(asked, sldAddr("hoster.other.")) {
		t.Errorf("never reached ns1.hoster.other. at %s: asked %v", sldAddr("hoster.other."), asked)
	}
	if st := r.Stats(); st.GlueChases != 1 {
		t.Errorf("GlueChases = %d, want 1", st.GlueChases)
	}
	if hit, ok := c.Get("ns1.hoster.other.", dnswire.TypeA); !ok || hit.RRs[0].Data.(dnswire.A).Addr == planted {
		t.Errorf("cached address of ns1.hoster.other. = %+v (%v): want the one its own zone gave", hit.RRs, ok)
	}
	// A second name under the glueless cut reuses the chased address.
	if _, err := r.Resolve("h2.out.tld.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.GlueChases != 1 {
		t.Errorf("GlueChases = %d after a second name under the cut, want still 1", st.GlueChases)
	}

	// A negative answer may not borrow another zone's SOA: a TLD server
	// answering NXDOMAIN with the root's would otherwise cut its own TLD
	// out of the namespace (RFC 8020) for the root's negative TTL.
	rootSOA := w.root.Lookup(dnswire.Root, dnswire.TypeSOA)
	w.tamper = func(dst netip.Addr, q dnswire.Question, resp *dnswire.Message) {
		*resp = dnswire.Message{Response: true, Authoritative: true, Rcode: dnswire.RcodeNXDomain, Authority: rootSOA}
	}
	r = w.resolver(func(c *Config) { c.NXDomainCut = true })
	if res, err := r.Resolve("nope.d.tld.", dnswire.TypeA); err != nil || res.Rcode != dnswire.RcodeNXDomain {
		t.Fatalf("nope.d.tld.: %+v, %v", res, err)
	}
	if r.Cache().NXDomainCovered("other.d.tld.") || r.Cache().Peek("nope.d.tld.", dnswire.TypeA) {
		t.Error("a TLD server's NXDOMAIN under the root's SOA was cached")
	}
}

// tabled is the live delegation the table holds for exactly cut, or nil.
func tabled(r *Resolver, cut dnswire.Name) *delegation {
	d := r.cuts.closest(cut, r.cache.Flushes(), r.cfg.Clock)
	if d == nil || d.zone != cut {
		return nil
	}
	return d
}

// sameDelegation reports whether two delegations send iteration to the
// same place.
func sameDelegation(a, b *delegation) bool {
	return a.zone == b.zone && slices.Equal(a.hosts, b.hosts) && slices.Equal(a.addrs, b.addrs)
}

// subDelegation reports whether a sends iteration nowhere b would not:
// same cut, same hosts, no address b lacks.
func subDelegation(a, b *delegation) bool {
	for _, addr := range a.addrs {
		if !slices.Contains(b.addrs, addr) {
			return false
		}
	}
	return a.zone == b.zone && slices.Equal(a.hosts, b.hosts)
}

// The table is a memo of the cache walk, so whatever it returns for a cut
// must be what the walk derives at that instant, or nothing — never a
// host or an address the walk would not find, never anything past the
// expiry of the shortest-lived record it was built from. Checked under a
// fake clock across random interleavings of referrals (glue shorter-lived
// than its NS set, NS sets replaced), time passing, Flush, SetLocalZone
// and PreloadRootZone.
//
// Two things can make the table hold less than the walk finds, and in
// those the test asks for "no more than" instead of "equal to". A
// referral that leaves out the glue of a host whose address the cache has
// from earlier: the delegation is built from the referral in hand and does
// not read the cache back (odd seeds never generate this, so equality is
// checked on them). And LRU eviction, which is a decision about room, not
// about truth: a delegation still within every TTL it was built from stays
// usable after the cache has dropped the records — that is what takes the
// TLD hop off the cache. So a second resolver with a cache too small to
// hold anything is fed the same history, and its table is held to the
// first one's walk: what eviction leaves in a table is still only what an
// unbounded cache would derive.
func TestDelegationMemoMatchesDerivation(t *testing.T) {
	w := newCutWorld(t)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1555000000, 0)
		clock := func() time.Time { return now }
		mode := RootModeLookaside
		if seed%2 == 0 {
			mode = RootModePreload
		}
		full := w.resolver(func(c *Config) { c.Clock = clock; c.Mode = mode })
		tiny := w.resolver(func(c *Config) { c.Clock = clock; c.Mode = mode; c.CacheCapacity = 4; c.CacheShards = 1 })
		both := []*Resolver{full, tiny}
		steadyGlue := seed%2 == 1 // a host either always comes with glue or never does

		cuts := make([]dnswire.Name, 12)
		for i := range cuts {
			cuts[i] = dnswire.Name(fmt.Sprintf("d%d.tld.", i))
		}
		check := func(step int, what string) {
			t.Helper()
			for _, cut := range cuts {
				derived := full.deriveDelegation(cut)
				if derived != nil && derived.zone != cut {
					derived = nil // the walk found only an ancestor
				}
				for _, r := range both {
					got := tabled(r, cut)
					if got == nil {
						continue
					}
					same := sameDelegation
					if r == tiny || !steadyGlue {
						same = subDelegation
					}
					if derived == nil || !same(got, derived) {
						t.Fatalf("seed %d step %d (%s): table of the %d-entry cache has %+v for %s, the walk derives %+v",
							seed, step, what, r.cfg.CacheCapacity, got, cut, derived)
					}
					// Built from the same records, the two run out together
					// (the walk reads whole seconds of remaining TTL).
					if sameDelegation(got, derived) && got.expires.After(derived.expires.Add(time.Second)) {
						t.Fatalf("seed %d step %d (%s): %s is in the table until %v, its records run out by %v",
							seed, step, what, cut, got.expires, derived.expires)
					}
				}
			}
		}
		for step := 0; step < 400; step++ {
			what := ""
			switch op := rng.Intn(20); {
			case op < 12:
				// A referral for a random cut: one or two in-zone hosts,
				// glue for some of them, TTLs drawn independently.
				cut := cuts[rng.Intn(len(cuts))]
				var ns, glue []dnswire.RR
				nsTTL := uint32(60 + rng.Intn(600))
				for h := 0; h <= rng.Intn(2); h++ {
					host := dnswire.Name(fmt.Sprintf("ns%d.%s", rng.Intn(3), cut))
					ns = append(ns, dnswire.NewRR(cut, nsTTL, dnswire.NS{Host: host}))
					withGlue := rng.Intn(4) > 0
					if steadyGlue {
						withGlue = host[2] != '2'
					}
					if withGlue {
						glue = append(glue, dnswire.NewRR(host, uint32(20+rng.Intn(600)), dnswire.A{Addr: sldAddr(host)}))
					}
				}
				for _, r := range both {
					next, _ := r.learn(cut, "tld.", ns, glue)
					r.cacheSets(ns, bailiwick{zone: "tld."}.authority)
					if next == nil {
						t.Fatalf("referral for %s built no delegation", cut)
					}
				}
				what = "referral " + string(cut)
			case op < 16:
				now = now.Add(time.Duration(1+rng.Intn(120)) * time.Second)
				what = "time passes"
			case op < 17:
				for _, r := range both {
					r.Cache().Flush()
				}
				what = "flush"
			case op < 18:
				for _, r := range both {
					r.SetLocalZone(w.root)
				}
				what = "SetLocalZone"
			case op < 19:
				for _, r := range both {
					r.PreloadRootZone(w.root)
				}
				what = "PreloadRootZone"
			default:
				// Lookups move entries between the table's generations
				// and add what the walk derives.
				for _, r := range both {
					r.closestDelegation(dnswire.Name("www." + string(cuts[rng.Intn(len(cuts))])))
				}
				what = "lookup"
			}
			check(step, what)
			if what == "flush" || what == "SetLocalZone" || what == "PreloadRootZone" {
				for _, r := range both {
					if n := r.DelegationStats().Entries; n != 0 {
						t.Fatalf("seed %d step %d: %d delegations survived %s", seed, step, n, what)
					}
				}
			}
		}
	}
}

// A cold stream brings a new second-level cut with every query; the table
// must stay bounded (this is what keeps resolver_cold's memory flat),
// keep admitting, and keep the cut it is asked about all along.
func TestDelegationTableBounded(t *testing.T) {
	w := newCutWorld(t)
	r := w.resolver()
	if _, err := r.Resolve("h.first.tld.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	now := r.cfg.Clock()
	var last dnswire.Name
	for i := 0; i < 2*maxDelegations+100; i++ {
		last = dnswire.Name(fmt.Sprintf("d%d.tld.", i))
		r.cuts.put(&delegation{zone: last, addrs: []netip.Addr{exampleV4}, expires: now.Add(time.Hour)}, 0)
		if i%1000 == 0 {
			if d := r.closestDelegation("www.busy.tld."); d.zone != "tld." {
				t.Fatalf("after %d cuts the TLD's delegation is gone: %+v", i, d)
			}
		}
		if n := r.DelegationStats().Entries; n > maxDelegations {
			t.Fatalf("table holds %d delegations after %d cuts, bound %d", n, i, maxDelegations)
		}
	}
	if tabled(r, last) == nil {
		t.Error("a full table must still admit the newest cut")
	}
	if tabled(r, "d0.tld.") != nil {
		t.Error("the oldest cut, never asked about again, should have aged out")
	}
	if st := r.Stats(); st.LocalRootConsults != 1 {
		t.Errorf("LocalRootConsults = %d: the TLD was re-consulted", st.LocalRootConsults)
	}
}

// TestDelegationTableRace runs resolutions, zone swaps, flushes and
// scrapes against one resolver at once; its worth is under -race.
func TestDelegationTableRace(t *testing.T) {
	w := newCutWorld(t)
	const workers, each = 4, 150
	for g := 0; g < workers; g++ {
		for i := 0; i < each; i++ {
			w.responses(dnswire.Name(fmt.Sprintf("h%d.d%d-%d.tld.", i, g, i%40)))
		}
	}
	r := w.resolver()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := dnswire.Name(fmt.Sprintf("h%d.d%d-%d.tld.", i, g, i%40))
				if res, err := r.Resolve(name, dnswire.TypeA); err != nil || res.Rcode != dnswire.RcodeSuccess {
					t.Errorf("%s: %+v, %v", name, res, err)
					return
				}
			}
		}(g)
	}
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				r.Cache().Flush()
			case 1:
				r.SetLocalZone(w.root)
			default:
				_ = r.DelegationStats()
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	churn.Wait()
}

// The hop budget is an operator's to see: the table's size and what its
// lookups found, and the bailiwick rule's count, on a scrape.
func TestDelegationMetricsExposed(t *testing.T) {
	w := newCutWorld(t)
	now := time.Unix(1555000000, 0)
	r := w.resolver(func(c *Config) { c.Clock = func() time.Time { return now } })
	for _, name := range []dnswire.Name{"a.d1.tld.", "b.d2.tld."} {
		if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	now = now.Add(72 * time.Hour) // past every TTL in the world
	if d := r.closestDelegation("c.d1.tld."); !d.local {
		t.Fatalf("an expired delegation was used: %+v", d)
	}
	reg := obs.NewRegistry()
	r.Collect(reg)
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		got[s.Name+"/"+s.Labels["result"]] = s.Value
	}
	// a.d1.tld.: worker and leader both miss (nothing known yet).
	// b.d2.tld.: both find tld. Then the lookup after expiry.
	for series, want := range map[string]float64{
		"rootless_resolver_delegation_entries/":              3, // tld., d1.tld., d2.tld.
		"rootless_resolver_delegation_lookups_total/miss":    2,
		"rootless_resolver_delegation_lookups_total/hit":     2,
		"rootless_resolver_delegation_lookups_total/expired": 1,
		"rootless_resolver_out_of_bailiwick_total/":          0,
	} {
		if v, ok := got[series]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", series, v, ok, want)
		}
	}
}

// The cache can lose a cut's glue and keep its NS set (they are separate
// entries). When the nameservers live inside the cut, chasing their
// addresses leads straight back to the cut: the walk must pass over it and
// let the parent's servers refer again.
func TestDeriveSkipsCutThatLostItsGlue(t *testing.T) {
	w := newCutWorld(t)
	r := w.resolver()
	if _, err := r.Resolve("a.d.tld.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	// Everything goes but d.tld.'s NS set.
	r.Cache().Flush()
	r.Cache().Put([]dnswire.RR{dnswire.NewRR("d.tld.", 172800, dnswire.NS{Host: "ns1.d.tld."})}, false)
	res, err := r.Resolve("b.d.tld.", dnswire.TypeA)
	if err != nil || res.Rcode != dnswire.RcodeSuccess || res.Queries != 2 {
		t.Fatalf("b.d.tld.: %+v, %v: want an answer by way of the TLD's referral", res, err)
	}
	if st := r.Stats(); st.GlueChases != 0 {
		t.Errorf("GlueChases = %d: chased a nameserver that lives under its own cut", st.GlueChases)
	}
}
