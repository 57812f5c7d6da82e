package zone_test

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// The zone the paper is about, as the benchmark serves it: the
// 2019-04-11 root, signed, with an NSEC chain over the apex and every
// delegation (about 4.4 K owner names, 1.5 K of them NSEC owners).
var snapshotDate = time.Date(2019, 4, 11, 0, 0, 0, 0, time.UTC)

type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) { return d.r.Read(p) }

var signedRoot = sync.OnceValues(func() (*zone.Zone, error) {
	z, err := rootzone.Build(snapshotDate)
	if err != nil {
		return nil, err
	}
	signer, err := dnssec.NewSigner(dnswire.Root, detRand{rand.New(rand.NewSource(1))})
	if err != nil {
		return nil, err
	}
	signer.AddNSEC = true
	return z, signer.SignZone(z, snapshotDate)
})

// rootZone returns the shared signed root; tests that mutate take a Clone.
func rootZone(tb testing.TB) *zone.Zone {
	tb.Helper()
	z, err := signedRoot()
	if err != nil {
		tb.Fatal(err)
	}
	return z
}

// refNames is the parent's Names: collect, then sort.
func refNames(z *zone.Zone) []dnswire.Name {
	names := z.OwnerNames()
	sort.Slice(names, func(i, j int) bool { return names[i].Compare(names[j]) < 0 })
	return names
}

// refNSECCovering is the parent's NSECCovering without its per-call
// sort: chain is every NSEC in canonical owner order, and the record
// covering name is the one at the last owner not after it, found by
// walking the whole chain; before the first owner it wraps to the last.
func refNSECCovering(chain []dnswire.RR, name dnswire.Name) (dnswire.RR, bool) {
	if len(chain) == 0 {
		return dnswire.RR{}, false
	}
	covering := chain[len(chain)-1]
	for _, link := range chain {
		if link.Name.Compare(name) <= 0 {
			covering = link
		}
	}
	return covering, true
}

// refHasDescendants is the parent's linear scan of every owner name.
func refHasDescendants(names []dnswire.Name, name dnswire.Name) bool {
	for _, n := range names {
		if n != name && n.IsSubdomainOf(name) {
			return true
		}
	}
	return false
}

// refDeny is Deny by scans: a name outside the zone, owning records or
// below a cut is not denied; one with a descendant is an empty
// non-terminal; otherwise its closest encloser is found by walking up to
// the first ancestor that is an owner or has a descendant, and the NSECs
// covering the name and *.<encloser> by walking the chain.
func refDeny(z *zone.Zone, names []dnswire.Name, chain []dnswire.RR, p dnswire.Name) (zone.Denial, bool) {
	if !p.IsSubdomainOf(z.Origin) || z.HasName(p) {
		return zone.Denial{}, false
	}
	for a := p.Parent(); a != z.Origin && a.IsSubdomainOf(z.Origin); a = a.Parent() {
		if len(z.Lookup(a, dnswire.TypeNS)) > 0 {
			return zone.Denial{}, false
		}
	}
	var d zone.Denial
	d.Cover, _ = refNSECCovering(chain, p)
	if refHasDescendants(names, p) {
		return d, true
	}
	d.NXDomain = true
	d.Encloser = p.Parent()
	for d.Encloser != z.Origin && !z.HasName(d.Encloser) && !refHasDescendants(names, d.Encloser) {
		d.Encloser = d.Encloser.Parent()
	}
	if d.Cover.Data != nil {
		wildcard, err := d.Encloser.Child("*")
		if err != nil {
			panic(err)
		}
		d.Wildcard, _ = refNSECCovering(chain, wildcard)
	}
	return d, true
}

// checkIndexed holds the indexed lookups to the references for each
// probe name.
func checkIndexed(t *testing.T, z *zone.Zone, probes []dnswire.Name) {
	t.Helper()
	names := refNames(z)
	if got := z.Names(); fmt.Sprint(got) != fmt.Sprint(names) {
		t.Fatalf("Names() differs from collect-and-sort: %d vs %d names", len(got), len(names))
	}
	var chain []dnswire.RR
	for _, n := range names {
		if rrs := z.Lookup(n, dnswire.TypeNSEC); len(rrs) > 0 {
			chain = append(chain, rrs[0])
		}
	}
	for _, p := range probes {
		got, ok := z.NSECCovering(p)
		want, wantOK := refNSECCovering(chain, p)
		if ok != wantOK || (ok && got.String() != want.String()) {
			t.Fatalf("NSECCovering(%q) = %v, %v; reference %v, %v", p, got, ok, want, wantOK)
		}
		if g, w := z.HasDescendants(p), refHasDescendants(names, p); g != w {
			t.Fatalf("hasDescendants(%q) = %v, reference %v", p, g, w)
		}
		g, gok := z.Deny(p)
		w, wok := refDeny(z, names, chain, p)
		if gok != wok || g.NXDomain != w.NXDomain || g.Encloser != w.Encloser ||
			!reflect.DeepEqual(g.Cover, w.Cover) || !reflect.DeepEqual(g.Wildcard, w.Wildcard) {
			t.Fatalf("Deny(%q) = %+v, %v; reference %+v, %v", p, g, gok, w, wok)
		}
	}
}

// junkProbes are the benchmark's junk shapes plus the edges of the
// chain: names before the first and after the last NSEC owner, empty
// non-terminals, names between siblings, descendants of delegations.
func junkProbes(z *zone.Zone, r *rand.Rand, n int) []dnswire.Name {
	letters := func(k int) string {
		b := make([]byte, k)
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	probes := []dnswire.Name{
		dnswire.Root, "-.", "0.", "a.", "aaa.", "zzzzzzzzzzzz.", "~.", "net.", "root-servers.net.",
		"servers.net.", "nic.", "gtld-servers.net.", "x.gtld-servers.net.", "www.example.com.",
		`a\.b.com.`, `\000.`, `\255.`, "COM.", "Xn--Zzzz.", "*.", "!.", "!x.*.", `esc\.aped.`, `x.esc\.aped.`,
		`esc.`, `aped.`, `\000\001.`, `x.\000.`, `com\..`, `q\.x.nosuchtld.`,
	}
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0, 1, 2:
			probes = append(probes, dnswire.Name(letters(7+r.Intn(9))+"."))
		default:
			probes = append(probes, dnswire.Name(fmt.Sprintf("q%d.%s.", i, letters(6+r.Intn(6)))))
		}
	}
	return probes
}

// TestIndexedLookupsMatchLinearScans holds every indexed lookup to its
// scan, on the root (every name plain: the searches compare sort keys,
// save for the escaped probes) and on the root with one owner whose
// label holds an escaped dot (the index then has no keys, and every
// search compares names).
func TestIndexedLookupsMatchLinearScans(t *testing.T) {
	escaped := rootZone(t).Clone()
	if err := escaped.Add(dnswire.NewRR(`esc\.aped.`, 60, dnswire.TXT{Strings: []string{"x"}})); err != nil {
		t.Fatal(err)
	}
	for _, z := range []*zone.Zone{rootZone(t), escaped} {
		r := rand.New(rand.NewSource(2))
		probes := append(z.Names(), junkProbes(z, r, 3000)...)
		// Every owner's parent too: glue hosts make nic.<tld>. style empty
		// non-terminals.
		for _, n := range z.Names() {
			probes = append(probes, n.Parent())
		}
		if want := z != escaped; z.Keyed() != want {
			t.Fatalf("Keyed() = %v, want %v", z.Keyed(), want)
		}
		checkIndexed(t, z, probes)
	}
}

func TestIndexUnsignedZone(t *testing.T) {
	z, err := rootzone.Build(snapshotDate)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := z.NSECCovering("nosuchtld."); ok {
		t.Fatal("unsigned zone produced a covering NSEC")
	}
	checkIndexed(t, z, junkProbes(z, rand.New(rand.NewSource(3)), 200))
}

func TestIndexEmptyNonTerminals(t *testing.T) {
	for _, escaped := range []bool{false, true} {
		z := zone.New("example.")
		add := func(name dnswire.Name) {
			if err := z.Add(dnswire.NewRR(name, 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")})); err != nil {
				t.Fatal(err)
			}
		}
		_ = z.Add(dnswire.NewRR("example.", 60, dnswire.SOA{MName: "m.", RName: "r.", Serial: 1}))
		add("a.b.c.example.")
		add("z.example.")
		add("bb.example.") // sorts next to b.example. without being below it
		if escaped {
			add(`x\.y.example.`) // one label "x.y": no descendant of y.example.
		}
		for name, want := range map[dnswire.Name]bool{
			"c.example.": true, "b.c.example.": true, "a.b.c.example.": false,
			"b.example.": false, "y.example.": false, "example.": true, "d.example.": false,
			"zz.example.": false, "0.example.": false,
		} {
			if got := z.HasDescendants(name); got != want {
				t.Errorf("hasDescendants(%q) = %v, want %v", name, got, want)
			}
			wantRcode := dnswire.RcodeNXDomain
			if want || z.HasName(name) {
				wantRcode = dnswire.RcodeSuccess
			}
			if ans := z.Query(name, dnswire.TypeTXT); ans.Rcode != wantRcode {
				t.Errorf("Query(%q) rcode = %v, want %v", name, ans.Rcode, wantRcode)
			}
		}
		// Names whose closest encloser is an empty non-terminal, found from
		// the name after them (0.c. sorts before a.b.c.) or before them.
		checkIndexed(t, z, append(z.Names(), "c.example.", "b.example.", "y.example.", "0.example.", "zz.example.",
			"0.c.example.", "0.b.c.example.", "z.b.c.example.", "z.c.example.", "b.a.b.c.example.", "0.bb.example."))
		if z.Keyed() == escaped {
			t.Errorf("escaped owner %v: Keyed() = %v", escaped, z.Keyed())
		}
	}
}

// Every Add and Remove that changes the owner set or the NSEC chain
// must drop the index: after any interleaving of mutations the indexed
// lookups still equal the scans of the zone as it now is.
func TestIndexInvalidatedByMutation(t *testing.T) {
	z := rootZone(t).Clone()
	r := rand.New(rand.NewSource(4))
	names := z.Names()
	if !z.Indexed() {
		t.Fatal("Names() left no index behind")
	}
	for round := 0; round < 40; round++ {
		for k := r.Intn(4); k >= 0; k-- {
			victim := names[r.Intn(len(names))]
			switch r.Intn(5) {
			case 0: // drop a whole owner: a gap in the chain
				z.Remove(victim, dnswire.TypeANY)
			case 1: // drop only its NSEC: still a name, no longer a link
				z.Remove(victim, dnswire.TypeNSEC)
			case 2: // a new NSEC owner between two old ones
				owner := dnswire.Name(fmt.Sprintf("new%d.", r.Intn(1000)))
				_ = z.Add(dnswire.NewRR(owner, 60, dnswire.NSEC{NextName: victim, Types: []dnswire.Type{dnswire.TypeNSEC}}))
			case 3: // a new deep name: new empty non-terminals above it
				_ = z.Add(dnswire.NewRR(dnswire.Name(fmt.Sprintf("h%d.ent%d.deep.", r.Intn(9), r.Intn(9))), 60,
					dnswire.A{Addr: netip.MustParseAddr("192.0.2.7")}))
			case 4: // same owner set, new record
				_ = z.Add(dnswire.NewRR(victim, 60, dnswire.TXT{Strings: []string{fmt.Sprint(round)}}))
			}
		}
		probes := junkProbes(z, r, 50)
		probes = append(probes, "deep.", "ent3.deep.", names[r.Intn(len(names))], names[r.Intn(len(names))])
		checkIndexed(t, z, probes)
	}
}

// The index outlives every mutation that leaves what it lists alone: a
// clone starts with its source's, an RRset that comes or goes at a
// standing owner keeps it, and an owner or an NSEC that comes or goes
// drops it, on the zone mutated and on no other generation.
func TestIndexBuiltByNames(t *testing.T) {
	src := rootZone(t)
	src.Names()
	z := src.Clone()
	if !z.Indexed() {
		t.Fatal("a clone of an indexed zone did not inherit the index")
	}
	probes := []dnswire.Name{"com.", "comx.", "nosuchtld.", "net.", "zz.", "new.", "ns.new."}
	keeps := func(what string, mutate func()) {
		t.Helper()
		mutate()
		if !z.Indexed() {
			t.Fatalf("%s dropped the index", what)
		}
		checkIndexed(t, z, probes)
	}
	drops := func(what string, mutate func()) {
		t.Helper()
		z.Names()
		mutate()
		if z.Indexed() {
			t.Fatalf("%s left a stale index in place", what)
		}
		checkIndexed(t, z, probes)
	}
	txt := func(name dnswire.Name) dnswire.RR {
		return dnswire.NewRR(name, 60, dnswire.TXT{Strings: []string{"x"}})
	}
	keeps(`Remove("com.", DS)`, func() { z.Remove("com.", dnswire.TypeDS) })
	keeps("removing a type the owner lacks", func() { z.Remove("com.", dnswire.TypeTXT) })
	keeps("removing at a name that is not there", func() { z.Remove("nosuchtld.", dnswire.TypeANY) })
	keeps("a new RRset at a standing owner", func() { _ = z.Add(txt("com.")) })
	keeps("a duplicate record", func() { _ = z.Add(txt("com.")) })
	drops("a new owner", func() { _ = z.Add(txt("ns.new.")) })
	drops("an owner's last RRset going", func() { z.Remove("ns.new.", dnswire.TypeTXT) })
	drops("a new NSEC at a standing owner", func() {
		z.Remove("com.", dnswire.TypeNSEC) // (itself a drop)
		z.Names()
		_ = z.Add(dnswire.NewRR("com.", 60, dnswire.NSEC{NextName: "net.", Types: []dnswire.Type{dnswire.TypeNS}}))
	})
	drops("an NSEC going", func() { z.Remove("net.", dnswire.TypeNSEC) })
	drops("a whole owner going", func() { z.Remove("org.", dnswire.TypeANY) })
	if !src.Indexed() {
		t.Fatal("mutating the clone dropped its source's index")
	}
	checkIndexed(t, src, probes)

	fresh := zone.New(dnswire.Root)
	_ = fresh.Add(txt("a."))
	if fresh.Indexed() {
		t.Fatal("a zone nobody has read from should build its index lazily")
	}
	fresh.Names()
	if !fresh.Indexed() {
		t.Fatal("Names() did not leave the index in place")
	}
}

// TestConcurrentQueryAndMutation is the regression test for Query
// reading a per-owner type map after releasing the lock: readers hammer
// every indexed entry point while writers add and remove records at the
// one owner name they all look at, and while cloners take generations
// off the served zone and write to those at the same owner, so that the
// node everyone reads is shared, copied and written all the time. Run
// under -race.
func TestConcurrentQueryAndMutation(t *testing.T) {
	// A small signed-looking zone: every rebuild of the index the
	// writers force is microseconds, so the readers get through many.
	z := zone.New(dnswire.Root)
	_ = z.Add(dnswire.NewRR(dnswire.Root, 60, dnswire.SOA{MName: "m.", RName: "r.", Serial: 1}))
	for i := 0; i < 40; i++ {
		tld := dnswire.Name(fmt.Sprintf("t%02d.", i))
		_ = z.Add(dnswire.NewRR(tld, 60, dnswire.NS{Host: "ns.nic." + tld}))
		_ = z.Add(dnswire.NewRR("ns.nic."+tld, 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}))
		_ = z.Add(dnswire.NewRR(tld, 60, dnswire.NSEC{NextName: dnswire.Name(fmt.Sprintf("t%02d.", (i+1)%40)),
			Types: []dnswire.Type{dnswire.TypeNS}}))
	}
	const owner = dnswire.Name("hammer.")
	_ = z.Add(dnswire.NewRR(owner, 60, dnswire.TXT{Strings: []string{"seed"}}))
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			mine := dnswire.Name(fmt.Sprintf("cloner%d.", g))
			for i := 0; i < 200; i++ {
				c := z.Clone()
				_ = c.Add(dnswire.NewRR(owner, 60, dnswire.TXT{Strings: []string{fmt.Sprint("clone", g, i)}}))
				_ = c.Add(dnswire.NewRR(mine, 60, dnswire.NSEC{NextName: "t00.", Types: []dnswire.Type{dnswire.TypeTXT}}))
				c.Remove("t07.", dnswire.TypeNS)
				if nsec, ok := c.NSECCovering(mine); !ok || nsec.Name != mine {
					t.Errorf("a clone's own NSEC does not cover its owner: %v, %v", nsec, ok)
					return
				}
				if len(c.Lookup(owner, dnswire.TypeTXT)) == 0 || !c.Query("x.t07.", dnswire.TypeA).Authoritative {
					t.Error("a clone lost its own writes")
					return
				}
				c.Clone().Remove(owner, dnswire.TypeANY)
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 7 {
				case 0:
					z.Query(owner, dnswire.TypeTXT)
				case 1:
					z.Query(owner, dnswire.TypeANY)
				case 2:
					z.Query("below."+owner, dnswire.TypeA)
				case 3:
					if _, ok := z.NSECCovering(owner); !ok {
						t.Error("the zone lost its NSEC chain")
						return
					}
				case 4:
					z.Names()
				case 5:
					z.Delegations()
				case 6:
					z.Query("nosuchtld.", dnswire.TypeA)
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				_ = z.Add(dnswire.NewRR(owner, 60, dnswire.TXT{Strings: []string{fmt.Sprint(g, i)}}))
				_ = z.Add(dnswire.NewRR(owner, 60, dnswire.NSEC{NextName: "t00.", Types: []dnswire.Type{dnswire.TypeTXT}}))
				_ = z.Add(dnswire.NewRR("x.below."+owner, 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.9")}))
				z.Remove(owner, dnswire.TypeNSEC)
				z.Remove(owner, dnswire.TypeTXT)
				z.Remove("x.below."+owner, dnswire.TypeANY)
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	checkIndexed(t, z, []dnswire.Name{owner, "below." + owner, "nosuchtld.", "t07.", "a.", "zz."})
	if z.HasName("cloner0.") || len(z.Lookup("t07.", dnswire.TypeNS)) != 1 {
		t.Error("a write to a clone reached the zone it was cloned from")
	}
}

// chainZone is a small zone below the root with an NSEC at every name
// that is not glue, as an ordinary signed zone has: empty non-terminals
// one and two labels deep, a delegation with glue, labels sorting before
// and after the wildcard's "*" — and, with escaped, owners whose labels
// hold \. and \000, so that its index has no sort keys.
func chainZone(tb testing.TB, escaped bool) *zone.Zone {
	tb.Helper()
	z := zone.New("example.")
	add := func(rr dnswire.RR) {
		if err := z.Add(rr); err != nil {
			tb.Fatal(err)
		}
	}
	owners := []dnswire.Name{"example.", "!x.example.", "a.b.c.example.", "bb.example.", "d.example.", "z.example."}
	if escaped {
		owners = append(owners, `x\.y.example.`, `\000.c.example.`)
	}
	dnswire.SortNames(owners)
	add(dnswire.NewRR("example.", 60, dnswire.SOA{MName: "m.", RName: "r.", Serial: 1}))
	add(dnswire.NewRR("d.example.", 60, dnswire.NS{Host: "ns.d.example."}))
	add(dnswire.NewRR("ns.d.example.", 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}))
	for i, n := range owners {
		add(dnswire.NewRR(n, 60, dnswire.NSEC{NextName: owners[(i+1)%len(owners)], Types: []dnswire.Type{dnswire.TypeNSEC}}))
	}
	return z
}

// FuzzDeny holds the indexed lookups — Deny above all — to their scans
// for any name, on chainZone with and without sort keys.
func FuzzDeny(f *testing.F) {
	for _, p := range []string{"0.c.example.", "z.b.c.example.", "b.a.b.c.example.", `x\.y.example.`, `\000.c.example.`,
		"*.example.", "!.example.", "!x.*.example.", "example.", "bb.example.", "b.example.", "q.z.example.",
		"x.d.example.", "com.", "~.example.", `a\000.b.c.example.`} {
		f.Add(p)
	}
	zones := []*zone.Zone{chainZone(f, false), chainZone(f, true)}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := dnswire.ParseName(s)
		if err != nil {
			return
		}
		for _, z := range zones {
			checkIndexed(t, z, []dnswire.Name{p})
		}
	})
}
