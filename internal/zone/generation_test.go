package zone_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// deepClone is Clone as it was before generations shared nodes: a new
// zone with every record added again. It is the reference model below:
// a zone made this way shares nothing with its source.
func deepClone(z *zone.Zone) *zone.Zone {
	c := zone.New(z.Origin)
	for _, rr := range z.Records() {
		_ = c.Add(rr)
	}
	return c
}

// generationNames is the pool the aliasing test draws owner names from:
// delegations, their glue hosts, names that appear and vanish, and deep
// names that make and unmake empty non-terminals.
func generationNames() []dnswire.Name {
	names := []dnswire.Name{dnswire.Root}
	for i := 0; i < 4; i++ {
		names = append(names,
			dnswire.Name(fmt.Sprintf("t%d.", i)),
			dnswire.Name(fmt.Sprintf("ns.nic.t%d.", i)),
			dnswire.Name(fmt.Sprintf("n%d.", i)),
			dnswire.Name(fmt.Sprintf("h.ent%d.deep.", i%3)))
	}
	return names
}

// randomRecord is a record at name of one of the types whose presence
// the zone's derived state hangs on (NS: cuts; NSEC: the chain) or does
// not (A, TXT, DS), with rdata drawn from a handful of values so that
// duplicates and multi-record sets both happen. An owner has one NSEC,
// as in a real chain: NSECCovering returns an owner's first, and which
// of several is first is the one thing a deep copy does not preserve.
func randomRecord(r *rand.Rand, name dnswire.Name, pool []dnswire.Name) dnswire.RR {
	switch r.Intn(5) {
	case 0:
		return dnswire.NewRR(name, 60, dnswire.NS{Host: pool[r.Intn(len(pool))]})
	case 1:
		return dnswire.NewRR(name, 60, dnswire.NSEC{NextName: "t0.", Types: []dnswire.Type{dnswire.TypeNS}})
	case 2:
		return dnswire.NewRR(name, 60, dnswire.DS{KeyTag: uint16(r.Intn(4)), Algorithm: 15, DigestType: 2, Digest: []byte{1}})
	case 3:
		return dnswire.NewRR(name, uint32(60+r.Intn(2)), dnswire.TXT{Strings: []string{fmt.Sprint(r.Intn(4))}})
	default:
		return dnswire.NewRR(name, 60, dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(9 - r.Intn(6))})})
	}
}

// sameZone holds a generation to its reference model: the same records
// in the same listing order, the same cuts, and for every probe the same
// covering NSEC and the same answer to every kind of query. Sections are
// compared as sets: a deep copy re-adds each RRset in listing order, so
// the two may hold one RRset's records in different orders.
func sameZone(t *testing.T, label string, got, want *zone.Zone, probes []dnswire.Name) {
	t.Helper()
	text := func(rrs []dnswire.RR) []string {
		out := make([]string, len(rrs))
		for i, rr := range rrs {
			out[i] = rr.String()
		}
		return out
	}
	if g, w := text(got.Records()), text(want.Records()); !slices.Equal(g, w) {
		t.Fatalf("%s: Records differ from the reference:\n got %q\nwant %q", label, g, w)
	}
	if g, w := got.Delegations(), want.Delegations(); !slices.Equal(g, w) {
		t.Fatalf("%s: Delegations = %v, reference %v", label, g, w)
	}
	if g, w := got.Names(), want.Names(); !slices.Equal(g, w) {
		t.Fatalf("%s: Names = %v, reference %v", label, g, w)
	}
	set := func(rrs []dnswire.RR) []string {
		out := text(rrs)
		slices.Sort(out)
		return out
	}
	for _, p := range probes {
		g, gok := got.NSECCovering(p)
		w, wok := want.NSECCovering(p)
		if gok != wok || (gok && g.String() != w.String()) {
			t.Fatalf("%s: NSECCovering(%q) = %v, %v; reference %v, %v", label, p, g, gok, w, wok)
		}
		for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeTXT, dnswire.TypeANY} {
			ga, wa := got.Query(p, typ), want.Query(p, typ)
			if ga.Rcode != wa.Rcode || ga.Authoritative != wa.Authoritative ||
				!slices.Equal(set(ga.Answer), set(wa.Answer)) ||
				!slices.Equal(set(ga.Authority), set(wa.Authority)) ||
				!slices.Equal(set(ga.Additional), set(wa.Additional)) {
				t.Fatalf("%s: Query(%q, %v) = %+v, reference %+v", label, p, typ, ga, wa)
			}
		}
	}
}

// TestGenerationsDoNotAlias: generations that share nodes behave as if
// each had its own copy of everything. A chain of clones eight deep and
// then a random tree of further ones are mutated in any order; after
// every step every generation, touched or not, equals a reference model
// that was deep-copied at each Clone and given the same mutations.
func TestGenerationsDoNotAlias(t *testing.T) {
	pool := generationNames()
	probes := append(slices.Clone(pool), "deep.", "ent1.deep.", "x.t3.", "a.", "zz.", "m2.")
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		gens := []*zone.Zone{zone.New(dnswire.Root)}
		refs := []*zone.Zone{zone.New(dnswire.Root)}
		mutate := func(k int) string {
			name := pool[r.Intn(len(pool))]
			switch r.Intn(8) {
			case 0:
				typ := []dnswire.Type{dnswire.TypeNS, dnswire.TypeNSEC, dnswire.TypeDS, dnswire.TypeTXT, dnswire.TypeA}[r.Intn(5)]
				gens[k].Remove(name, typ)
				refs[k].Remove(name, typ)
				return fmt.Sprintf("gen %d Remove(%s, %v)", k, name, typ)
			case 1:
				gens[k].Remove(name, dnswire.TypeANY)
				refs[k].Remove(name, dnswire.TypeANY)
				return fmt.Sprintf("gen %d Remove(%s, ANY)", k, name)
			default:
				rr := randomRecord(r, name, pool)
				if err := gens[k].Add(rr); err != nil {
					t.Fatal(err)
				}
				_ = refs[k].Add(rr)
				return fmt.Sprintf("gen %d Add(%v)", k, rr)
			}
		}
		clone := func(k int) string {
			gens = append(gens, gens[k].Clone())
			refs = append(refs, deepClone(refs[k]))
			return fmt.Sprintf("gen %d = Clone of gen %d", len(gens)-1, k)
		}
		check := func(step string) {
			t.Helper()
			for k := range gens {
				sameZone(t, fmt.Sprintf("seed %d after %s: gen %d", seed, step, k), gens[k], refs[k], probes)
			}
		}
		for i := 0; i < 60; i++ {
			mutate(0)
		}
		// The chain: each generation is cloned from the one before and
		// then both ends keep changing.
		for depth := 1; depth <= 8; depth++ {
			check(clone(depth - 1))
			for i := 0; i < 6; i++ {
				check(mutate(r.Intn(len(gens))))
			}
		}
		// The tree: any generation may be cloned or mutated next.
		for i := 0; i < 150; i++ {
			if len(gens) < 14 && r.Intn(10) == 0 {
				check(clone(r.Intn(len(gens))))
				continue
			}
			check(mutate(r.Intn(len(gens))))
		}
	}
}

// TestSiblingClonesAppendApart: two clones that each add a record to an
// RRset they share with their source get a slice each; neither appends
// into spare capacity the other can reach. (Three records leave a slice
// grown by append with room for a fourth.)
func TestSiblingClonesAppendApart(t *testing.T) {
	a := func(last byte) dnswire.RR {
		return dnswire.NewRR("host.", 60, dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, last})})
	}
	z := zone.New(dnswire.Root)
	for _, last := range []byte{1, 2, 3} {
		if err := z.Add(a(last)); err != nil {
			t.Fatal(err)
		}
	}
	left, right := z.Clone(), z.Clone()
	_ = left.Add(a(4))
	_ = right.Add(a(5))
	_ = z.Add(a(6))
	for _, c := range []struct {
		z    *zone.Zone
		want []byte
	}{{z, []byte{1, 2, 3, 6}}, {left, []byte{1, 2, 3, 4}}, {right, []byte{1, 2, 3, 5}}} {
		var got []byte
		for _, rr := range c.z.Lookup("host.", dnswire.TypeA) {
			got = append(got, rr.Data.(dnswire.A).Addr.As4()[3])
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("host. A ends in %v, want %v", got, c.want)
		}
	}
}

// TestRecordsOrderPinned pins the listing every digest, bundle and delta
// is computed from. The two hashes were taken from the implementation
// that sorted every RRset by rdata text on every call; a zone as the
// signer leaves it (RRsets in arbitrary insertion order) and the same
// zone parsed back from its text (every RRset added in order) must both
// list identically.
func TestRecordsOrderPinned(t *testing.T) {
	const (
		signedDigest = "b85912935ea860b43a80fd193d2c8e71ee1bea2da8bfe5cae98cc620f879e270"
		unsignedText = "7e2711514a4a97fb0435c0f87fa56f53330d456a5ec0b040aa3c5f7287b6b815"
	)
	signed := rootZone(t)
	if got := hex.EncodeToString(dnssec.ZoneDigest(signed)); got != signedDigest {
		t.Errorf("ZoneDigest of the signed root = %s, want %s", got, signedDigest)
	}
	unsigned, err := rootzone.Build(snapshotDate)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(zone.Text(unsigned)))
	if got := hex.EncodeToString(sum[:]); got != unsignedText {
		t.Errorf("sha256 of the unsigned root's text = %s, want %s", got, unsignedText)
	}
	for _, z := range []*zone.Zone{signed, unsigned} {
		text := zone.Text(z)
		back, err := zone.Parse(strings.NewReader(text), z.Origin)
		if err != nil {
			t.Fatal(err)
		}
		if zone.Text(back) != text {
			t.Error("a zone parsed back from its text lists differently")
		}
	}
}

// TestCloneAllocs: a clone of the signed root costs its owner table (a
// Go map of 4.4 K entries is about twenty allocations) and nothing per
// record; the deep copy it replaces made 114 K.
func TestCloneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	z := rootZone(t)
	if got := testing.AllocsPerRun(20, func() { sinkZone = z.Clone() }); got > 32 {
		t.Errorf("Clone of the signed root: %v allocs, want <= 32", got)
	}
}
