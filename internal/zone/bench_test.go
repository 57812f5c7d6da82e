package zone_test

import (
	"fmt"
	"testing"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// junkNames are n distinct names of the benchmark's two junk shapes:
// h.<bogus-tld>. and a single-label probe.
func junkNames(n int) []dnswire.Name {
	names := make([]dnswire.Name, n)
	for i := range names {
		if i%10 < 7 {
			names[i] = dnswire.Name(fmt.Sprintf("q%d.bogus%dtld.", i, i%977))
		} else {
			names[i] = dnswire.Name(fmt.Sprintf("probe%dxqzjw.", i))
		}
	}
	return names
}

var (
	sinkAnswer zone.Answer
	sinkRR     dnswire.RR
	sinkDenial zone.Denial
	sinkNames  []dnswire.Name
	sinkZone   *zone.Zone
)

// BenchmarkZoneQuery is the authoritative lookup on the signed root by
// outcome: Junk is the paper's dominant class (NXDOMAIN, one binary
// search for the empty-non-terminal test), ENT an empty non-terminal,
// Referral a name below a TLD, Answer the apex NS set.
func BenchmarkZoneQuery(b *testing.B) {
	// The root has no empty non-terminal outside a delegation; add one.
	z := rootZone(b).Clone()
	if err := z.Add(dnswire.NewRR("host.ent.benchent.", 60, dnswire.TXT{Strings: []string{"x"}})); err != nil {
		b.Fatal(err)
	}
	z.Names() // build the index outside the timed region
	junk := junkNames(1024)
	for _, c := range []struct {
		name  string
		names []dnswire.Name
		typ   dnswire.Type
		rcode dnswire.Rcode
	}{
		{"Junk", junk, dnswire.TypeA, dnswire.RcodeNXDomain},
		{"ENT", []dnswire.Name{"ent.benchent."}, dnswire.TypeA, dnswire.RcodeSuccess},
		{"Referral", []dnswire.Name{"www.example.com."}, dnswire.TypeA, dnswire.RcodeSuccess},
		{"Answer", []dnswire.Name{dnswire.Root}, dnswire.TypeNS, dnswire.RcodeSuccess},
	} {
		b.Run(c.name, func(b *testing.B) {
			if got := z.Query(c.names[0], c.typ); got.Rcode != c.rcode {
				b.Fatalf("Query(%q) rcode = %v, want %v", c.names[0], got.Rcode, c.rcode)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkAnswer = z.Query(c.names[i%len(c.names)], c.typ)
			}
		})
	}
}

func BenchmarkNSECCovering(b *testing.B) {
	z := rootZone(b)
	z.Names()
	junk := junkNames(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRR, _ = z.NSECCovering(junk[i%len(junk)])
	}
}

// BenchmarkDeny is everything authd asks the zone about a junk name:
// cut walk, NXDOMAIN, covering NSEC, closest encloser and wildcard NSEC.
func BenchmarkDeny(b *testing.B) {
	z := rootZone(b)
	z.Names()
	junk := junkNames(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDenial, _ = z.Deny(junk[i%len(junk)])
	}
}

// BenchmarkZoneNames is the sorted listing under VerifyZone and the
// signer: a copy of the index, no sort.
func BenchmarkZoneNames(b *testing.B) {
	z := rootZone(b)
	z.Names()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNames = z.Names()
	}
}

// BenchmarkZoneClone is what a new generation of the signed root costs
// before its first write: a copy of the owner table.
func BenchmarkZoneClone(b *testing.B) {
	z := rootZone(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkZone = z.Clone()
	}
}

// BenchmarkIndexBuild is what the first lookup pays after an install, or
// after a mutation that changed the owner set: one sort of the owner
// names. An owner that comes and goes leaves the zone as it was, less
// its index.
func BenchmarkIndexBuild(b *testing.B) {
	z := rootZone(b).Clone()
	comeAndGo := dnswire.NewRR("benchindexbuild.", 60, dnswire.TXT{Strings: []string{"x"}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Add(comeAndGo)
		z.Remove(comeAndGo.Name, dnswire.TypeANY)
		if _, ok := z.NSECCovering("nosuchtld."); !ok {
			b.Fatal("the rebuilt index lost the NSEC chain")
		}
	}
}

// The allocation budgets of the denial path on the signed root.
func TestIndexedLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	z := rootZone(t)
	z.Names()
	junk := junkNames(256)
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		sinkRR, _ = z.NSECCovering(junk[i%len(junk)])
		i++
	}); got != 0 {
		t.Errorf("NSECCovering: %v allocs/op, want 0", got)
	}
	// The denial lookup: NXDOMAIN or empty non-terminal, covering NSEC,
	// closest encloser and the wildcard's NSEC.
	if got := testing.AllocsPerRun(500, func() {
		sinkDenial, _ = z.Deny(junk[i%len(junk)])
		i++
	}); got != 0 {
		t.Errorf("Deny: %v allocs/op, want 0", got)
	}
	// A junk Query allocates the one-record SOA authority it returns.
	if got := testing.AllocsPerRun(500, func() {
		sinkAnswer = z.Query(junk[i%len(junk)], dnswire.TypeA)
		i++
	}); got > 2 {
		t.Errorf("junk Zone.Query: %v allocs/op, want <= 2", got)
	}
}
