package cache

import (
	"fmt"
	"testing"
	"time"

	"rootless/internal/dnswire"
)

// nsecChain installs a small validated root chain:
//
//	. -> com. -> org. -> (wraps to .)
//
// com. and org. are delegations (NS in the bitmap); com. also has a DS.
func nsecChain(c *Cache) {
	apex := dnswire.NSEC{
		NextName: "com.",
		Types:    []dnswire.Type{dnswire.TypeSOA, dnswire.TypeNS, dnswire.TypeDNSKEY, dnswire.TypeNSEC, dnswire.TypeRRSIG},
	}
	com := dnswire.NSEC{
		NextName: "org.",
		Types:    []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeNSEC, dnswire.TypeRRSIG},
	}
	org := dnswire.NSEC{
		NextName: dnswire.Root,
		Types:    []dnswire.Type{dnswire.TypeNS, dnswire.TypeNSEC, dnswire.TypeRRSIG},
	}
	c.PutValidatedNSEC(dnswire.Root, dnswire.Root, apex, 86400)
	c.PutValidatedNSEC(dnswire.Root, "com.", com, 86400)
	c.PutValidatedNSEC(dnswire.Root, "org.", org, 86400)
}

func TestNSECSynthesizeNXDomain(t *testing.T) {
	clk := newClock()
	c := New(1024, clk.now)
	nsecChain(c)
	if got := c.NSECRangeLen(); got != 3 {
		t.Fatalf("NSECRangeLen = %d, want 3", got)
	}

	// Gap between com. and org.: proven nonexistent.
	if nx, ok := c.NSECSynthesize("example.", dnswire.TypeA); !ok || !nx {
		t.Fatalf("example. = (%v, %v), want synthesized NXDOMAIN", nx, ok)
	}
	// Tail of the chain (after org., wraparound link): also proven.
	if nx, ok := c.NSECSynthesize("zz.", dnswire.TypeA); !ok || !nx {
		t.Fatalf("zz. = (%v, %v), want synthesized NXDOMAIN", nx, ok)
	}
	// A name in the apex–com. gap.
	if nx, ok := c.NSECSynthesize("aa.", dnswire.TypeA); !ok || !nx {
		t.Fatalf("aa. = (%v, %v), want synthesized NXDOMAIN", nx, ok)
	}
	if hits := c.NSECSynthHits(); hits != 3 {
		t.Fatalf("NSECSynthHits = %d, want 3", hits)
	}
}

func TestNSECSynthesizeDelegationGuards(t *testing.T) {
	clk := newClock()
	c := New(1024, clk.now)
	nsecChain(c)

	// com. exists as a delegation: the parent NSEC may only speak for DS.
	// An A query at com. must go to the wire, not be synthesized NODATA.
	if _, ok := c.NSECSynthesize("com.", dnswire.TypeA); ok {
		t.Fatal("A at delegation point must not be synthesized from parent NSEC")
	}
	// DS is in com.'s bitmap: present, so no denial either.
	if _, ok := c.NSECSynthesize("com.", dnswire.TypeDS); ok {
		t.Fatal("DS present in bitmap must not be denied")
	}
	// org. carries no DS: the parent NSEC proves DS NODATA at the cut.
	if nx, ok := c.NSECSynthesize("org.", dnswire.TypeDS); !ok || nx {
		t.Fatalf("org./DS = (%v, %v), want synthesized NODATA", nx, ok)
	}
	// Names below a delegation belong to the child zone (RFC 8198 §5.1):
	// www.com. falls inside (com., org.) canonically but must not be
	// denied by the parent's range.
	if _, ok := c.NSECSynthesize("www.com.", dnswire.TypeA); ok {
		t.Fatal("name below a delegation must not be denied by the parent NSEC")
	}
}

func TestNSECSynthesizeApexNODATA(t *testing.T) {
	clk := newClock()
	c := New(1024, clk.now)
	nsecChain(c)
	// The apex exists; TXT is absent from its bitmap: NODATA.
	if nx, ok := c.NSECSynthesize(dnswire.Root, dnswire.TypeTXT); !ok || nx {
		t.Fatalf("./TXT = (%v, %v), want synthesized NODATA", nx, ok)
	}
	// SOA is in the bitmap: present, nothing to synthesize.
	if _, ok := c.NSECSynthesize(dnswire.Root, dnswire.TypeSOA); ok {
		t.Fatal("present type must not be denied")
	}
}

func TestNSECSynthesizeExpiryAndReplace(t *testing.T) {
	clk := newClock()
	c := New(1024, clk.now)
	nsecChain(c)

	clk.advance(86401 * time.Second)
	if _, ok := c.NSECSynthesize("example.", dnswire.TypeA); ok {
		t.Fatal("expired range must not synthesize")
	}
	if got := c.NSECRangeLen(); got != 0 {
		t.Fatalf("NSECRangeLen after expiry = %d, want 0", got)
	}

	// Re-inserting an owner replaces its range: a re-signed zone where a
	// new name appeared narrows the gap.
	nsecChain(c)
	c.PutValidatedNSEC(dnswire.Root, "com.", dnswire.NSEC{
		NextName: "example.",
		Types:    []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeNSEC, dnswire.TypeRRSIG},
	}, 86400)
	if got := c.NSECRangeLen(); got != 3 {
		t.Fatalf("NSECRangeLen after replace = %d, want 3 (replaced, not added)", got)
	}
	// example. is now the range boundary, no longer inside the gap.
	if _, ok := c.NSECSynthesize("example.", dnswire.TypeA); ok {
		t.Fatal("range boundary name must not be denied after narrowing")
	}
	// But names still inside the narrowed gap are.
	if nx, ok := c.NSECSynthesize("dd.", dnswire.TypeA); !ok || !nx {
		t.Fatalf("dd. = (%v, %v), want synthesized NXDOMAIN", nx, ok)
	}
}

func TestNSECSurvivesFlush(t *testing.T) {
	clk := newClock()
	c := New(1024, clk.now)
	nsecChain(c)
	c.Put([]dnswire.RR{aRR("real.example.", 300, "192.0.2.1")}, false)
	c.Flush()
	if c.Len() != 0 {
		t.Fatal("Flush should empty the RRset cache")
	}
	// The validated ranges are proofs, not observations: still live.
	if nx, ok := c.NSECSynthesize("example.", dnswire.TypeA); !ok || !nx {
		t.Fatalf("after Flush: (%v, %v), want synthesized NXDOMAIN", nx, ok)
	}
}

func TestNSECZoneScoping(t *testing.T) {
	clk := newClock()
	c := New(1024, clk.now)
	// A chain for example.com. must not answer for names outside it.
	c.PutValidatedNSEC("example.com.", "example.com.", dnswire.NSEC{
		NextName: "a.example.com.",
		Types:    []dnswire.Type{dnswire.TypeSOA, dnswire.TypeNS},
	}, 3600)
	c.PutValidatedNSEC("example.com.", "a.example.com.", dnswire.NSEC{
		NextName: "example.com.", // wraps
		Types:    []dnswire.Type{dnswire.TypeA},
	}, 3600)
	if nx, ok := c.NSECSynthesize("b.example.com.", dnswire.TypeA); !ok || !nx {
		t.Fatalf("b.example.com. = (%v, %v), want synthesized NXDOMAIN", nx, ok)
	}
	if _, ok := c.NSECSynthesize("other.com.", dnswire.TypeA); ok {
		t.Fatal("name outside the zone must not be answered")
	}
}

// rootSizedChain is BenchmarkNSECSynthesize's fixture: a validated
// NSEC chain of 1500 delegations, like the real root zone, and 64 junk
// names it denies.
func rootSizedChain() (*Cache, []dnswire.Name) {
	clk := newClock()
	c := New(1024, clk.now)
	for i := 0; i < 1500; i++ {
		owner := dnswire.Name(fmt.Sprintf("tld%04d.", i))
		next := dnswire.Name(fmt.Sprintf("tld%04d.", i+1))
		if i == 1499 {
			next = dnswire.Root
		}
		c.PutValidatedNSEC(dnswire.Root, owner, dnswire.NSEC{
			NextName: next,
			Types:    []dnswire.Type{dnswire.TypeNS, dnswire.TypeNSEC, dnswire.TypeRRSIG},
		}, 86400)
	}
	names := make([]dnswire.Name, 64)
	for i := range names {
		names[i] = dnswire.Name(fmt.Sprintf("tld%04d-junk.", (i*97)%1499))
	}
	return c, names
}

func BenchmarkNSECSynthesize(b *testing.B) {
	c, names := rootSizedChain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nx, ok := c.NSECSynthesize(names[i%len(names)], dnswire.TypeA); !ok || !nx {
			b.Fatalf("miss for %s", names[i%len(names)])
		}
	}
}

// TestNSECSynthesizeAllocs: denying a name from the cached chain
// allocates nothing.
func TestNSECSynthesizeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	c, names := rootSizedChain()
	i := 0
	got := testing.AllocsPerRun(500, func() {
		if nx, ok := c.NSECSynthesize(names[i%len(names)], dnswire.TypeA); !ok || !nx {
			t.Fatalf("miss for %s", names[i%len(names)])
		}
		i++
	})
	if got != 0 {
		t.Errorf("NSECSynthesize: %v allocs/op, want 0", got)
	}
}
