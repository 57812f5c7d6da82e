package cache

import (
	"container/list"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"rootless/internal/dnswire"
)

// fakeClock is an adjustable time source.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1555000000, 0)} }
func aRR(name string, ttl uint32, ip string) dnswire.RR {
	return dnswire.NewRR(dnswire.Name(name), ttl, dnswire.A{Addr: netip.MustParseAddr(ip)})
}

func TestCacheHitMiss(t *testing.T) {
	clk := newClock()
	c := New(0, clk.now)
	if _, ok := c.Get("a.example.", dnswire.TypeA); ok {
		t.Fatal("empty cache hit")
	}
	c.Put([]dnswire.RR{aRR("a.example.", 300, "192.0.2.1")}, false)
	res, ok := c.Get("a.example.", dnswire.TypeA)
	if !ok || len(res.RRs) != 1 {
		t.Fatal("expected hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v", got)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	clk := newClock()
	c := New(0, clk.now)
	c.Put([]dnswire.RR{aRR("a.example.", 300, "192.0.2.1")}, false)
	clk.advance(299 * time.Second)
	res, ok := c.Get("a.example.", dnswire.TypeA)
	if !ok {
		t.Fatal("should still be live at 299s")
	}
	if res.TTL != 1 {
		t.Errorf("decayed TTL = %d, want 1", res.TTL)
	}
	if rrs := res.CopyRRs(); rrs[0].TTL != 1 {
		t.Errorf("CopyRRs TTL = %d, want 1", rrs[0].TTL)
	}
	clk.advance(2 * time.Second)
	if _, ok := c.Get("a.example.", dnswire.TypeA); ok {
		t.Fatal("should be expired at 301s")
	}
	if c.Stats().Expired != 1 {
		t.Errorf("expired = %d", c.Stats().Expired)
	}
}

func TestCacheMinTTLOfSet(t *testing.T) {
	clk := newClock()
	c := New(0, clk.now)
	c.Put([]dnswire.RR{
		aRR("a.example.", 300, "192.0.2.1"),
		aRR("a.example.", 60, "192.0.2.2"),
	}, false)
	clk.advance(61 * time.Second)
	if _, ok := c.Get("a.example.", dnswire.TypeA); ok {
		t.Fatal("set should expire at min TTL")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	clk := newClock()
	// One shard: the test asserts exact global LRU order.
	c := NewSharded(3, 1, clk.now)
	for i := 0; i < 3; i++ {
		c.Put([]dnswire.RR{aRR(fmt.Sprintf("n%d.example.", i), 300, "192.0.2.1")}, false)
	}
	// Touch n0 so n1 becomes LRU.
	if _, ok := c.Get("n0.example.", dnswire.TypeA); !ok {
		t.Fatal("n0 missing")
	}
	c.Put([]dnswire.RR{aRR("n3.example.", 300, "192.0.2.1")}, false)
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	if c.Peek("n1.example.", dnswire.TypeA) {
		t.Error("n1 should have been evicted")
	}
	if !c.Peek("n0.example.", dnswire.TypeA) || !c.Peek("n3.example.", dnswire.TypeA) {
		t.Error("wrong entry evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestCachePinnedResistEviction(t *testing.T) {
	clk := newClock()
	// One shard: eviction order across all three entries must be global.
	c := NewSharded(2, 1, clk.now)
	c.Put([]dnswire.RR{aRR("pinned.example.", 300, "192.0.2.1")}, true)
	c.Put([]dnswire.RR{aRR("a.example.", 300, "192.0.2.1")}, false)
	c.Put([]dnswire.RR{aRR("b.example.", 300, "192.0.2.1")}, false)
	if !c.Peek("pinned.example.", dnswire.TypeA) {
		t.Error("pinned entry evicted")
	}
	if c.PinnedLen() != 1 {
		t.Errorf("pinned len = %d", c.PinnedLen())
	}
	// A cache of only pinned entries may exceed capacity rather than
	// evict pinned data.
	c2 := New(1, clk.now)
	c2.Put([]dnswire.RR{aRR("p1.example.", 300, "192.0.2.1")}, true)
	c2.Put([]dnswire.RR{aRR("p2.example.", 300, "192.0.2.1")}, true)
	if c2.Len() != 2 {
		t.Errorf("pinned overflow len = %d, want 2", c2.Len())
	}
}

func TestCacheNegative(t *testing.T) {
	clk := newClock()
	c := New(0, clk.now)
	soa := dnswire.NewRR(".", 86400, dnswire.SOA{MName: "m.", RName: "r.", Serial: 1, Minimum: 60})
	c.PutNegative("nope.example.", dnswire.TypeA, soa, true)
	res, ok := c.Get("nope.example.", dnswire.TypeA)
	if !ok || !res.Negative || !res.NXDomain || res.SOA == nil {
		t.Fatalf("negative entry: %+v ok=%v", res, ok)
	}
	// NODATA negatives are distinguishable from NXDOMAIN ones.
	c.PutNegative("nodata.example.", dnswire.TypeAAAA, soa, false)
	if res, ok := c.Get("nodata.example.", dnswire.TypeAAAA); !ok || !res.Negative || res.NXDomain {
		t.Fatalf("nodata entry: %+v ok=%v", res, ok)
	}
	if c.Stats().NegativeHits != 2 {
		t.Error("negative hits not counted")
	}
	// Negative TTL uses SOA minimum (60), not SOA TTL (86400).
	clk.advance(61 * time.Second)
	if _, ok := c.Get("nope.example.", dnswire.TypeA); ok {
		t.Error("negative entry should expire at SOA minimum")
	}
}

func TestCacheReplace(t *testing.T) {
	clk := newClock()
	c := New(0, clk.now)
	c.Put([]dnswire.RR{aRR("a.example.", 300, "192.0.2.1")}, false)
	c.Put([]dnswire.RR{aRR("a.example.", 300, "192.0.2.99")}, false)
	res, _ := c.Get("a.example.", dnswire.TypeA)
	if len(res.RRs) != 1 || res.RRs[0].Data.(dnswire.A).Addr.String() != "192.0.2.99" {
		t.Errorf("replace failed: %+v", res.RRs)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d", c.Len())
	}
}

func TestCacheSweepAndFlush(t *testing.T) {
	clk := newClock()
	c := New(0, clk.now)
	c.Put([]dnswire.RR{aRR("a.example.", 60, "192.0.2.1")}, false)
	c.Put([]dnswire.RR{aRR("b.example.", 600, "192.0.2.1")}, false)
	clk.advance(120 * time.Second)
	if n := c.Sweep(); n != 1 {
		t.Errorf("sweep removed %d, want 1", n)
	}
	if c.Len() != 1 {
		t.Errorf("len after sweep = %d", c.Len())
	}
	c.Flush()
	if c.Len() != 0 {
		t.Error("flush left entries")
	}
}

func TestCacheNeverReturnsExpiredProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clk := newClock()
		c := New(8, clk.now)
		type placed struct {
			name    dnswire.Name
			expires time.Time
		}
		var live []placed
		for i := 0; i < 200; i++ {
			switch r.Intn(3) {
			case 0:
				ttl := uint32(1 + r.Intn(600))
				name := dnswire.Name(fmt.Sprintf("n%d.example.", r.Intn(20)))
				c.Put([]dnswire.RR{aRR(string(name), ttl, "192.0.2.1")}, false)
				live = append(live, placed{name, clk.t.Add(time.Duration(ttl) * time.Second)})
			case 1:
				clk.advance(time.Duration(r.Intn(300)) * time.Second)
			default:
				name := dnswire.Name(fmt.Sprintf("n%d.example.", r.Intn(20)))
				if res, ok := c.Get(name, dnswire.TypeA); ok && !res.Negative {
					// Every returned record must have a positive remaining
					// TTL consistent with some live insert.
					found := false
					for _, p := range live {
						if p.name == name && p.expires.After(clk.t) {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCacheCapacityInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		clk := newClock()
		cap := 1 + r.Intn(16)
		c := New(cap, clk.now)
		for i := 0; i < 300; i++ {
			name := fmt.Sprintf("n%d.example.", r.Intn(100))
			c.Put([]dnswire.RR{aRR(name, 300, "192.0.2.1")}, false)
			if c.Len() > cap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCacheGetStale(t *testing.T) {
	clk := newClock()
	c := New(0, clk.now)
	c.Put([]dnswire.RR{aRR("a.example.", 300, "192.0.2.1")}, false)

	// Live entry: GetStale returns it with the decayed TTL.
	clk.advance(100 * time.Second)
	res, ok := c.GetStale("a.example.", dnswire.TypeA, time.Hour)
	if !ok || res.TTL != 200 {
		t.Fatalf("live stale get: ok=%v ttl=%d", ok, res.TTL)
	}

	// Expired entry: normal Get misses, GetStale serves with TTL 30.
	clk.advance(300 * time.Second)
	if _, ok := c.Get("a.example.", dnswire.TypeA); ok {
		t.Fatal("expired entry returned by Get")
	}
	res, ok = c.GetStale("a.example.", dnswire.TypeA, time.Hour)
	if !ok || res.TTL != 30 {
		t.Fatalf("expired stale get: ok=%v ttl=%d", ok, res.TTL)
	}
	if rrs := res.CopyRRs(); rrs[0].TTL != 30 {
		t.Fatalf("stale CopyRRs TTL = %d, want 30", rrs[0].TTL)
	}

	// Past the stale limit: gone.
	clk.advance(2 * time.Hour)
	if _, ok := c.GetStale("a.example.", dnswire.TypeA, time.Hour); ok {
		t.Fatal("stale entry served past the limit")
	}

	// Negative entries are never served stale.
	soa := dnswire.NewRR(".", 60, dnswire.SOA{MName: "m.", RName: "r.", Minimum: 60})
	c.PutNegative("neg.example.", dnswire.TypeA, soa, true)
	clk.advance(2 * time.Minute)
	if _, ok := c.GetStale("neg.example.", dnswire.TypeA, time.Hour); ok {
		t.Fatal("negative entry served stale")
	}
}

func TestCacheExpiredEntriesRemainUntilSwept(t *testing.T) {
	clk := newClock()
	c := New(0, clk.now)
	c.Put([]dnswire.RR{aRR("a.example.", 60, "192.0.2.1")}, false)
	clk.advance(2 * time.Minute)
	if _, ok := c.Get("a.example.", dnswire.TypeA); ok {
		t.Fatal("expired hit")
	}
	if c.Len() != 1 {
		t.Fatalf("expired entry removed before sweep: len=%d", c.Len())
	}
	if n := c.Sweep(); n != 1 {
		t.Fatalf("sweep = %d", n)
	}
}

// The entries link themselves into the LRU order; a container/list of keys
// is the reference it replaced. Under a random mix of every operation that
// touches the order — Put (new, replacing, pinned), Get, GetStale,
// PutNegative, NXDOMAIN cuts, Sweep, Flush, time passing — the cache must
// hold exactly the keys the reference holds, evicting the same victim at
// every step; and a one-record Put, whose records share the entry's
// allocation, must give back the record it was given.
func TestLRUMatchesListReference(t *testing.T) {
	const capacity = 8
	type ref struct {
		el      *list.Element // nil while pinned
		expires time.Time
		neg     bool
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &fakeClock{t: time.Unix(1555000000, 0)}
		c := NewSharded(capacity, 1, clk.now)
		order := list.New() // front = most recent
		model := map[dnswire.RRsetKey]*ref{}
		key := func(name dnswire.Name, typ dnswire.Type) dnswire.RRsetKey {
			return dnswire.RRsetKey{Name: name, Type: typ, Class: dnswire.ClassINET}
		}
		insert := func(k dnswire.RRsetKey, ttl uint32, pinned, neg bool) {
			if old, ok := model[k]; ok && old.el != nil {
				order.Remove(old.el)
			}
			e := &ref{expires: clk.t.Add(time.Duration(ttl) * time.Second), neg: neg}
			if !pinned {
				e.el = order.PushFront(k)
			}
			model[k] = e
			for len(model) > capacity && order.Len() > 0 {
				victim := order.Remove(order.Back()).(dnswire.RRsetKey)
				delete(model, victim)
			}
		}
		// touch is a lookup's effect on the order: Get reaches live
		// entries, GetStale positive ones of any age.
		touch := func(k dnswire.RRsetKey, stale bool) {
			e, ok := model[k]
			if !ok || e.el == nil {
				return
			}
			if stale && !e.neg || !stale && e.expires.After(clk.t) {
				order.MoveToFront(e.el)
			}
		}
		soa := dnswire.NewRR("example.", 300, dnswire.SOA{MName: "ns.example.", RName: "h.example.", Minimum: 120})
		for step := 0; step < 3000; step++ {
			name := dnswire.Name(fmt.Sprintf("n%d.example.", rng.Intn(14)))
			switch op := rng.Intn(20); {
			case op < 7:
				ttl := uint32(30 + rng.Intn(300))
				rrs := []dnswire.RR{dnswire.NewRR(name, ttl, dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 0, byte(step >> 8), byte(step)})})}
				if rng.Intn(3) == 0 {
					rrs = append(rrs, dnswire.NewRR(name, ttl, dnswire.A{Addr: netip.AddrFrom4([4]byte{10, 1, 0, 1})}))
				}
				pinned := rng.Intn(12) == 0
				c.Put(rrs, pinned)
				insert(key(name, dnswire.TypeA), ttl, pinned, false)
				if hit, ok := c.Get(name, dnswire.TypeA); !ok || len(hit.RRs) != len(rrs) || hit.RRs[0].Data != rrs[0].Data {
					t.Fatalf("seed %d step %d: Get after Put = %+v, %v", seed, step, hit, ok)
				}
				touch(key(name, dnswire.TypeA), false)
			case op < 12:
				c.Get(name, dnswire.TypeA)
				touch(key(name, dnswire.TypeA), false)
			case op < 13:
				c.GetStale(name, dnswire.TypeA, 0)
				touch(key(name, dnswire.TypeA), true)
			case op < 15:
				c.PutNegative(name, dnswire.TypeA, soa, true)
				insert(key(name, dnswire.TypeA), 120, false, true)
			case op < 16:
				c.PutNXDomainCut(name, soa)
				insert(key(name, nxCutType), 120, false, true)
			case op < 17:
				c.NXDomainCovered(name)
				for n := name; ; n = n.Parent() {
					if e, ok := model[key(n, nxCutType)]; ok && e.expires.After(clk.t) {
						touch(key(n, nxCutType), false)
						break
					}
					if n.IsRoot() {
						break
					}
				}
			case op < 18:
				clk.advance(time.Duration(rng.Intn(90)) * time.Second)
			case op < 19:
				c.Sweep()
				for k, e := range model {
					if !e.expires.After(clk.t) {
						if e.el != nil {
							order.Remove(e.el)
						}
						delete(model, k)
					}
				}
			default:
				if rng.Intn(10) == 0 {
					c.Flush()
					order.Init()
					model = map[dnswire.RRsetKey]*ref{}
				}
			}
			s := c.shards[0]
			if len(s.entries) != len(model) {
				t.Fatalf("seed %d step %d: cache holds %d entries, reference %d", seed, step, len(s.entries), len(model))
			}
			for k := range model {
				if _, ok := s.entries[k]; !ok {
					t.Fatalf("seed %d step %d: %v evicted, the reference still holds it", seed, step, k)
				}
			}
			el := order.Front()
			for e := s.lru.next; e != &s.lru; e, el = e.next, el.Next() {
				if el == nil || el.Value.(dnswire.RRsetKey) != e.key {
					t.Fatalf("seed %d step %d: LRU order diverges at %v", seed, step, e.key)
				}
			}
			if el != nil {
				t.Fatalf("seed %d step %d: LRU ring is shorter than the reference", seed, step)
			}
		}
	}
}
