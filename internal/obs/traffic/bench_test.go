package traffic

import (
	"fmt"
	"net/netip"
	"testing"

	"rootless/internal/dnswire"
)

// The hot-path cost budget: Classify and each sketch at ≤ ~20 ns/op and
// zero allocations (the alloc half is pinned deterministically by
// TestObserveAllocs; read the ns/op with go test -bench).

func BenchmarkTrafficClassify(b *testing.B) {
	tlds := testTLDs()
	names := [4]dnswire.Name{
		"www.example.com.", "junk.bogus.", "abcdefghij.", "4.3.2.10.in-addr.arpa.",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Classify(names[i&3], dnswire.TypeA, tlds)
	}
}

// BenchmarkTrafficObserve is the full per-query cost the resolver hot
// path pays: classify + dup filter + top-K (steady-state hit) + HLL.
func BenchmarkTrafficObserve(b *testing.B) {
	a := NewAnalyzer(testTLDs(), 20)
	names := [4]dnswire.Name{
		"www.example.com.", "junk.bogus.", "mail.example.org.", "www.example.net.",
	}
	for _, n := range names {
		a.Observe(n, dnswire.TypeA) // warm the top-K
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Observe(names[i&3], dnswire.TypeA)
	}
}

func BenchmarkTrafficObserveClient(b *testing.B) {
	a := NewAnalyzer(testTLDs(), 20)
	addrs := [4]netip.Addr{
		netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2"),
		netip.MustParseAddr("198.51.100.3"), netip.MustParseAddr("203.0.113.4"),
	}
	for _, ad := range addrs {
		a.ObserveClient(ad)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ObserveClient(addrs[i&3])
	}
}

// BenchmarkTrafficTopKHit is the lock-free already-tracked path alone.
func BenchmarkTrafficTopKHit(b *testing.B) {
	tk := NewTopK[string](16)
	keys := [4]string{"a.com.", "b.com.", "c.com.", "d.com."}
	hs := [4]uint64{}
	for i, k := range keys {
		hs[i] = mix64(uint64(i) + 7)
		tk.Offer(k, hs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Offer(keys[i&3], hs[i&3])
	}
}

// BenchmarkTrafficTopKMiss is the cold-key path: one admission-counter
// increment, no mutex once the table is full and the key stays cold.
func BenchmarkTrafficTopKMiss(b *testing.B) {
	tk := NewTopK[string](4)
	for i := 0; i < 4; i++ {
		tk.Offer(fmt.Sprintf("warm%d.com.", i), mix64(uint64(i)))
	}
	// Pin the residents far above any admission estimate b.N can build,
	// so the cold keys stay cold for the whole run.
	for _, e := range *tk.live.Load() {
		e.count.Store(1 << 40)
	}
	tk.minAt.Store(1 << 40)
	cold := [4]string{"w.org.", "x.org.", "y.org.", "z.org."}
	hs := [4]uint64{mix64(1001), mix64(1002), mix64(1003), mix64(1004)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Offer(cold[i&3], hs[i&3])
	}
}

func BenchmarkTrafficHLLAdd(b *testing.B) {
	h := NewHLL(DefaultHLLPrecision)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(mix64(uint64(i)))
	}
}
