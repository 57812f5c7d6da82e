package overload

import "testing"

// BenchmarkGate is the uncontended admission fast path — the fixed toll
// every gated resolution pays even when capacity is free.
func BenchmarkGate(b *testing.B) {
	g := NewGate(1024, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.Acquire() {
			b.Fatal("unexpected shed")
		}
		g.Release()
	}
}

// BenchmarkFlight is the uncoalesced singleflight path: one leader, no
// waiters — the overhead Coalesce adds to every cache miss.
func BenchmarkFlight(b *testing.B) {
	f := NewFlight[string]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = f.Do("www.example.com./A", func() (any, error) { return nil, nil })
	}
}
