package obs

import "testing"

// BenchmarkSpan measures the tracing layer itself: one Begin, two spans
// (cache probe + attempt, the warm-resolution shape), and Finish with
// attribution. Disabled is the always-on cost every resolution pays —
// it must stay within noise of no instrumentation at all; Enabled is
// the budget -trace adds on top of real resolution work.
func BenchmarkSpan(b *testing.B) {
	run := func(b *testing.B, enabled bool) {
		t := NewTracer(8, 0)
		t.SetEnabled(enabled)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := t.Begin("www.example.com.", "A")
			sp := tr.StartSpan(PhaseCache, "cache-probe")
			sp.End()
			x := tr.StartSpan(PhaseNet, "attempt")
			x.End()
			tr.Finish("NOERROR", 0, 1, nil)
		}
	}
	b.Run("Disabled", func(b *testing.B) { run(b, false) })
	b.Run("Enabled", func(b *testing.B) { run(b, true) })
}
