// Benchmarks regenerating every table and figure in the paper (one bench
// per experiment ID from DESIGN.md §4), plus the ablations DESIGN.md §5
// calls out and micro-benchmarks of the hot substrate paths.
//
// Run: go test -bench=. -benchmem
package rootless_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"rootless/internal/anycast"
	"rootless/internal/cache"
	"rootless/internal/dist"
	"rootless/internal/ditl"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/experiments"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
	"rootless/internal/zonediff"
)

func ymd(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

type seedRand struct{ r *rand.Rand }

func (s seedRand) Read(p []byte) (int, error) { return s.r.Read(p) }

// fixtures are shared, lazily-built heavyweight inputs.
var fixtures struct {
	once       sync.Once
	signer     *dnssec.Signer
	zone2019   *zone.Zone // unsigned, 2019-06-07
	signed2019 *zone.Zone
	compressed []byte
	textDay0   []byte
	textDay1   []byte
}

func setup(b *testing.B) {
	b.Helper()
	fixtures.once.Do(func() {
		s, err := dnssec.NewSigner(dnswire.Root, seedRand{rand.New(rand.NewSource(1))})
		if err != nil {
			panic(err)
		}
		s.AddNSEC = true
		s.Quantize = 14 * 24 * time.Hour
		s.Validity = 28 * 24 * time.Hour
		fixtures.signer = s

		z, err := rootzone.Build(ymd(2019, time.June, 7))
		if err != nil {
			panic(err)
		}
		fixtures.zone2019 = z

		signed := z.Clone()
		if err := s.SignZone(signed, ymd(2019, time.June, 7)); err != nil {
			panic(err)
		}
		fixtures.signed2019 = signed
		fixtures.compressed, err = zone.Compress(signed)
		if err != nil {
			panic(err)
		}

		day0 := signed
		day1, err := rootzone.Build(ymd(2019, time.June, 8))
		if err != nil {
			panic(err)
		}
		if err := s.SignZone(day1, ymd(2019, time.June, 8)); err != nil {
			panic(err)
		}
		fixtures.textDay0 = []byte(zone.Text(day0))
		fixtures.textDay1 = []byte(zone.Text(day1))
	})
	b.ResetTimer()
}

// reportMatches records whether the experiment preserved the paper's
// findings as a benchmark metric (1 = all rows match).
func reportMatches(b *testing.B, r experiments.Result) {
	b.Helper()
	v := 1.0
	if !r.Matches() {
		v = 0
	}
	b.ReportMetric(v, "paper-match")
}

// ---- Figures ----

// BenchmarkFig1RootZoneGrowth regenerates Figure 1's unit operation:
// build the root zone for one sampled date.
func BenchmarkFig1RootZoneGrowth(b *testing.B) {
	dates := []time.Time{
		ymd(2010, time.June, 15), ymd(2013, time.June, 15),
		ymd(2016, time.June, 15), ymd(2019, time.June, 15),
	}
	for i := 0; i < b.N; i++ {
		z, err := rootzone.Build(dates[i%len(dates)])
		if err != nil {
			b.Fatal(err)
		}
		if z.Len() == 0 {
			b.Fatal("empty zone")
		}
	}
}

// BenchmarkFig2InstanceGrowth regenerates Figure 2's unit operation:
// materialize the full anycast deployment at a date.
func BenchmarkFig2InstanceGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dep := anycast.Deployment(ymd(2019, time.May, 15))
		if len(dep) < 900 {
			b.Fatalf("deployment %d", len(dep))
		}
	}
}

// ---- §2 tables ----

// BenchmarkT1HintsFile builds the root hints file.
func BenchmarkT1HintsFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(rootzone.HintsText()) == 0 {
			b.Fatal("empty hints")
		}
	}
}

// BenchmarkT1ZoneFile signs and compresses the full root zone — the
// published artifact whose size §2.1/§5.1 discuss.
func BenchmarkT1ZoneFile(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		z := fixtures.zone2019.Clone()
		if err := fixtures.signer.SignZone(z, ymd(2019, time.June, 7)); err != nil {
			b.Fatal(err)
		}
		blob, err := zone.Compress(z)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
	}
}

// BenchmarkT2TrafficClassification runs the §2.2 generate+classify
// pipeline at 100K-query scale.
func BenchmarkT2TrafficClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.TrafficClassification(100_000))
	}
}

// ---- §4 tables ----

// BenchmarkT4ResolutionLatency runs the four-mode latency comparison.
func BenchmarkT4ResolutionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.ResolutionLatency(120))
	}
}

// BenchmarkT4Robustness runs the outage-injection comparison.
func BenchmarkT4Robustness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.Robustness())
	}
}

// BenchmarkT4Attack runs the root-manipulation MITM comparison.
func BenchmarkT4Attack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.Attack(40))
	}
}

// BenchmarkT4Privacy runs the exposed-qname comparison.
func BenchmarkT4Privacy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.Privacy(60))
	}
}

// BenchmarkT4Complexity runs the SRTT-machinery comparison.
func BenchmarkT4Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.Complexity(60))
	}
}

// ---- §5 tables ----

// BenchmarkT5CachePreload runs the §5.1 cache-impact experiment.
func BenchmarkT5CachePreload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.CachePreload())
	}
}

// BenchmarkT5TLDExtraction measures the paper's "extract one TLD by
// scanning the compressed file" operation (the 37 ms Python script).
func BenchmarkT5TLDExtraction(b *testing.B) {
	setup(b)
	tlds := rootzone.TLDsAt(ymd(2019, time.June, 7))
	for i := 0; i < b.N; i++ {
		rrs, err := zone.ExtractTLD(fixtures.compressed, tlds[i%len(tlds)].Name)
		if err != nil {
			b.Fatal(err)
		}
		if len(rrs) == 0 {
			b.Fatal("no records extracted")
		}
	}
}

// BenchmarkT5TLDExtractionIndexed is the ablation: the same lookup
// against the pre-built per-TLD index ("load the root zone into a
// database").
func BenchmarkT5TLDExtractionIndexed(b *testing.B) {
	setup(b)
	idx := zone.BuildTLDIndex(fixtures.zone2019)
	tlds := rootzone.TLDsAt(ymd(2019, time.June, 7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(idx.Lookup(tlds[i%len(tlds)].Name)) == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkT5DistributionLoad measures the daily rsync delta between two
// consecutive signed snapshots — §5.2's per-resolver transfer cost.
func BenchmarkT5DistributionLoad(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		sig := dist.SignBlocks(fixtures.textDay0, dist.DefaultBlockSize)
		ops := dist.ComputeDelta(sig, fixtures.textDay1)
		b.SetBytes(int64(dist.DeltaSize(ops)))
	}
}

// BenchmarkT5Staleness measures the §5.2 reachability check between two
// month-apart zones.
func BenchmarkT5Staleness(b *testing.B) {
	stale, err := rootzone.Build(ymd(2019, time.April, 1))
	if err != nil {
		b.Fatal(err)
	}
	truth, err := rootzone.Build(ymd(2019, time.May, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := zonediff.CheckReachability(stale, truth)
		if r.Total == 0 {
			b.Fatal("no TLDs")
		}
	}
}

// BenchmarkT5NewTLDLag runs the §5.3 .llc analysis.
func BenchmarkT5NewTLDLag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.NewTLDLag())
	}
}

// BenchmarkT5TTLSweep runs the §5.2 TTL/staleness trade-off table.
func BenchmarkT5TTLSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.TTLSweep())
	}
}

// BenchmarkT5AdditionsChannel runs the §5.3 recent-additions ablation.
func BenchmarkT5AdditionsChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.AdditionsChannel())
	}
}

// BenchmarkT4Infrastructure runs the fleet-decommissioning model.
func BenchmarkT4Infrastructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.Infrastructure())
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationRsyncBlockSize sweeps the delta block size.
func BenchmarkAblationRsyncBlockSize(b *testing.B) {
	for _, bs := range []int{128, 256, 704, 2048, 8192} {
		b.Run(fmt.Sprintf("block%d", bs), func(b *testing.B) {
			setup(b)
			for i := 0; i < b.N; i++ {
				sig := dist.SignBlocks(fixtures.textDay0, bs)
				ops := dist.ComputeDelta(sig, fixtures.textDay1)
				b.ReportMetric(float64(dist.DeltaSize(ops)), "delta-bytes")
			}
		})
	}
}

// BenchmarkAblationVerify compares the paper's whole-file signature
// shortcut against full per-RRset DNSSEC validation.
func BenchmarkAblationVerify(b *testing.B) {
	b.Run("detached", func(b *testing.B) {
		setup(b)
		bundle, err := dist.MakeBundle(fixtures.signed2019, fixtures.signer)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := bundle.Verify(fixtures.signer.KSK.DNSKEY); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-dnssec", func(b *testing.B) {
		setup(b)
		anchor := fixtures.signer.TrustAnchor()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dnssec.VerifyZone(fixtures.signed2019, anchor, ymd(2019, time.June, 7)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationCacheEviction compares LRU behaviour with and without
// the preloaded root zone pinned.
func BenchmarkAblationCacheEviction(b *testing.B) {
	setup(b)
	_, sets := dnswire.GroupRRsets(fixtures.zone2019.Records())
	run := func(b *testing.B, pin bool) {
		clock := time.Unix(1559900000, 0)
		c := cache.New(20_000, func() time.Time { return clock })
		if pin {
			for _, rrs := range sets {
				c.Put(rrs, true)
			}
		}
		rng := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := dnswire.Name(fmt.Sprintf("n%d.example.com.", rng.Intn(50_000)))
			if _, ok := c.Get(name, dnswire.TypeA); !ok {
				c.Put([]dnswire.RR{dnswire.NewRR(name, 3600, dnswire.TXT{Strings: []string{"x"}})}, false)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false) })
	b.Run("preload-pinned", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationQMIN runs the QNAME-minimisation comparison (the §4
// privacy mitigation inside the classic architecture) and reports whether
// its findings hold — QMIN hides labels from the root path, the local
// root zone removes the path entirely.
func BenchmarkAblationQMIN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportMatches(b, experiments.Privacy(40))
	}
}

// BenchmarkAblationCacheWindow sweeps the §2.2 relaxed-cache window: how
// the "valid" share of root traffic depends on how often a resolver is
// allowed to re-ask (the paper uses 15 minutes / 96 per day).
func BenchmarkAblationCacheWindow(b *testing.B) {
	tlds := func() []dnswire.Name {
		var out []dnswire.Name
		for _, t := range rootzone.TLDsAt(ymd(2018, time.April, 11)) {
			out = append(out, t.Name)
		}
		return out
	}()
	cfg := ditl.DefaultGenConfig(tlds)
	cfg.TotalQueries = 100_000
	cfg.Resolvers = 410
	cfg.BogusOnlyResolvers = 72
	trace, err := ditl.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, window := range []time.Duration{time.Minute, 15 * time.Minute, time.Hour, 24 * time.Hour} {
		b.Run(window.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := ditl.Analyze(trace, tlds, "llc.", window)
				b.ReportMetric(100*a.WindowValidShare(), "valid-%")
			}
		})
	}
}

// ---- Substrate micro-benchmarks ----

// BenchmarkWireRoundTrip packs and unpacks a referral-sized message.
func BenchmarkWireRoundTrip(b *testing.B) {
	setup(b)
	ans := fixtures.zone2019.Query("www.example.com.", dnswire.TypeA)
	m := &dnswire.Message{
		ID: 1, Response: true,
		Questions:  []dnswire.Question{{Name: "www.example.com.", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
		Authority:  ans.Authority,
		Additional: ans.Additional,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire, err := m.Pack()
		if err != nil {
			b.Fatal(err)
		}
		var out dnswire.Message
		if err := out.Unpack(wire); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(wire)))
	}
}

// BenchmarkZoneQuery measures the authoritative lookup path.
func BenchmarkZoneQuery(b *testing.B) {
	setup(b)
	for i := 0; i < b.N; i++ {
		ans := fixtures.zone2019.Query("www.example.com.", dnswire.TypeA)
		if len(ans.Authority) == 0 {
			b.Fatal("no referral")
		}
	}
}

// BenchmarkZoneParse measures master-file parsing of the full root zone.
func BenchmarkZoneParse(b *testing.B) {
	setup(b)
	text := zone.Text(fixtures.zone2019)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, err := zone.Parse(strings.NewReader(text), dnswire.Root)
		if err != nil {
			b.Fatal(err)
		}
		if z.Len() == 0 {
			b.Fatal("empty")
		}
		b.SetBytes(int64(len(text)))
	}
}
