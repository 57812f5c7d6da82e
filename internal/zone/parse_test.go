package zone_test

import (
	"reflect"
	"strings"
	"testing"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// TestParseMatchesReference: the signed and the unsigned root, read back
// from their text by Parse and by the reader it replaced, hold the same
// records, down to the order each RRset was added in (what Lookup returns
// and authd serves).
func TestParseMatchesReference(t *testing.T) {
	unsigned, err := rootzone.Build(snapshotDate)
	if err != nil {
		t.Fatal(err)
	}
	for _, z := range []*zone.Zone{rootZone(t), unsigned} {
		text := zone.Text(z)
		got, err := zone.Parse(strings.NewReader(text), z.Origin)
		if err != nil {
			t.Fatal(err)
		}
		want, err := zone.RefParse(strings.NewReader(text), z.Origin)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records(), want.Records()) {
			t.Fatalf("the %d-record zone reads back differently from the reference", z.Len())
		}
		for _, n := range want.Names() {
			if g, w := got.LookupAll(n), want.LookupAll(n); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s holds %v, the reference %v", n, g, w)
			}
		}
	}
}

var sinkDigest []byte

// compressedRoot is the signed root as a full bundle carries it.
func compressedRoot(tb testing.TB) []byte {
	tb.Helper()
	blob, err := zone.Compress(rootZone(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// BenchmarkDecompressRoot is a full bundle's parse: gunzip the signed
// root's master file and read it into a zone.
func BenchmarkDecompressRoot(b *testing.B) {
	blob := compressedRoot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z, err := zone.Decompress(blob, dnswire.Root)
		if err != nil {
			b.Fatal(err)
		}
		sinkZone = z
	}
}

// TestDecompressAllocs pins what reading a full bundle allocates per
// record of the signed root: 19.8 before the reader interned names and
// Add stopped rendering text, about 3 since.
func TestDecompressAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	blob := compressedRoot(t)
	records := float64(rootZone(t).Len())
	got := testing.AllocsPerRun(2, func() {
		z, err := zone.Decompress(blob, dnswire.Root)
		if err != nil {
			t.Fatal(err)
		}
		sinkZone = z
	})
	if per := got / records; per > 4 {
		t.Errorf("Decompress of the signed root: %.0f allocs, %.2f per record, want <= 4", got, per)
	}
}

// TestZoneDigestAllocs pins the digest every chain anchor is taken over:
// about 95 K allocations while each record's wire form had a slice of its
// own and unsorted RRsets were sorted by rendered text, a few dozen now.
func TestZoneDigestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	z := rootZone(t)
	z.Names()
	if got := testing.AllocsPerRun(3, func() { sinkDigest = dnssec.ZoneDigest(z) }); got > 64 {
		t.Errorf("ZoneDigest of the signed root: %.0f allocs, want <= 64", got)
	}
}
