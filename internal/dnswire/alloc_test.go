package dnswire

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// The alloc budgets below are the contract behind the pooled codec: the
// referral-shaped message from bench_test.go must pack in a single
// allocation (the output buffer) and none at all when the caller reuses
// one, and unpack in a small constant number (interned names, RData
// boxes, and the two section slices). Regressions here mean a pool or
// fast path quietly stopped working.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; alloc counts not meaningful")
	}
}

func TestPackAllocs(t *testing.T) {
	skipUnderRace(t)
	m := benchReferral()
	if _, err := m.Pack(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := m.Pack(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("Pack: %v allocs/op, want <= 1", got)
	}
}

func TestAppendPackReuseAllocs(t *testing.T) {
	skipUnderRace(t)
	m := benchReferral()
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = m.AppendPack(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("AppendPack with reused buffer: %v allocs/op, want 0", got)
	}
}

func TestUnpackAllocs(t *testing.T) {
	skipUnderRace(t)
	wire, err := benchReferral().Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		unpack func(m *Message, data []byte) error
		max    float64
	}{
		{"Unpack", (*Message).Unpack, 15},
		{"UnpackShared", (*Message).UnpackShared, 15},
	} {
		got := testing.AllocsPerRun(200, func() {
			var m Message
			if err := tc.unpack(&m, wire); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.name, got, tc.max)
		}
	}
}

// sortingTypeBitmap is the encoder appendTypeBitmap replaced: sort a copy,
// then write each run of one window. The reference for byte identity.
func sortingTypeBitmap(b []byte, types []Type) []byte {
	sorted := slices.Clone(types)
	slices.Sort(sorted)
	for i := 0; i < len(sorted); {
		window := byte(sorted[i] >> 8)
		var bitmap [32]byte
		maxOctet := 0
		for ; i < len(sorted) && byte(sorted[i]>>8) == window; i++ {
			lo := byte(sorted[i])
			bitmap[lo/8] |= 0x80 >> (lo % 8)
			maxOctet = max(maxOctet, int(lo/8)+1)
		}
		b = append(b, window, byte(maxOctet))
		b = append(b, bitmap[:maxOctet]...)
	}
	return b
}

// TestTypeBitmapMatchesSortingEncoder: random type lists spanning several
// windows, in any order and with duplicates, encode to the bytes the
// sorting encoder wrote, and decode back to the sorted, deduplicated set.
func TestTypeBitmapMatchesSortingEncoder(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	windows := []Type{0, 1, 2, 0x7F, 0xFF}
	for i := 0; i < 2000; i++ {
		types := make([]Type, r.Intn(12))
		for k := range types {
			types[k] = windows[r.Intn(len(windows))]<<8 | Type(r.Intn(256))
			if k > 0 && r.Intn(5) == 0 {
				types[k] = types[r.Intn(k)] // a duplicate
			}
		}
		if i%3 == 0 {
			slices.Sort(types)
		}
		got, _ := appendTypeBitmap([]byte{0xAA}, types)
		if want := sortingTypeBitmap([]byte{0xAA}, types); !bytes.Equal(got, want) {
			t.Fatalf("%v:\n got %x\nwant %x", types, got, want)
		}
		back, err := parseTypeBitmap(got[1:])
		if err != nil {
			t.Fatalf("%v: %v", types, err)
		}
		want := slices.Clone(types)
		slices.Sort(want)
		if want = slices.Compact(want); !slices.Equal(back, want) {
			t.Fatalf("%v decoded as %v", types, back)
		}
	}
}

// An NSEC's type bitmap is written without allocating, sorted or not.
func TestTypeBitmapAllocs(t *testing.T) {
	skipUnderRace(t)
	buf := make([]byte, 0, 128)
	for _, types := range [][]Type{
		{TypeA, TypeNS, TypeSOA, TypeRRSIG, TypeNSEC, TypeDNSKEY, TypeCAA},
		{TypeNS, TypeNSEC, TypeRRSIG, TypeDS}, // the signer's delegation order
	} {
		got := testing.AllocsPerRun(200, func() {
			buf, _ = appendTypeBitmap(buf[:0], types)
		})
		if got != 0 {
			t.Errorf("%v: %v allocs/op, want 0", types, got)
		}
	}
}

func TestUnpackSharedAliasesRData(t *testing.T) {
	m := &Message{
		ID:        1,
		Questions: []Question{{Name: "example.com.", Type: TypeDNSKEY, Class: ClassINET}},
	}
	m.Answers = append(m.Answers, NewRR("example.com.", 3600, DNSKEY{
		Flags: DNSKEYFlagZone, Protocol: 3, Algorithm: AlgEd25519,
		PublicKey: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	}))
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}

	var shared Message
	if err := shared.UnpackShared(wire); err != nil {
		t.Fatal(err)
	}
	key := shared.Answers[0].Data.(DNSKEY).PublicKey
	if &key[0] != &wire[len(wire)-len(key)] {
		t.Error("UnpackShared: PublicKey does not alias the input buffer")
	}

	var copied Message
	if err := copied.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	key = copied.Answers[0].Data.(DNSKEY).PublicKey
	if &key[0] == &wire[len(wire)-len(key)] {
		t.Error("Unpack: PublicKey aliases the input buffer, want a copy")
	}
}
