package dnswire

import (
	"bytes"
	"hash/maphash"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseName(t *testing.T) {
	cases := []struct {
		in      string
		want    Name
		wantErr bool
	}{
		{"", Root, false},
		{".", Root, false},
		{"com", "com.", false},
		{"com.", "com.", false},
		{"WWW.Example.COM.", "www.example.com.", false},
		{"a.b.c.d.e.f", "a.b.c.d.e.f.", false},
		{`ex\.ample.com`, `ex\.ample.com.`, false},
		{`a\032b.com`, `a\032b.com.`, false}, // space escapes numerically
		{"..", "", true},
		{".leading", "", true},
		{"double..dot", "", true},
		{strings.Repeat("a", 64) + ".com", "", true},
		{`bad\`, "", true},
		{`bad\25`, "", true},
		{`bad\999`, "", true},
	}
	for _, c := range cases {
		got, err := ParseName(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseName(%q) = %q, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseName(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestNameTooLong(t *testing.T) {
	label := strings.Repeat("a", 63)
	longName := strings.Join([]string{label, label, label, label}, ".") // 4*63+4 > 255
	if _, err := ParseName(longName); err == nil {
		t.Fatalf("ParseName accepted a %d-octet name", len(longName))
	}
}

func TestNameHelpers(t *testing.T) {
	n := MustParseName("www.example.com")
	if got := n.TLD(); got != "com." {
		t.Errorf("TLD = %q, want com.", got)
	}
	if got := n.Parent(); got != "example.com." {
		t.Errorf("Parent = %q, want example.com.", got)
	}
	if got := Root.Parent(); got != Root {
		t.Errorf("root Parent = %q, want root", got)
	}
	if got := Root.TLD(); got != Root {
		t.Errorf("root TLD = %q, want root", got)
	}
	if n.LabelCount() != 3 {
		t.Errorf("LabelCount = %d, want 3", n.LabelCount())
	}
	if !n.IsSubdomainOf("com.") || !n.IsSubdomainOf("example.com.") || !n.IsSubdomainOf(Root) {
		t.Error("IsSubdomainOf failed for true ancestors")
	}
	if n.IsSubdomainOf("org.") {
		t.Error("IsSubdomainOf matched a non-ancestor")
	}
	if MustParseName("notexample.com").IsSubdomainOf("example.com.") {
		t.Error("IsSubdomainOf matched a label-suffix non-ancestor")
	}
	child, err := Name("example.com.").Child("www")
	if err != nil || child != "www.example.com." {
		t.Errorf("Child = %q, %v", child, err)
	}
	rootChild, err := Root.Child("org")
	if err != nil || rootChild != "org." {
		t.Errorf("root Child = %q, %v", rootChild, err)
	}
}

func TestNameCompare(t *testing.T) {
	// RFC 4034 §6.1 example ordering.
	ordered := []Name{
		MustParseName("example."),
		MustParseName("a.example."),
		MustParseName("yljkjljk.a.example."),
		MustParseName("z.a.example."),
		MustParseName("zabc.a.example."),
		MustParseName("z.example."),
	}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%q,%q) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
	if Root.Compare(MustParseName("com.")) != -1 {
		t.Error("root should sort before com.")
	}
}

func TestNameWireRoundTrip(t *testing.T) {
	names := []Name{
		Root,
		"com.",
		"www.example.com.",
		MustParseName(strings.Repeat("a", 63) + ".x"),
		`ex\.ample.com.`,
		`a\032b.tld.`,
	}
	for _, n := range names {
		wire, err := appendName(nil, n, nil)
		if err != nil {
			t.Fatalf("appendName(%q): %v", n, err)
		}
		got, off, err := unpackName(wire, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", n, err)
		}
		if got != n {
			t.Errorf("round trip %q -> %q", n, got)
		}
		if off != len(wire) {
			t.Errorf("offset %d, want %d", off, len(wire))
		}
		if n.WireLen() != len(wire) {
			t.Errorf("WireLen(%q) = %d, wire is %d", n, n.WireLen(), len(wire))
		}
	}
}

func TestNameCompression(t *testing.T) {
	cmp := newCompressor()
	b, err := appendName(nil, "www.example.com.", cmp)
	if err != nil {
		t.Fatal(err)
	}
	first := len(b)
	b, err = appendName(b, "mail.example.com.", cmp)
	if err != nil {
		t.Fatal(err)
	}
	// Second name should be "mail" label (5 bytes) + 2-byte pointer.
	if len(b)-first != 5+2 {
		t.Errorf("compressed encoding is %d bytes, want 7", len(b)-first)
	}
	n1, off, err := unpackName(b, 0)
	if err != nil || n1 != "www.example.com." {
		t.Fatalf("first name %q, %v", n1, err)
	}
	n2, _, err := unpackName(b, off)
	if err != nil || n2 != "mail.example.com." {
		t.Fatalf("second name %q, %v", n2, err)
	}
}

// The suffix table keeps hashes, not names: a slot whose hash matches
// but whose bytes are another suffix's is passed over, on both encoding
// paths, and the name is compressed against the suffix it does share.
func TestCompressionChecksWrittenBytes(t *testing.T) {
	for _, name := range []Name{"mail.example.com.", "MAIL.Example.com."} {
		cmp := makeCompressor()
		b, err := appendName(nil, "www.example.com.", cmp)
		if err != nil {
			t.Fatal(err)
		}
		// Forge a collision: "mail.example.com." hashes to a slot that
		// points at "www.example.com.".
		h := maphash.String(suffixSeed, "mail.example.com.")
		cmp.add(cmp.probe(h, int(h)), h, 0)
		first := len(b)
		if b, err = appendName(b, name, cmp); err != nil {
			t.Fatal(err)
		}
		want := []byte{4, 'm', 'a', 'i', 'l', 0xC0, 4} // "mail", then a pointer to "example.com."
		if !bytes.Equal(b[first:], want) {
			t.Errorf("%s: encoded as %v, want %v", name, b[first:], want)
		}
	}
}

// A pointer to a root name decoded earlier in the message ends the name
// there: the labels before it make the whole name.
func TestUnpackPointerToRoot(t *testing.T) {
	wire := []byte{
		0, 1, 0x84, 0, 0, 1, 0, 1, 0, 0, 0, 0, // header: one question, one answer
		0, 0, 1, 0, 1, // question: . A IN, at offset 12
		1, 'a', 0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1, // a + pointer to the root
	}
	var m Message
	if err := m.Unpack(wire); err != nil {
		t.Fatal(err)
	}
	if got := m.Answers[0].Name; got != "a." {
		t.Errorf("owner %q, want %q", got, "a.")
	}
}

func TestUnpackNameErrors(t *testing.T) {
	cases := []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"truncated label", []byte{5, 'a', 'b'}},
		{"missing terminator", []byte{1, 'a'}},
		{"self pointer", []byte{0xC0, 0x00}},
		{"forward pointer", []byte{0xC0, 0x05, 0, 0, 0, 0}},
		{"reserved bits", []byte{0x80, 0x01}},
		{"truncated pointer", []byte{0xC0}},
	}
	for _, c := range cases {
		if _, _, err := unpackName(c.wire, 0); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestUnpackNamePointerLoop(t *testing.T) {
	// Two pointers that bounce between each other, preceded by a label so
	// the backward-only rule alone doesn't catch it at the first hop.
	wire := []byte{1, 'a', 0xC0, 0x00}
	// name at offset 2 points to offset 0, which reads label "a" then a
	// pointer back to 0: loop.
	if _, _, err := unpackName(wire, 2); err == nil {
		t.Fatal("expected pointer-loop error")
	}
}

// randomName generates a valid random name for property tests.
func randomName(r *rand.Rand) Name {
	labels := r.Intn(5)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + r.Intn(10)
		b := make([]byte, n)
		for j := range b {
			b[j] = "abcdefghijklmnopqrstuvwxyz0123456789-"[r.Intn(37)]
		}
		parts[i] = string(b)
	}
	n, err := ParseName(strings.Join(parts, "."))
	if err != nil {
		return Root
	}
	return n
}

func TestNameRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		wire, err := appendName(nil, n, nil)
		if err != nil {
			return false
		}
		got, _, err := unpackName(wire, 0)
		return err == nil && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomName(r), randomName(r), randomName(r)
		// Antisymmetry.
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// Reflexivity.
		if a.Compare(a) != 0 {
			return false
		}
		// Transitivity (only check the ordered triple).
		ns := []Name{a, b, c}
		for i := range ns {
			for j := range ns {
				for k := range ns {
					if ns[i].Compare(ns[j]) <= 0 && ns[j].Compare(ns[k]) <= 0 &&
						ns[i].Compare(ns[k]) > 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLabelsReflectParse(t *testing.T) {
	n := MustParseName("a.bc.def")
	want := [][]byte{[]byte("a"), []byte("bc"), []byte("def")}
	if got := n.Labels(); !reflect.DeepEqual(got, want) {
		t.Errorf("Labels = %q, want %q", got, want)
	}
	if got := Root.Labels(); len(got) != 0 {
		t.Errorf("root Labels = %q, want none", got)
	}
}
