package dnswire

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The label-parsing implementations the string-walking ones in name.go
// replaced, kept as test-only references: every accessor and Compare
// must agree with them on every input.

func refCompare(n, m Name) int {
	a, b := n.Labels(), m.Labels()
	for i := 1; i <= len(a) && i <= len(b); i++ {
		if c := refCompareLabels(a[len(a)-i], b[len(b)-i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

func refCompareLabels(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		ca, cb := lowerByte(a[i]), lowerByte(b[i])
		if ca != cb {
			if ca < cb {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(len(a), len(b))
}

func refParent(n Name) Name {
	labels := n.Labels()
	if len(labels) == 0 {
		return Root
	}
	return nameFromLabels(labels[1:])
}

func refTLD(n Name) Name {
	labels := n.Labels()
	if len(labels) == 0 {
		return Root
	}
	return nameFromLabels(labels[len(labels)-1:])
}

func refWireLen(n Name) int {
	total := 1
	for _, l := range n.Labels() {
		total += len(l) + 1
	}
	return total
}

// refIsSubdomainOf is the label-wise definition: parent's labels are a
// suffix of n's.
func refIsSubdomainOf(n, parent Name) bool {
	a, b := n.Labels(), parent.Labels()
	if len(b) > len(a) {
		return false
	}
	for i := 1; i <= len(b); i++ {
		if !bytes.Equal(a[len(a)-i], b[len(b)-i]) {
			return false
		}
	}
	return true
}

// refCommonAncestor is the name made of the labels a and b end with.
func refCommonAncestor(n, m Name) Name {
	a, b := n.Labels(), m.Labels()
	k := 0
	for k < len(a) && k < len(b) && bytes.Equal(a[len(a)-1-k], b[len(b)-1-k]) {
		k++
	}
	return nameFromLabels(a[len(a)-k:])
}

// checkAgainstReference compares every name.go fast path with its
// reference on the raw strings a and b, which need not be valid names.
func checkAgainstReference(t *testing.T, a, b string) {
	t.Helper()
	n, m := Name(a), Name(b)
	got, back := n.Compare(m), m.Compare(n)
	if got != -back {
		t.Fatalf("Compare(%q,%q) = %d but reversed = %d", a, b, got, back)
	}
	// Sort keys exist for exactly the plain names, and order them as
	// Compare does.
	ka, okA := AppendSortKey([]byte("x"), n)
	kb, okB := AppendSortKey(nil, m)
	if okA != plain(a) || okB != plain(b) || !okA && string(ka) != "x" {
		t.Fatalf("AppendSortKey(%q) = %q, %v; (%q) = %v", a, ka, okA, b, okB)
	}
	if okA && okB && bytes.Compare(ka[1:], kb) != got {
		t.Fatalf("keys %q, %q order %d; Compare(%q,%q) = %d", ka[1:], kb, bytes.Compare(ka[1:], kb), a, b, got)
	}
	// Accessors agree with the label parser on any string at all: plain
	// admits only what the parser splits at the same dots.
	if g, w := n.Parent(), refParent(n); g != w {
		t.Fatalf("Parent(%q) = %q, reference %q", a, g, w)
	}
	if g, w := n.TLD(), refTLD(n); g != w {
		t.Fatalf("TLD(%q) = %q, reference %q", a, g, w)
	}
	if g, w := n.LabelCount(), len(n.Labels()); g != w {
		t.Fatalf("LabelCount(%q) = %d, reference %d", a, g, w)
	}
	if g, w := n.WireLen(), refWireLen(n); g != w {
		t.Fatalf("WireLen(%q) = %d, reference %d", a, g, w)
	}
	// Compare and IsSubdomainOf are defined on names: hold them to the
	// reference whenever both strings parse, raw and canonical alike.
	cn, errN := ParseName(a)
	cm, errM := ParseName(b)
	if errN != nil || errM != nil {
		return
	}
	want := refCompare(n, m)
	if got != want {
		t.Fatalf("Compare(%q,%q) = %d, reference %d", a, b, got, want)
	}
	if g := cn.Compare(cm); g != want {
		t.Fatalf("Compare(%q,%q) = %d on canonical forms, reference %d", cn, cm, g, want)
	}
	if g, w := cn.IsSubdomainOf(cm), refIsSubdomainOf(cn, cm); g != w {
		t.Fatalf("%q.IsSubdomainOf(%q) = %v, reference %v", cn, cm, g, w)
	}
	if g, w := cn.CommonAncestor(cm), refCommonAncestor(cn, cm); g != w {
		t.Fatalf("%q.CommonAncestor(%q) = %q, reference %q", cn, cm, g, w)
	}
}

// canonCorpus holds the shapes the serving path sees plus every edge of
// the fast paths: escapes, \DDD, mixed case, relative names, label and
// name length limits, prefix relations.
var canonCorpus = []string{
	"", ".", "com", "com.", "COM.", "Com", "org.", "a.com.", "A.CoM.", "z.a.com.", "a.b.c.d.e.",
	"example.", "a.example.", "yljkjljk.a.example.", "Z.a.example.", "zabc.a.EXAMPLE.", "z.example.",
	"xn--p1ai.", "notexample.com.", "example.com.", "www.example.com.", "-.", "0.", "a-b.", "ab.",
	`a\.b.com.`, `b.com.`, `a\\.b.com.`, `a\\\.b.com.`, `\.`, `\..`, `\065.`, `\065.com.`, `a.com`,
	`\097.COM.`, `ex\.ample.com`, `a\032b.tld.`, `a b.tld.`, `\000.com.`, `\255.`, `*.com.`,
	`bad\`, "..", "a..b.", ".a.", `\999.`, `\04`, " .", "a b.", "\x7f.", "é.com.", "É.com.",
	strings.Repeat("a", 63) + ".com.", strings.Repeat("a", 64) + ".com.",
	strings.Repeat("abcdefg.", 31) + "owner.", strings.Repeat("abcdefg.", 31) + "owners.",
	strings.Repeat("abcdefg.", 32),
}

func TestNameFastPathsMatchReference(t *testing.T) {
	for _, a := range canonCorpus {
		for _, b := range canonCorpus {
			checkAgainstReference(t, a, b)
		}
	}
	// Random names over a tiny alphabet, so equal labels, shared
	// suffixes and prefix relations are common.
	const alphabet = `abAB-.\09`
	r := rand.New(rand.NewSource(1))
	gen := func() string {
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		checkAgainstReference(t, gen(), gen())
	}
}

// An escaped dot is label content: "a\.b.com." is the label "a.b" under
// com., not a name under b.com.
func TestIsSubdomainOfEscapedDot(t *testing.T) {
	for _, c := range []struct {
		n, parent Name
		want      bool
	}{
		{`a\.b.com.`, "b.com.", false},
		{`a\.b.com.`, "com.", true},
		{`a\\.b.com.`, "b.com.", true}, // the label `a\` under b.com.
		{`a\\\.b.com.`, "b.com.", false},
		{`\.b.com.`, "b.com.", false},
	} {
		if got := c.n.IsSubdomainOf(c.parent); got != c.want {
			t.Errorf("%q.IsSubdomainOf(%q) = %v, want %v", c.n, c.parent, got, c.want)
		}
	}
}

// FuzzNameCompare: antisymmetry on any two strings, agreement of every
// string-walking fast path with the label-parsing reference.
func FuzzNameCompare(f *testing.F) {
	for i, a := range canonCorpus {
		f.Add(a, canonCorpus[(i+1)%len(canonCorpus)])
		f.Add(a, a)
	}
	f.Add(`a\.b.com.`, `A\.B.COM`)
	f.Add(`\065bc.`, "ABC.")
	f.Add(`0".`, `a(b);c.`) // master-file specials: escaped in canonical form
	f.Fuzz(func(t *testing.T, a, b string) {
		checkAgainstReference(t, a, b)
	})
}

// Escape-free names — every name the root zone and the junk stream
// hold — compare and decompose without allocating.
func TestNameFastPathAllocs(t *testing.T) {
	skipUnderRace(t)
	a, b := Name("www.example.com."), Name("www.example.org.")
	var sink int
	got := testing.AllocsPerRun(200, func() {
		sink += a.Compare(b) + a.Compare(a) + a.LabelCount() + a.WireLen()
		sink += len(a.Parent()) + len(a.TLD())
		if a.IsSubdomainOf(b) {
			sink++
		}
	})
	if got != 0 {
		t.Errorf("Compare/Parent/TLD/LabelCount/WireLen/IsSubdomainOf: %v allocs/op, want 0", got)
	}
	_ = sink
}

// SortNames and SortKeys must order exactly as Compare does, on the
// keyed route (plain names only) and on the fallback (any other name
// present), and SortKeys keeps each name's key.
func TestSortNamesMatchesCompare(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	label := func() string {
		b := make([]byte, 1+r.Intn(3))
		for i := range b {
			b[i] = "ab-0~!"[r.Intn(6)]
		}
		return string(b)
	}
	for _, extra := range [][]Name{nil, {`a\.b.`, "Ab.", "a.b"}} {
		names := append([]Name{Root, "abcdefgh.", "abcdefgh.i.", "abcdefghi.", "abcdefg."}, extra...)
		seen := map[Name]bool{}
		for len(names) < 3000 {
			n := Name(label() + ".")
			for k := r.Intn(4); k > 0; k-- {
				n = Name(label() + "." + string(n))
			}
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
		want := slices.Clone(names)
		slices.SortStableFunc(want, Name.Compare)
		sorted := slices.Clone(names)
		SortNames(sorted)
		keys, offs := SortKeys(names)
		if !slices.Equal(sorted, names) {
			t.Fatalf("extra %q: SortKeys and SortNames order differently", extra)
		}
		if (keys == nil) != (extra != nil) {
			t.Fatalf("extra %q: SortKeys returned keys %v", extra, keys != nil)
		}
		for i := 0; keys != nil && i < len(names); i++ {
			if k, _ := AppendSortKey(nil, names[i]); string(k) != string(keys[offs[i]:offs[i+1]]) {
				t.Fatalf("key of %q kept as %q, is %q", names[i], keys[offs[i]:offs[i+1]], k)
			}
		}
		for i := range names {
			// Distinct names may compare equal only on the fallback
			// ("Ab." and "ab."); everywhere else the order is total.
			if names[i] != want[i] && names[i].Compare(want[i]) != 0 {
				t.Fatalf("extra %q: position %d is %q, Compare order has %q", extra, i, names[i], want[i])
			}
		}
	}
}
