package dnswire

import (
	"bytes"
	"fmt"
	"testing"
)

// TestImageMatchesAppendPack: for every question an image accepts, it
// writes the bytes AppendPack makes of the same message with that
// question, whatever the ID and RD; it refuses a name that is not plain
// or not at or below its anchor. Its records compress against the apex,
// against a suffix above it (other.example.), against each other and,
// for the questions it must refuse, against a suffix of the question
// below the apex.
func TestImageMatchesAppendPack(t *testing.T) {
	const anchor = Name("sub.example.")
	template := func(q Name) *Message {
		m := &Message{Response: true, Authoritative: true, Rcode: RcodeNXDomain,
			Questions: []Question{{Name: q, Type: TypeA, Class: ClassINET}}}
		m.Authority = []RR{
			NewRR(anchor, 300, SOA{MName: "ns1.other.example.", RName: "hostmaster.sub.example.", Serial: 7}),
			NewRR("a.sub.example.", 300, NSEC{NextName: "b.sub.example.", Types: []Type{TypeA, TypeNSEC}}),
			NewRR("a.sub.example.", 300, NS{Host: "ns.a.sub.example."}),
			NewRR(`e\.sc.sub.example.`, 300, CNAME{Target: "x.other.example."}),
		}
		m.SetEDNS(DefaultEDNSSize, true)
		return m
	}
	im, err := NewImage(template(anchor))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q  Name
		ok bool
	}{
		{anchor, true}, {"x.sub.example.", true}, {"b.sub.example.", true}, {"q.x.sub.example.", true},
		{"sub.sub.example.", true}, {"example.sub.example.", true}, {"other.sub.example.", true},
		{"a.sub.example.", false}, {"z.a.sub.example.", false}, // below a record's owner
		{"hostmaster.sub.example.", false}, {"q.hostmaster.sub.example.", false}, // the SOA's RNAME
		{`q.e\.sc.sub.example.`, false}, {`x\000.sub.example.`, false}, // not plain
		{"e.sc.sub.example.", true},                                    // not below the escaped owner
		{"example.", false}, {"sub.example.org.", false}, {".", false}, // not below the anchor
	} {
		n, ok := im.Len(c.q)
		if ok != c.ok {
			t.Errorf("Len(%q) = %d, %v; want %v", c.q, n, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		for _, rd := range []bool{false, true} {
			m := template(c.q)
			m.ID, m.RecursionDesired = 0xBEEF, rd
			want, err := m.AppendPack(nil)
			if err != nil {
				t.Fatal(err)
			}
			got := im.Append([]byte("prefix"), m.ID, rd, m.Questions[0])
			if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) || n != len(want) {
				t.Fatalf("%q rd %v: Len %d\n got %x\nwant %x", c.q, rd, n, got[6:], want)
			}
		}
	}

	// A message that would put a name beyond a pointer's reach.
	big := template(anchor)
	for i := 0; i < 200; i++ {
		big.Additional = append(big.Additional, NewRR(Name(fmt.Sprintf("h%d.sub.example.", i)), 300,
			TXT{Strings: []string{string(bytes.Repeat([]byte{'x'}, 80))}}))
	}
	if im, err = NewImage(big); err != nil {
		t.Fatal(err)
	}
	if n, ok := im.Len("q.sub.example."); ok {
		t.Errorf("Len = %d, true for a message past the 16 KB a pointer reaches", n)
	}
}
