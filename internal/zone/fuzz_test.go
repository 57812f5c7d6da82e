package zone

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rootless/internal/dnswire"
)

// FuzzZoneParse drives the master-file reader with arbitrary text and
// holds it to the reader it replaced (refParse): the same decision, a
// refusal at the same line, and the same records field for field, each
// RRset in the order it was added. Whatever it accepts must also survive
// the trip out through Text and back in.
func FuzzZoneParse(f *testing.F) {
	for _, seed := range []string{
		sampleMaster,
		"$ORIGIN example.com.\n$TTL 1h\n@ IN NS ns1\nns1 IN A 192.0.2.1\nwww IN CNAME @\n",
		`. 60 IN TXT "with \"quotes\" and \\ and ; and (" "" plain "bell\007 é"`,
		". 60 IN TYPE999 \\# 3 010203\n. 60 CH TXT x\n",
		". 60 IN NSEC a. NS DS RRSIG NSEC TYPE1234\n",
		". 60 IN RRSIG NS 8 0 60 2 1 3 . AAAA\n. 60 IN DNSKEY 257 3 8 AwEAAa==\n",
		". 60 IN ZONEMD 1 1 1 ABCD\n. 60 IN CAA 128 issue \"ca;x\"\n. 60 IN PTR a\\.b.\n",
		"a\\032b\\059. 1d IN MX 10 (\n mail ) ; comment\n\t60 SRV 1 2 3 t.\n",
		"$ORIGIN a.\nwww 60 A 192.0.2.1\n$ORIGIN b.\nwww 60 A 192.0.2.2\n@ 60 NS www\n",
		". 60 IN A 01.2.3.4\n. 60 IN A 1.2.3.4.5\n",
		"x. 60 in a 10.0.0.1\nx. 60 IN A 9.0.0.1\nX. 60 A 10.0.0.1\n. 60 IN AAAA ::ffff:1.2.3.4\n",
		". 60 IN DS 1 8 2 ( AB\n CD )\n. 0000000000000000000060 IN NS a.\n. 1H1h IN NS A.B.\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		z, err := Parse(strings.NewReader(text), dnswire.Root)
		ref, refErr := refParse(strings.NewReader(text), dnswire.Root)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: Parse error %v, reference error %v", text, err, refErr)
		}
		if err != nil {
			var pe, refPE *ParseError
			if errors.As(err, &pe) != errors.As(refErr, &refPE) || pe != nil && pe.Line != refPE.Line {
				t.Fatalf("%q: Parse refused it with %v, the reference with %v", text, err, refErr)
			}
			return
		}
		if got, want := z.Records(), ref.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: records differ from the reference's\n got %#v\nwant %#v", text, got, want)
		}
		for _, n := range ref.Names() {
			if got, want := z.LookupAll(n), ref.LookupAll(n); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: %s holds %#v, the reference %#v", text, n, got, want)
			}
		}
		out := Text(z)
		again, err := Parse(strings.NewReader(out), dnswire.Root)
		if err != nil {
			t.Fatalf("%q parsed, but its text does not: %v\n%s", text, err, out)
		}
		if got, want := again.Records(), z.Records(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: records changed on the trip through\n%s\n got %#v\nwant %#v", text, out, got, want)
		}
	})
}
