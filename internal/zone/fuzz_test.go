package zone

import (
	"reflect"
	"strings"
	"testing"

	"rootless/internal/dnswire"
)

// FuzzZoneParse drives the master-file parser with arbitrary text. It
// must never panic, and whatever it accepts must survive the trip out
// through Text and back in: the same records, field for field.
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
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		z, err := Parse(strings.NewReader(text), dnswire.Root)
		if err != nil {
			return
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
