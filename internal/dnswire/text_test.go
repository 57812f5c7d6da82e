package dnswire

import (
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"net/netip"
	"strings"
	"testing"
)

// refText is the presentation form as String built it before it was
// written with appendText: fmt and strings, type by type. It is the
// reference String and CompareText are held to.
func refText(d RData) string {
	quote := func(s string) string {
		b := []byte{'"'}
		for i := 0; i < len(s); i++ {
			switch c := s[i]; {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c < ' ' || c > '~':
				b = append(b, '\\', '0'+c/100, '0'+c/10%10, '0'+c%10)
			default:
				b = append(b, c)
			}
		}
		return string(append(b, '"'))
	}
	switch d := d.(type) {
	case A:
		return d.Addr.String()
	case AAAA:
		return d.Addr.String()
	case NS:
		return string(d.Host)
	case CNAME:
		return string(d.Target)
	case PTR:
		return string(d.Target)
	case SOA:
		return fmt.Sprintf("%s %s %d %d %d %d %d", d.MName, d.RName, d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
	case MX:
		return fmt.Sprintf("%d %s", d.Preference, d.Host)
	case TXT:
		parts := make([]string, len(d.Strings))
		for i, s := range d.Strings {
			parts[i] = quote(s)
		}
		return strings.Join(parts, " ")
	case SRV:
		return fmt.Sprintf("%d %d %d %s", d.Priority, d.Weight, d.Port, d.Target)
	case DS:
		return fmt.Sprintf("%d %d %d %s", d.KeyTag, d.Algorithm, d.DigestType, strings.ToUpper(hex.EncodeToString(d.Digest)))
	case DNSKEY:
		return fmt.Sprintf("%d %d %d %s", d.Flags, d.Protocol, d.Algorithm, base64.StdEncoding.EncodeToString(d.PublicKey))
	case RRSIG:
		return fmt.Sprintf("%s %d %d %d %d %d %d %s %s", d.TypeCovered, d.Algorithm, d.Labels, d.OrigTTL,
			d.Expiration, d.Inception, d.KeyTag, d.SignerName, base64.StdEncoding.EncodeToString(d.Signature))
	case NSEC:
		parts := []string{string(d.NextName)}
		for _, t := range d.Types {
			parts = append(parts, t.String())
		}
		return strings.Join(parts, " ")
	case ZONEMD:
		return fmt.Sprintf("%d %d %d %s", d.Serial, d.Scheme, d.Hash, strings.ToUpper(hex.EncodeToString(d.Digest)))
	case CAA:
		return fmt.Sprintf("%d %s %s", d.Flags, d.Tag, quote(d.Value))
	case OPT:
		parts := make([]string, len(d.Options))
		for i, o := range d.Options {
			parts[i] = fmt.Sprintf("opt%d:%x", o.Code, o.Data)
		}
		return strings.Join(parts, " ")
	case Unknown:
		return fmt.Sprintf("\\# %d %s", len(d.Data), hex.EncodeToString(d.Data))
	}
	panic(fmt.Sprintf("no reference text for %T", d))
}

// textSamples are rdata of every type, among them values whose texts
// order otherwise than their numbers or bytes (10.x before 9.x, "NS"
// before "NSEC"), a type with no mnemonic, empty blobs and a signature
// too long for CompareText's stack buffers.
func textSamples() []RData {
	addr := netip.MustParseAddr
	blob := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i)*7
		}
		return b
	}
	return []RData{
		A{addr("192.0.2.1")}, A{addr("10.0.0.1")}, A{addr("9.255.0.1")}, A{},
		AAAA{addr("2001:db8::1")}, AAAA{addr("::1")}, AAAA{addr("::ffff:1.2.3.4")}, AAAA{addr("fe80::1%eth0")},
		NS{"a.example."}, NS{"b."}, NS{`a\.b.example.`}, CNAME{"c.example."}, PTR{"p.example."},
		SOA{"a.root-servers.net.", "nstld.verisign-grs.com.", 2019041100, 1800, 900, 604800, 86400},
		MX{10, "mail.example."}, MX{9, "mail.example."},
		TXT{[]string{"v=spf1 -all"}}, TXT{[]string{"a", ""}}, TXT{[]string{`q"u\o`, "\x07\xe9"}}, TXT{},
		SRV{1, 5, 5060, "sip.example."},
		DS{30909, 8, 2, blob(32, 1)}, DS{4096, 8, 1, blob(20, 9)}, DS{2, 15, 2, nil},
		DNSKEY{257, 3, 15, blob(32, 3)}, DNSKEY{256, 3, 15, blob(32, 4)},
		RRSIG{TypeNS, 15, 0, 518400, 1555545600, 1554336000, 20326, ".", blob(64, 5)},
		RRSIG{TypeNSEC, 15, 1, 86400, 1555545600, 1554336000, 20326, ".", blob(64, 6)},
		RRSIG{Type(999), 15, 1, 86400, 1555545600, 1554336000, 7, "example.", blob(400, 7)},
		RRSIG{TypeNS, 8, 0, 518400, 1555545600, 1554336000, 20326, ".", blob(256, 10)},
		RRSIG{TypeNS, 8, 0, 518400, 1555545600, 1554336000, 20326, ".", blob(256, 11)},
		DNSKEY{256, 3, 8, blob(260, 12)}, DNSKEY{256, 3, 8, blob(260, 13)},
		NSEC{"a.", []Type{TypeNS, TypeDS, TypeRRSIG, TypeNSEC}}, NSEC{"a.", nil}, NSEC{"b.", []Type{TypeA, Type(1234)}},
		ZONEMD{2019041100, 1, 1, blob(32, 8)},
		CAA{0, "issue", "ca;x"}, CAA{128, "iodef", "mailto:x\"y"},
		OPT{[]EDNSOption{{10, []byte{1, 2}}, {12, nil}}}, OPT{},
		Unknown{999, []byte{1, 2, 3}}, Unknown{999, nil},
	}
}

// TestTextMatchesReference: String spells every sample as before, RR's
// String too, and CompareText orders and equates any two exactly as their
// texts compare.
func TestTextMatchesReference(t *testing.T) {
	samples := textSamples()
	for _, d := range samples {
		if got, want := d.String(), refText(d); got != want {
			t.Errorf("%T String = %q, want %q", d, got, want)
		}
		rr := RR{Name: "x.example.", Type: d.Type(), Class: Class(42), TTL: 60, Data: d}
		if got, want := rr.String(), fmt.Sprintf("%s\t%d\t%s\t%s\t%s", rr.Name, rr.TTL, rr.Class, rr.Type, refText(d)); got != want {
			t.Errorf("RR String = %q, want %q", got, want)
		}
	}
	for _, a := range samples {
		for _, b := range samples {
			if got, want := CompareText(a, b), strings.Compare(refText(a), refText(b)); got != want {
				t.Errorf("CompareText(%q, %q) = %d, want %d", refText(a), refText(b), got, want)
			}
		}
	}
}

var sinkCmp int

// TestCompareTextAllocs: comparing the texts builds neither, for the
// longest records of zones signed with Ed25519 and with RSA-2048.
func TestCompareTextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	samples := textSamples()
	for _, c := range []struct {
		what string
		a, b RData
	}{
		{"two Ed25519 RRSIGs", samples[26], samples[27]},
		{"two RSA-2048 RRSIGs", samples[29], samples[30]},
		{"two RSA-2048 DNSKEYs", samples[31], samples[32]},
	} {
		if got := testing.AllocsPerRun(100, func() { sinkCmp = CompareText(c.a, c.b) }); got != 0 {
			t.Errorf("CompareText of %s: %v allocs, want 0", c.what, got)
		}
	}
}
