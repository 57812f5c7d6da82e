package zone

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"rootless/internal/dnswire"
)

const sampleMaster = `
; Example zone in the style of the root zone.
$ORIGIN .
$TTL 86400
.            86400 IN SOA  a.root-servers.net. nstld.verisign-grs.com. (
                               2019041100 ; serial
                               1800       ; refresh
                               900        ; retry
                               604800     ; expire
                               86400 )    ; minimum
.            518400 IN NS   a.root-servers.net.
com.         172800 IN NS   a.gtld-servers.net.
             172800 IN NS   b.gtld-servers.net.
com.          86400 IN DS   30909 8 2 E2D3C916F6DEEAC73294E8268FB5885044A833FC5459588F4A9184CFC41A5766
a.gtld-servers.net. 172800 IN A    192.5.6.30
a.gtld-servers.net. 172800 IN AAAA 2001:503:a83e::2:30
example.com.   3600 IN MX   10 mail.example.com.
example.com.   3600 IN TXT  "v=spf1 -all" "note with ; semicolon"
www.example.com. 60 IN CNAME example.com.
_sip._tcp.example.com. 600 IN SRV 1 5 5060 sip.example.com.
example.com.  86400 IN CAA  0 issue "ca.example.net"
`

func TestParseMasterFile(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleMaster), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	soa, ok := z.SOA()
	if !ok {
		t.Fatal("no SOA parsed")
	}
	if soa.Data.(dnswire.SOA).Serial != 2019041100 {
		t.Errorf("serial = %d", soa.Data.(dnswire.SOA).Serial)
	}
	if got := len(z.Lookup("com.", dnswire.TypeNS)); got != 2 {
		t.Errorf("com. NS = %d, want 2 (owner inheritance)", got)
	}
	ds := z.Lookup("com.", dnswire.TypeDS)
	if len(ds) != 1 || ds[0].Data.(dnswire.DS).KeyTag != 30909 {
		t.Errorf("DS = %+v", ds)
	}
	txt := z.Lookup("example.com.", dnswire.TypeTXT)
	if len(txt) != 1 {
		t.Fatalf("TXT = %+v", txt)
	}
	ss := txt[0].Data.(dnswire.TXT).Strings
	if len(ss) != 2 || ss[1] != "note with ; semicolon" {
		t.Errorf("TXT strings = %q", ss)
	}
	aaaa := z.Lookup("a.gtld-servers.net.", dnswire.TypeAAAA)
	if len(aaaa) != 1 || aaaa[0].Data.(dnswire.AAAA).Addr != netip.MustParseAddr("2001:503:a83e::2:30") {
		t.Errorf("AAAA = %+v", aaaa)
	}
	srv := z.Lookup("_sip._tcp.example.com.", dnswire.TypeSRV)
	if len(srv) != 1 || srv[0].Data.(dnswire.SRV).Port != 5060 {
		t.Errorf("SRV = %+v", srv)
	}
}

func TestParseRelativeNamesAndOrigin(t *testing.T) {
	src := `
$ORIGIN example.com.
$TTL 3600
@       IN NS  ns1
ns1     IN A   192.0.2.1
www     IN CNAME @
`
	z, err := Parse(strings.NewReader(src), "example.com.")
	if err != nil {
		t.Fatal(err)
	}
	ns := z.Lookup("example.com.", dnswire.TypeNS)
	if len(ns) != 1 || ns[0].Data.(dnswire.NS).Host != "ns1.example.com." {
		t.Errorf("NS = %+v", ns)
	}
	cn := z.Lookup("www.example.com.", dnswire.TypeCNAME)
	if len(cn) != 1 || cn[0].Data.(dnswire.CNAME).Target != "example.com." {
		t.Errorf("CNAME = %+v", cn)
	}
	if ns[0].TTL != 3600 {
		t.Errorf("TTL = %d, want $TTL 3600", ns[0].TTL)
	}
}

func TestParseTTLUnits(t *testing.T) {
	cases := map[string]uint32{
		"300": 300, "1m": 60, "1h30m": 5400, "2d": 172800, "1w": 604800, "1d12h": 129600,
	}
	for in, want := range cases {
		got, err := parseTTL([]byte(in))
		if err != nil || got != want {
			t.Errorf("parseTTL(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "h", "1x", "12.5", "99999999999999999999"} {
		if _, err := parseTTL([]byte(bad)); err == nil {
			t.Errorf("parseTTL(%q) should fail", bad)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unclosed paren", ". 60 IN SOA a. b. ( 1 2 3"},
		{"unbalanced close", ". 60 IN NS )a."},
		{"bad type", ". 60 IN BOGUS data"},
		{"bad ipv4", ". 60 IN A 999.1.1.1"},
		{"bad ipv6", ". 60 IN AAAA zz::1"},
		{"v4 in aaaa", ". 60 IN AAAA 1.2.3.4"},
		{"missing rdata", ". 60 IN MX"},
		{"inherit with no owner", " 60 IN NS a."},
		{"unterminated quote", `. 60 IN TXT "abc`},
		{"origin args", "$ORIGIN"},
		{"ttl args", "$TTL"},
		{"include unsupported", "$INCLUDE other.zone"},
		{"soa fields", ". 60 IN SOA a. b. 1 2 3"},
		{"bad ds hex", ". 60 IN DS 1 8 2 XYZ"},
		{"bad dnskey b64", ". 60 IN DNSKEY 256 3 15 !!!!"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.src), dnswire.Root); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

// TestParseIPv4MatchesNetip: an A record's address is read exactly as
// netip.ParseAddr reads an IPv4 address, edge cases and random strings of
// the characters that matter alike.
func TestParseIPv4MatchesNetip(t *testing.T) {
	inputs := []string{"", "1.2.3.4", "0.0.0.0", "255.255.255.255", "256.1.1.1", "01.2.3.4",
		"1.2.3", "1.2.3.4.5", "1..3.4", ".1.2.3", "1.2.3.", "1.2.3.4%eth0", "::ffff:1.2.3.4",
		"1.2.3.4:53", "1000.2.3.4", "0001.2.3.4", "1.2.3.-4", " 1.2.3.4"}
	r := rand.New(rand.NewSource(1))
	const alphabet = "0123456789.:%x"
	for i := 0; i < 50000; i++ {
		b := make([]byte, r.Intn(18))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		got, ok := parseIPv4([]byte(s))
		want, err := netip.ParseAddr(s)
		if wantOK := err == nil && want.Is4(); ok != wantOK || ok && got != want {
			t.Errorf("parseIPv4(%q) = %v, %v; netip reads %v, %v", s, got, ok, want, err)
		}
	}
}

func TestParseUnknownTypeRFC3597(t *testing.T) {
	src := "example. 60 IN TYPE999 \\# 3 010203\n"
	z, err := Parse(strings.NewReader(src), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	rrs := z.Lookup("example.", dnswire.Type(999))
	if len(rrs) != 1 {
		t.Fatalf("unknown-type rrs = %+v", rrs)
	}
	u := rrs[0].Data.(dnswire.Unknown)
	if !reflect.DeepEqual(u.Data, []byte{1, 2, 3}) {
		t.Errorf("data = %v", u.Data)
	}
	// Length mismatch must fail.
	bad := "example. 60 IN TYPE999 \\# 4 010203\n"
	if _, err := Parse(strings.NewReader(bad), dnswire.Root); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleMaster), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	text := Text(z)
	z2, err := Parse(strings.NewReader(text), dnswire.Root)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	r1, r2 := z.Records(), z2.Records()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("round trip differs:\n%v\nvs\n%v", r1, r2)
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleMaster), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Compress(z)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) >= len(Text(z)) {
		t.Errorf("compression did not shrink: %d >= %d", len(blob), len(Text(z)))
	}
	z2, err := Decompress(blob, dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(z.Records(), z2.Records()) {
		t.Error("compressed round trip differs")
	}
	if _, err := Decompress([]byte("not gzip"), dnswire.Root); err == nil {
		t.Error("bad gzip should fail")
	}
}

func TestExtractTLD(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleMaster), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Compress(z)
	if err != nil {
		t.Fatal(err)
	}
	rrs, err := ExtractTLD(blob, "com.")
	if err != nil {
		t.Fatal(err)
	}
	// Expect: 2 NS + 1 DS at com., everything under example.com (6 rrs),
	// plus out-of-bailiwick glue for *.gtld-servers.net (2 rrs).
	var nsCount, glueCount int
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeNS && rr.Name == "com." {
			nsCount++
		}
		if rr.Name.TLD() == "net." {
			glueCount++
		}
	}
	if nsCount != 2 {
		t.Errorf("NS at com. = %d, want 2", nsCount)
	}
	if glueCount != 2 {
		t.Errorf("out-of-bailiwick glue = %d, want 2", glueCount)
	}
}

func TestTLDIndex(t *testing.T) {
	z, err := Parse(strings.NewReader(sampleMaster), dnswire.Root)
	if err != nil {
		t.Fatal(err)
	}
	idx := BuildTLDIndex(z)
	comRRs := idx.Lookup("com.")
	if len(comRRs) == 0 {
		t.Fatal("no records for com.")
	}
	var hasNS, hasGlue bool
	for _, rr := range comRRs {
		if rr.Type == dnswire.TypeNS && rr.Name == "com." {
			hasNS = true
		}
		if rr.Name == "a.gtld-servers.net." {
			hasGlue = true
		}
	}
	if !hasNS || !hasGlue {
		t.Errorf("index missing NS (%v) or glue (%v)", hasNS, hasGlue)
	}
	if idx.Lookup("nosuch.") != nil {
		t.Error("missing TLD should be nil")
	}
}

func TestReadNames(t *testing.T) {
	names, err := ReadNames(strings.NewReader(sampleMaster))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[dnswire.Name]bool)
	for _, n := range names {
		seen[n] = true
	}
	for _, want := range []dnswire.Name{"com.", "example.com.", "www.example.com."} {
		if !seen[want] {
			t.Errorf("ReadNames missing %q", want)
		}
	}
}

// randomZone builds a random zone of printable records for round-trip
// property testing.
func randomZone(r *rand.Rand) *Zone {
	z := New(dnswire.Root)
	_ = z.Add(dnswire.NewRR(dnswire.Root, 86400, dnswire.SOA{
		MName: "m.example.", RName: "r.example.", Serial: uint32(r.Intn(1 << 30)),
		Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400}))
	tldChars := "abcdefghijklmnopqrstuvwxyz"
	for i := 0; i < 1+r.Intn(30); i++ {
		b := make([]byte, 2+r.Intn(8))
		for j := range b {
			b[j] = tldChars[r.Intn(len(tldChars))]
		}
		tld := dnswire.Name(string(b) + ".")
		host := dnswire.Name("ns" + string(rune('a'+r.Intn(26))) + ".nic." + string(tld))
		_ = z.Add(dnswire.NewRR(tld, 172800, dnswire.NS{Host: host}))
		var a4 [4]byte
		r.Read(a4[:])
		_ = z.Add(dnswire.NewRR(host, 172800, dnswire.A{Addr: netip.AddrFrom4(a4)}))
	}
	return z
}

func TestZoneSerializationRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z := randomZone(r)
		z2, err := Parse(strings.NewReader(Text(z)), dnswire.Root)
		if err != nil {
			t.Logf("parse: %v", err)
			return false
		}
		return reflect.DeepEqual(z.Records(), z2.Records())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompressRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z := randomZone(r)
		blob, err := Compress(z)
		if err != nil {
			return false
		}
		z2, err := Decompress(blob, dnswire.Root)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(z.Records(), z2.Records())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
