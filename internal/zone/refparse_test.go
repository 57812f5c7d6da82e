package zone

// The reader Parse replaced, verbatim but for its names: one string per
// line, a ParseName per name, strconv and strings.ToUpper per field. It is
// the reference the differential tests hold Parse to: whatever text one
// accepts the other must accept with the same records, and whatever one
// refuses the other must refuse at the same line.

import (
	"bufio"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"rootless/internal/dnswire"
)

func refParse(r io.Reader, origin dnswire.Name) (*Zone, error) {
	z := New(origin)
	p := &refParser{
		zone:       z,
		origin:     origin,
		defaultTTL: 86400,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	var pending []refToken
	parenDepth := 0
	pendingStart := 0
	for sc.Scan() {
		lineNo++
		tokens, depth, err := refTokenize(sc.Text(), parenDepth)
		if err != nil {
			return nil, &ParseError{Line: lineNo, Msg: err.Error()}
		}
		if len(pending) == 0 {
			pendingStart = lineNo
		}
		pending = append(pending, tokens...)
		parenDepth = depth
		if parenDepth > 0 {
			continue
		}
		if len(pending) > 0 {
			if err := p.record(pending); err != nil {
				return nil, &ParseError{Line: pendingStart, Msg: err.Error()}
			}
		}
		pending = nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if parenDepth > 0 {
		return nil, &ParseError{Line: lineNo, Msg: "unclosed parenthesis"}
	}
	if len(pending) > 0 {
		if err := p.record(pending); err != nil {
			return nil, &ParseError{Line: pendingStart, Msg: err.Error()}
		}
	}
	return z, nil
}

type refToken struct {
	text      string
	quoted    bool
	leadingWS bool
}

func refTokenize(line string, depth int) ([]refToken, int, error) {
	var tokens []refToken
	i := 0
	startsWithWS := len(line) > 0 && (line[0] == ' ' || line[0] == '\t')
	first := true
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == ';':
			return tokens, depth, nil
		case c == '(':
			depth++
			i++
		case c == ')':
			depth--
			if depth < 0 {
				return nil, 0, fmt.Errorf("unbalanced ')'")
			}
			i++
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' && j+1 < len(line) {
					if v, ok := refDecimalEscape(line[j+1:]); ok {
						sb.WriteByte(v)
						j += 4
						continue
					}
					sb.WriteByte(line[j+1])
					j += 2
					continue
				}
				sb.WriteByte(line[j])
				j++
			}
			if j >= len(line) {
				return nil, 0, fmt.Errorf("unterminated quoted string")
			}
			tokens = append(tokens, refToken{text: sb.String(), quoted: true, leadingWS: first && startsWithWS})
			first = false
			i = j + 1
		default:
			j := i
			for j < len(line) && !strings.ContainsRune(" \t;()\"", rune(line[j])) {
				if line[j] == '\\' && j+1 < len(line) {
					j++
				}
				j++
			}
			tokens = append(tokens, refToken{text: line[i:j], leadingWS: first && startsWithWS})
			first = false
			i = j
		}
	}
	return tokens, depth, nil
}

func refDecimalEscape(s string) (byte, bool) {
	if len(s) < 3 {
		return 0, false
	}
	v := 0
	for _, c := range []byte(s[:3]) {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return byte(v), v <= 255
}

type refParser struct {
	zone       *Zone
	origin     dnswire.Name
	defaultTTL uint32
	lastOwner  dnswire.Name
	haveOwner  bool
}

func (p *refParser) name(s string) (dnswire.Name, error) {
	if s == "@" {
		return p.origin, nil
	}
	if refAbsolute(s) {
		return dnswire.ParseName(s)
	}
	if p.origin.IsRoot() {
		return dnswire.ParseName(s)
	}
	return dnswire.ParseName(s + "." + string(p.origin))
}

func refAbsolute(s string) bool {
	if !strings.HasSuffix(s, ".") {
		return false
	}
	escapes := len(s) - 1 - len(strings.TrimRight(s[:len(s)-1], `\`))
	return escapes%2 == 0
}

func (p *refParser) record(tokens []refToken) error {
	if len(tokens) == 0 {
		return nil
	}
	switch strings.ToUpper(tokens[0].text) {
	case "$ORIGIN":
		if len(tokens) != 2 {
			return fmt.Errorf("$ORIGIN needs one argument")
		}
		n, err := dnswire.ParseName(tokens[1].text)
		if err != nil {
			return err
		}
		p.origin = n
		return nil
	case "$TTL":
		if len(tokens) != 2 {
			return fmt.Errorf("$TTL needs one argument")
		}
		ttl, err := refParseTTL(tokens[1].text)
		if err != nil {
			return err
		}
		p.defaultTTL = ttl
		return nil
	case "$INCLUDE":
		return fmt.Errorf("$INCLUDE is not supported")
	}

	idx := 0
	owner := p.lastOwner
	if tokens[0].leadingWS {
		if !p.haveOwner {
			return fmt.Errorf("record with no prior owner")
		}
	} else {
		n, err := p.name(tokens[0].text)
		if err != nil {
			return fmt.Errorf("bad owner %q: %v", tokens[0].text, err)
		}
		owner = n
		idx = 1
	}

	ttl := p.defaultTTL
	class := dnswire.ClassINET
	sawTTL, sawClass := false, false
	for idx < len(tokens) {
		tok := tokens[idx].text
		if !sawTTL {
			if v, err := refParseTTL(tok); err == nil {
				ttl = v
				sawTTL = true
				idx++
				continue
			}
		}
		if !sawClass {
			if c, err := dnswire.ParseClass(strings.ToUpper(tok)); err == nil {
				class = c
				sawClass = true
				idx++
				continue
			}
		}
		break
	}
	if idx >= len(tokens) {
		return fmt.Errorf("missing record type")
	}
	typ, err := dnswire.ParseType(strings.ToUpper(tokens[idx].text))
	if err != nil {
		return fmt.Errorf("bad type %q", tokens[idx].text)
	}
	idx++
	data, err := p.rdata(typ, tokens[idx:])
	if err != nil {
		return fmt.Errorf("%s rdata: %v", typ, err)
	}
	p.lastOwner = owner
	p.haveOwner = true
	return p.zone.Add(dnswire.RR{Name: owner, Type: typ, Class: class, TTL: ttl, Data: data})
}

func refParseTTL(s string) (uint32, error) {
	if s == "" {
		return 0, fmt.Errorf("empty ttl")
	}
	if v, err := strconv.ParseUint(s, 10, 32); err == nil {
		return uint32(v), nil
	}
	total := uint64(0)
	num := uint64(0)
	haveNum := false
	for _, c := range strings.ToLower(s) {
		switch {
		case c >= '0' && c <= '9':
			num = num*10 + uint64(c-'0')
			haveNum = true
		case c == 's' || c == 'm' || c == 'h' || c == 'd' || c == 'w':
			if !haveNum {
				return 0, fmt.Errorf("bad ttl %q", s)
			}
			mult := map[rune]uint64{'s': 1, 'm': 60, 'h': 3600, 'd': 86400, 'w': 604800}[c]
			total += num * mult
			num, haveNum = 0, false
		default:
			return 0, fmt.Errorf("bad ttl %q", s)
		}
	}
	if haveNum {
		return 0, fmt.Errorf("bad ttl %q", s)
	}
	if total > 1<<32-1 {
		return 0, fmt.Errorf("ttl overflow")
	}
	return uint32(total), nil
}

func (p *refParser) rdata(typ dnswire.Type, toks []refToken) (dnswire.RData, error) {
	text := func(i int) string { return toks[i].text }
	need := func(n int) error {
		if len(toks) < n {
			return fmt.Errorf("want %d fields, have %d", n, len(toks))
		}
		return nil
	}
	switch typ {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(text(0))
		if err != nil || !addr.Is4() {
			return nil, fmt.Errorf("bad IPv4 %q", text(0))
		}
		return dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(text(0))
		if err != nil || !addr.Is6() || addr.Is4In6() {
			return nil, fmt.Errorf("bad IPv6 %q", text(0))
		}
		return dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(text(0))
		if err != nil {
			return nil, err
		}
		return dnswire.NS{Host: n}, nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(text(0))
		if err != nil {
			return nil, err
		}
		return dnswire.CNAME{Target: n}, nil
	case dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := p.name(text(0))
		if err != nil {
			return nil, err
		}
		return dnswire.PTR{Target: n}, nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		mname, err := p.name(text(0))
		if err != nil {
			return nil, err
		}
		rname, err := p.name(text(1))
		if err != nil {
			return nil, err
		}
		var nums [5]uint32
		for i := 0; i < 5; i++ {
			v, err := refParseTTL(text(2 + i))
			if err != nil {
				return nil, err
			}
			nums[i] = v
		}
		return dnswire.SOA{MName: mname, RName: rname, Serial: nums[0],
			Refresh: nums[1], Retry: nums[2], Expire: nums[3], Minimum: nums[4]}, nil
	case dnswire.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := strconv.ParseUint(text(0), 10, 16)
		if err != nil {
			return nil, err
		}
		host, err := p.name(text(1))
		if err != nil {
			return nil, err
		}
		return dnswire.MX{Preference: uint16(pref), Host: host}, nil
	case dnswire.TypeTXT:
		if err := need(1); err != nil {
			return nil, err
		}
		var ss []string
		for i := range toks {
			ss = append(ss, toks[i].text)
		}
		return dnswire.TXT{Strings: ss}, nil
	case dnswire.TypeSRV:
		if err := need(4); err != nil {
			return nil, err
		}
		var nums [3]uint16
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseUint(text(i), 10, 16)
			if err != nil {
				return nil, err
			}
			nums[i] = uint16(v)
		}
		target, err := p.name(text(3))
		if err != nil {
			return nil, err
		}
		return dnswire.SRV{Priority: nums[0], Weight: nums[1], Port: nums[2], Target: target}, nil
	case dnswire.TypeDS:
		if err := need(4); err != nil {
			return nil, err
		}
		tag, err := strconv.ParseUint(text(0), 10, 16)
		if err != nil {
			return nil, err
		}
		alg, err := strconv.ParseUint(text(1), 10, 8)
		if err != nil {
			return nil, err
		}
		dt, err := strconv.ParseUint(text(2), 10, 8)
		if err != nil {
			return nil, err
		}
		digest, err := refBlob(toks[3:], hex.DecodeString)
		if err != nil {
			return nil, err
		}
		return dnswire.DS{KeyTag: uint16(tag), Algorithm: uint8(alg),
			DigestType: uint8(dt), Digest: digest}, nil
	case dnswire.TypeDNSKEY:
		if err := need(4); err != nil {
			return nil, err
		}
		flags, err := strconv.ParseUint(text(0), 10, 16)
		if err != nil {
			return nil, err
		}
		proto, err := strconv.ParseUint(text(1), 10, 8)
		if err != nil {
			return nil, err
		}
		alg, err := strconv.ParseUint(text(2), 10, 8)
		if err != nil {
			return nil, err
		}
		key, err := refBlob(toks[3:], base64.StdEncoding.DecodeString)
		if err != nil {
			return nil, err
		}
		return dnswire.DNSKEY{Flags: uint16(flags), Protocol: uint8(proto),
			Algorithm: uint8(alg), PublicKey: key}, nil
	case dnswire.TypeRRSIG:
		if err := need(9); err != nil {
			return nil, err
		}
		covered, err := dnswire.ParseType(strings.ToUpper(text(0)))
		if err != nil {
			return nil, err
		}
		alg, err := strconv.ParseUint(text(1), 10, 8)
		if err != nil {
			return nil, err
		}
		labels, err := strconv.ParseUint(text(2), 10, 8)
		if err != nil {
			return nil, err
		}
		origTTL, err := strconv.ParseUint(text(3), 10, 32)
		if err != nil {
			return nil, err
		}
		exp, err := strconv.ParseUint(text(4), 10, 32)
		if err != nil {
			return nil, err
		}
		inc, err := strconv.ParseUint(text(5), 10, 32)
		if err != nil {
			return nil, err
		}
		tag, err := strconv.ParseUint(text(6), 10, 16)
		if err != nil {
			return nil, err
		}
		signer, err := p.name(text(7))
		if err != nil {
			return nil, err
		}
		sig, err := refBlob(toks[8:], base64.StdEncoding.DecodeString)
		if err != nil {
			return nil, err
		}
		return dnswire.RRSIG{TypeCovered: covered, Algorithm: uint8(alg),
			Labels: uint8(labels), OrigTTL: uint32(origTTL), Expiration: uint32(exp),
			Inception: uint32(inc), KeyTag: uint16(tag), SignerName: signer,
			Signature: sig}, nil
	case dnswire.TypeNSEC:
		if err := need(1); err != nil {
			return nil, err
		}
		next, err := p.name(text(0))
		if err != nil {
			return nil, err
		}
		var types []dnswire.Type
		for _, tok := range toks[1:] {
			t, err := dnswire.ParseType(strings.ToUpper(tok.text))
			if err != nil {
				return nil, err
			}
			types = append(types, t)
		}
		return dnswire.NSEC{NextName: next, Types: types}, nil
	case dnswire.TypeZONEMD:
		if err := need(4); err != nil {
			return nil, err
		}
		serial, err := strconv.ParseUint(text(0), 10, 32)
		if err != nil {
			return nil, err
		}
		scheme, err := strconv.ParseUint(text(1), 10, 8)
		if err != nil {
			return nil, err
		}
		hash, err := strconv.ParseUint(text(2), 10, 8)
		if err != nil {
			return nil, err
		}
		digest, err := refBlob(toks[3:], hex.DecodeString)
		if err != nil {
			return nil, err
		}
		return dnswire.ZONEMD{Serial: uint32(serial), Scheme: uint8(scheme),
			Hash: uint8(hash), Digest: digest}, nil
	case dnswire.TypeCAA:
		if err := need(3); err != nil {
			return nil, err
		}
		flags, err := strconv.ParseUint(text(0), 10, 8)
		if err != nil {
			return nil, err
		}
		if !refAlnum(text(1)) {
			return nil, fmt.Errorf("bad tag %q", text(1))
		}
		return dnswire.CAA{Flags: uint8(flags), Tag: text(1), Value: text(2)}, nil
	default:
		if len(toks) >= 2 && text(0) == "\\#" {
			n, err := strconv.Atoi(text(1))
			if err != nil {
				return nil, err
			}
			data, err := hex.DecodeString(strings.Join(refTexts(toks[2:]), ""))
			if err != nil {
				return nil, err
			}
			if len(data) != n {
				return nil, fmt.Errorf("\\# length %d != data length %d", n, len(data))
			}
			return dnswire.Unknown{RRType: typ, Data: data}, nil
		}
		return nil, fmt.Errorf("unsupported type %s", typ)
	}
}

func refTexts(toks []refToken) []string {
	out := make([]string, len(toks))
	for i := range toks {
		out[i] = toks[i].text
	}
	return out
}

func refBlob(toks []refToken, decode func(string) ([]byte, error)) ([]byte, error) {
	b, err := decode(strings.Join(refTexts(toks), ""))
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("empty")
	}
	return b, err
}

func refAlnum(s string) bool {
	for _, c := range []byte(s) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9') {
			return false
		}
	}
	return s != ""
}
