package zone

import (
	"bufio"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"strconv"
	"strings"

	"rootless/internal/dnswire"
)

// ParseError reports a master-file syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("zone: line %d: %s", e.Line, e.Msg)
}

// Parse reads an RFC 1035 §5 master file into a Zone rooted at origin.
// Supported syntax: $ORIGIN and $TTL directives, "@" owners, inherited
// owners, optional TTL and class in either order, parenthesized
// multi-line records, ';' comments, and quoted strings.
//
// The text is read once, as bytes, and a record costs about what the zone
// keeps of it: its tokens go into one buffer that every record reuses; a
// name is parsed and its string made once per spelling in the file,
// however many records carry it; a class or type is looked up once per
// spelling; and digests, keys, signatures and NSEC type lists are cut
// from shared chunks.
func Parse(r io.Reader, origin dnswire.Name) (*Zone, error) {
	p := &reader{
		zone:       New(origin),
		origin:     origin,
		defaultTTL: 86400,
		names:      make(map[string]dnswire.Name),
		words:      make(map[string]word),
	}
	sc := bufio.NewScanner(r)
	// The buffer grows to the longest line, 16 MB at most. It starts small
	// because most of what is parsed is a delta's few kilobytes of text,
	// once per refresh.
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo, start, depth := 0, 0, 0
	for sc.Scan() {
		lineNo++
		if len(p.toks) == 0 {
			start = lineNo // a record's errors are reported at its first line
		}
		var err error
		if depth, err = p.tokenize(sc.Bytes(), depth); err != nil {
			return nil, &ParseError{Line: lineNo, Msg: err.Error()}
		}
		if depth > 0 || len(p.toks) == 0 {
			continue
		}
		if err := p.record(); err != nil {
			return nil, &ParseError{Line: start, Msg: err.Error()}
		}
		p.buf, p.toks = p.buf[:0], p.toks[:0]
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if depth > 0 {
		return nil, &ParseError{Line: lineNo, Msg: "unclosed parenthesis"}
	}
	return p.zone, nil
}

// reader is one Parse call's state.
type reader struct {
	zone       *Zone
	origin     dnswire.Name
	defaultTTL uint32
	lastOwner  dnswire.Name
	haveOwner  bool

	// The record being read: its tokens, and their text back to back in
	// buf, so that a run of tokens is one slice of it and a key or
	// signature split across tokens, or lines, is decoded where it lies.
	buf  []byte
	toks []token

	// names maps every spelling of a name read so far to the name, and
	// words every spelling read where a class or a type may stand to what
	// it means there. names is emptied when $ORIGIN moves, which changes
	// what a relative spelling means.
	names map[string]dnswire.Name
	words map[string]word

	// The chunks that blobs and NSEC type lists are cut from.
	octets chunks[byte]
	types  chunks[dnswire.Type]
}

// token is one master-file token, its text at buf[start:end]: a quoted
// string with its escapes decoded, anything else as written, backslashes
// and all, for the name parser to decode.
type token struct {
	start, end int
	// leadingWS marks the first token of a line that started with
	// whitespace: the record inherits the previous owner.
	leadingWS bool
}

// word is what one spelling means as a class and as a type.
type word struct {
	class           dnswire.Class
	typ             dnswire.Type
	isClass, isType bool
}

// The largest chunk sizes. The signed root's digests, keys and signatures
// come to about 250 KB.
const (
	octetChunk = 16 << 10
	typeChunk  = 1 << 10
)

// tokenize appends one line's tokens to the record, tracking parenthesis
// depth across lines and stripping comments.
func (p *reader) tokenize(line []byte, depth int) (int, error) {
	startsWithWS := len(line) > 0 && (line[0] == ' ' || line[0] == '\t')
	first := true
	for i := 0; i < len(line); {
		switch line[i] {
		case ' ', '\t':
			i++
		case ';':
			return depth, nil
		case '(':
			depth++
			i++
		case ')':
			if depth--; depth < 0 {
				return 0, errors.New("unbalanced ')'")
			}
			i++
		case '"':
			start := len(p.buf)
			j := i + 1
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' && j+1 < len(line) {
					if v, ok := decimalEscape(line[j+1:]); ok {
						p.buf = append(p.buf, v)
						j += 4
					} else {
						p.buf = append(p.buf, line[j+1])
						j += 2
					}
					continue
				}
				p.buf = append(p.buf, line[j])
				j++
			}
			if j >= len(line) {
				return 0, errors.New("unterminated quoted string")
			}
			p.toks = append(p.toks, token{start, len(p.buf), first && startsWithWS})
			first = false
			i = j + 1
		default:
			// A backslash quotes the character after it, delimiters too;
			// the escape stays in the token for the name parser to decode.
			j := i
			for j < len(line) && !delimiter(line[j]) {
				if line[j] == '\\' && j+1 < len(line) {
					j++
				}
				j++
			}
			start := len(p.buf)
			p.buf = append(p.buf, line[i:j]...)
			p.toks = append(p.toks, token{start, len(p.buf), first && startsWithWS})
			first = false
			i = j
		}
	}
	return depth, nil
}

// delimiter reports a byte that ends an unquoted token.
func delimiter(c byte) bool {
	return c == ' ' || c == '\t' || c == ';' || c == '(' || c == ')' || c == '"'
}

// decimalEscape reads the DDD of a \DDD escape at the front of s.
func decimalEscape(s []byte) (byte, bool) {
	if len(s) < 3 {
		return 0, false
	}
	v := 0
	for _, c := range s[:3] {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return byte(v), v <= 255
}

// text returns the text of the record's token i.
func (p *reader) text(i int) []byte { return p.buf[p.toks[i].start:p.toks[i].end] }

// joined returns the text of the record's tokens from i on, run together.
func (p *reader) joined(i int) []byte { return p.buf[p.toks[i].start:p.toks[len(p.toks)-1].end] }

func (p *reader) record() error {
	// Directives. Only a token starting with '$' can upper-case to one.
	if tok := p.text(0); len(tok) > 0 && tok[0] == '$' {
		switch strings.ToUpper(string(tok)) {
		case "$ORIGIN":
			if len(p.toks) != 2 {
				return errors.New("$ORIGIN needs one argument")
			}
			n, err := dnswire.ParseName(string(p.text(1)))
			if err != nil {
				return err
			}
			p.origin = n
			clear(p.names)
			return nil
		case "$TTL":
			if len(p.toks) != 2 {
				return errors.New("$TTL needs one argument")
			}
			ttl, err := parseTTL(p.text(1))
			if err != nil {
				return err
			}
			p.defaultTTL = ttl
			return nil
		case "$INCLUDE":
			return errors.New("$INCLUDE is not supported")
		}
	}

	// Owner: explicit unless the line started with whitespace.
	idx := 0
	owner := p.lastOwner
	if p.toks[0].leadingWS {
		if !p.haveOwner {
			return errors.New("record with no prior owner")
		}
	} else {
		n, err := p.name(p.text(0))
		if err != nil {
			return fmt.Errorf("bad owner %q: %v", p.text(0), err)
		}
		owner, idx = n, 1
	}

	// Optional TTL and class, in either order.
	ttl, class := p.defaultTTL, dnswire.ClassINET
	sawTTL, sawClass := false, false
	for ; idx < len(p.toks); idx++ {
		tok := p.text(idx)
		if !sawTTL {
			if v, ok := ttlValue(tok); ok {
				ttl, sawTTL = v, true
				continue
			}
		}
		if !sawClass {
			if w := p.word(tok); w.isClass {
				class, sawClass = w.class, true
				continue
			}
		}
		break
	}
	if idx >= len(p.toks) {
		return errors.New("missing record type")
	}
	w := p.word(p.text(idx))
	if !w.isType {
		return fmt.Errorf("bad type %q", p.text(idx))
	}
	data, err := p.rdata(w.typ, idx+1)
	if err != nil {
		return fmt.Errorf("%s rdata: %v", w.typ, err)
	}
	p.lastOwner, p.haveOwner = owner, true
	return p.zone.Add(dnswire.RR{Name: owner, Type: w.typ, Class: class, TTL: ttl, Data: data})
}

// word returns what tok means as a class and as a type: ParseClass and
// ParseType of its upper case, as master files have always been read
// here, run once per spelling.
func (p *reader) word(tok []byte) word {
	if w, ok := p.words[string(tok)]; ok {
		return w
	}
	up := strings.ToUpper(string(tok))
	var w word
	if c, err := dnswire.ParseClass(up); err == nil {
		w.class, w.isClass = c, true
	}
	if t, err := dnswire.ParseType(up); err == nil {
		w.typ, w.isType = t, true
	}
	p.words[string(tok)] = w
	return w
}

// typeOf reads a field that must be a type, with ParseType's error when
// it is not.
func (p *reader) typeOf(tok []byte) (dnswire.Type, error) {
	if w := p.word(tok); w.isType {
		return w.typ, nil
	}
	return dnswire.ParseType(strings.ToUpper(string(tok)))
}

// name resolves a name token against $ORIGIN, once per spelling. A
// spelling that is already a name in canonical form is its own name and
// is not parsed; any other goes through ParseName.
func (p *reader) name(tok []byte) (dnswire.Name, error) {
	if n, ok := p.names[string(tok)]; ok {
		return n, nil
	}
	if canonical(tok) {
		n := dnswire.Name(tok)
		p.names[string(n)] = n
		return n, nil
	}
	s := string(tok)
	n, err := p.resolve(s)
	if err == nil {
		p.names[s] = n
	}
	return n, err
}

// resolve is name without the table.
func (p *reader) resolve(s string) (dnswire.Name, error) {
	if s == "@" {
		return p.origin, nil
	}
	if absolute(s) || p.origin.IsRoot() {
		return dnswire.ParseName(s)
	}
	return dnswire.ParseName(s + "." + string(p.origin))
}

// absolute reports a name that ends in a dot no backslash escapes.
func absolute(s string) bool {
	if !strings.HasSuffix(s, ".") {
		return false
	}
	escapes := len(s) - 1 - len(strings.TrimRight(s[:len(s)-1], `\`))
	return escapes%2 == 0
}

// canonical reports a token ParseName would return unchanged: the root,
// or an absolute name of lower-case letters, digits, '-', '_' and '*'
// with labels of 1 to 63 octets and at most 255 octets on the wire.
func canonical(tok []byte) bool {
	if len(tok) == 1 {
		return tok[0] == '.'
	}
	if len(tok) < 2 || len(tok) > 254 || tok[len(tok)-1] != '.' {
		return false
	}
	label := 0
	for _, c := range tok {
		switch {
		case c == '.':
			if label == 0 {
				return false
			}
			label = 0
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c == '-', c == '_', c == '*':
			if label++; label > 63 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseTTL accepts plain seconds or BIND-style unit suffixes (1h30m, 2d, 1w).
func parseTTL(s []byte) (uint32, error) {
	if v, ok := ttlValue(s); ok {
		return v, nil
	}
	return 0, fmt.Errorf("bad ttl %q", s)
}

// ttlUnits is the seconds each TTL unit letter stands for.
var ttlUnits = [256]uint64{'s': 1, 'm': 60, 'h': 3600, 'd': 86400, 'w': 604800}

// ttlValue is parseTTL without an error to build, since every record
// tries its class and type tokens as TTLs first. Plain seconds must fit
// in 32 bits, and so must the sum of the units (taken, as always here,
// in 64-bit arithmetic that may wrap); unit letters are case-insensitive.
func ttlValue(s []byte) (uint32, bool) {
	var total, num uint64
	haveNum, units, wide := false, false, false
	for _, c := range s {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		switch {
		case '0' <= c && c <= '9':
			num = num*10 + uint64(c-'0')
			wide = wide || num > math.MaxUint32
			haveNum = true
		case ttlUnits[c] != 0:
			if !haveNum {
				return 0, false
			}
			total += num * ttlUnits[c]
			num, haveNum, units = 0, false, true
		default:
			return 0, false
		}
	}
	if !units {
		return uint32(num), haveNum && !wide
	}
	return uint32(total), !haveNum && total <= math.MaxUint32
}

// number is strconv.ParseUint(tok, 10, bits), converting tok to a string
// only when it is not a short run of digits that fits.
func number(tok []byte, bits int) (uint64, error) {
	if len(tok) > 0 && len(tok) < 20 {
		var v uint64
		digits := true
		for _, c := range tok {
			if c < '0' || c > '9' {
				digits = false
				break
			}
			v = v*10 + uint64(c-'0')
		}
		if digits && v>>bits == 0 {
			return v, nil
		}
	}
	return strconv.ParseUint(string(tok), 10, bits)
}

// parseIPv4 reads a dotted quad, accepting exactly what netip.ParseAddr
// reads as an IPv4 address: four fields of one to three digits, none with
// a leading zero or over 255.
func parseIPv4(tok []byte) (netip.Addr, bool) {
	var ip [4]byte
	field, digits, v := 0, 0, 0
	for _, c := range tok {
		switch {
		case '0' <= c && c <= '9' && digits < 3 && !(digits == 1 && v == 0):
			v = v*10 + int(c-'0')
			digits++
		case c == '.' && digits > 0 && field < 3 && v <= 255:
			ip[field] = byte(v)
			field, digits, v = field+1, 0, 0
		default:
			return netip.Addr{}, false
		}
	}
	if field != 3 || digits == 0 || v > 255 {
		return netip.Addr{}, false
	}
	ip[3] = byte(v)
	return netip.AddrFrom4(ip), true
}

// decoder is the part of an encoding blob uses: base64.StdEncoding, or
// hexDigits.
type decoder interface {
	DecodedLen(n int) int
	Decode(dst, src []byte) (int, error)
}

// hexDigits is package hex as a decoder.
type hexDigits struct{}

func (hexDigits) DecodedLen(n int) int                { return hex.DecodedLen(n) }
func (hexDigits) Decode(dst, src []byte) (int, error) { return hex.Decode(dst, src) }

// blob decodes the text of the record's tokens from i on, run together,
// as one digest, key or signature; an empty one has no presentation form
// and is refused.
func (p *reader) blob(i int, enc decoder) ([]byte, error) {
	src := p.joined(i)
	dst := p.octets.carve(enc.DecodedLen(len(src)), octetChunk)
	n, err := enc.Decode(dst, src)
	if err == nil && n == 0 {
		err = errors.New("empty")
	}
	if err != nil {
		return nil, err
	}
	return dst[:n:n], nil
}

// chunks hands out slices cut from shared chunks. A new chunk holds as
// many elements as the parse has cut so far, but at least the slice asked
// for and at most limit, so a parse's chunks come to about twice what it
// cuts from them at most. A small parse, such as a delta link's additions
// or a trust anchor, thus keeps no large chunk alive through the one
// record that outlives the rest.
type chunks[T any] struct {
	free []T
	cut  int
}

// carve cuts n elements off the front of the current chunk, first starting
// a new one when fewer are left. What it returns has no spare capacity, so
// an append to it copies rather than writing over its neighbour.
func (c *chunks[T]) carve(n, limit int) []T {
	if len(c.free) < n {
		c.free = make([]T, max(n, min(c.cut, limit)))
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	c.cut += n
	return s
}

// rdata reads the record data of type typ from the record's tokens at
// and after at.
func (p *reader) rdata(typ dnswire.Type, at int) (dnswire.RData, error) {
	n := len(p.toks) - at
	text := func(i int) []byte { return p.text(at + i) }
	need := func(k int) error {
		if n < k {
			return fmt.Errorf("want %d fields, have %d", k, n)
		}
		return nil
	}
	// read reads the fields from `from` on into nums, as numbers of the
	// given widths.
	var nums [6]uint64
	read := func(from int, bits ...int) error {
		for i, b := range bits {
			v, err := number(text(from+i), b)
			if err != nil {
				return err
			}
			nums[i] = v
		}
		return nil
	}
	switch typ {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, ok := parseIPv4(text(0))
		if !ok {
			return nil, fmt.Errorf("bad IPv4 %q", text(0))
		}
		return dnswire.A{Addr: addr}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		addr, err := netip.ParseAddr(string(text(0)))
		if err != nil || !addr.Is6() || addr.Is4In6() {
			return nil, fmt.Errorf("bad IPv6 %q", text(0))
		}
		return dnswire.AAAA{Addr: addr}, nil
	case dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		name, err := p.name(text(0))
		if err != nil {
			return nil, err
		}
		switch typ {
		case dnswire.TypeNS:
			return dnswire.NS{Host: name}, nil
		case dnswire.TypeCNAME:
			return dnswire.CNAME{Target: name}, nil
		}
		return dnswire.PTR{Target: name}, nil
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
		var v [5]uint32
		for i := range v {
			if v[i], err = parseTTL(text(2 + i)); err != nil {
				return nil, err
			}
		}
		return dnswire.SOA{MName: mname, RName: rname, Serial: v[0],
			Refresh: v[1], Retry: v[2], Expire: v[3], Minimum: v[4]}, nil
	case dnswire.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		if err := read(0, 16); err != nil {
			return nil, err
		}
		host, err := p.name(text(1))
		if err != nil {
			return nil, err
		}
		return dnswire.MX{Preference: uint16(nums[0]), Host: host}, nil
	case dnswire.TypeTXT:
		if err := need(1); err != nil {
			return nil, err
		}
		ss := make([]string, n)
		for i := range ss {
			ss[i] = string(text(i))
		}
		return dnswire.TXT{Strings: ss}, nil
	case dnswire.TypeSRV:
		if err := need(4); err != nil {
			return nil, err
		}
		if err := read(0, 16, 16, 16); err != nil {
			return nil, err
		}
		target, err := p.name(text(3))
		if err != nil {
			return nil, err
		}
		return dnswire.SRV{Priority: uint16(nums[0]), Weight: uint16(nums[1]),
			Port: uint16(nums[2]), Target: target}, nil
	case dnswire.TypeDS:
		if err := need(4); err != nil {
			return nil, err
		}
		if err := read(0, 16, 8, 8); err != nil {
			return nil, err
		}
		digest, err := p.blob(at+3, hexDigits{})
		if err != nil {
			return nil, err
		}
		return dnswire.DS{KeyTag: uint16(nums[0]), Algorithm: uint8(nums[1]),
			DigestType: uint8(nums[2]), Digest: digest}, nil
	case dnswire.TypeDNSKEY:
		if err := need(4); err != nil {
			return nil, err
		}
		if err := read(0, 16, 8, 8); err != nil {
			return nil, err
		}
		key, err := p.blob(at+3, base64.StdEncoding)
		if err != nil {
			return nil, err
		}
		return dnswire.DNSKEY{Flags: uint16(nums[0]), Protocol: uint8(nums[1]),
			Algorithm: uint8(nums[2]), PublicKey: key}, nil
	case dnswire.TypeRRSIG:
		if err := need(9); err != nil {
			return nil, err
		}
		covered, err := p.typeOf(text(0))
		if err != nil {
			return nil, err
		}
		if err := read(1, 8, 8, 32, 32, 32, 16); err != nil {
			return nil, err
		}
		signer, err := p.name(text(7))
		if err != nil {
			return nil, err
		}
		sig, err := p.blob(at+8, base64.StdEncoding)
		if err != nil {
			return nil, err
		}
		return dnswire.RRSIG{TypeCovered: covered, Algorithm: uint8(nums[0]),
			Labels: uint8(nums[1]), OrigTTL: uint32(nums[2]), Expiration: uint32(nums[3]),
			Inception: uint32(nums[4]), KeyTag: uint16(nums[5]), SignerName: signer,
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
		if n > 1 {
			types = p.types.carve(n-1, typeChunk)
			for i := range types {
				if types[i], err = p.typeOf(text(1 + i)); err != nil {
					return nil, err
				}
			}
		}
		return dnswire.NSEC{NextName: next, Types: types}, nil
	case dnswire.TypeZONEMD:
		if err := need(4); err != nil {
			return nil, err
		}
		if err := read(0, 32, 8, 8); err != nil {
			return nil, err
		}
		digest, err := p.blob(at+3, hexDigits{})
		if err != nil {
			return nil, err
		}
		return dnswire.ZONEMD{Serial: uint32(nums[0]), Scheme: uint8(nums[1]),
			Hash: uint8(nums[2]), Digest: digest}, nil
	case dnswire.TypeCAA:
		if err := need(3); err != nil {
			return nil, err
		}
		if err := read(0, 8); err != nil {
			return nil, err
		}
		if !alnum(text(1)) {
			return nil, fmt.Errorf("bad tag %q", text(1)) // RFC 8659 §4.1
		}
		return dnswire.CAA{Flags: uint8(nums[0]), Tag: string(text(1)), Value: string(text(2))}, nil
	default:
		// RFC 3597 generic syntax: \# length hexdata
		if n >= 2 && string(text(0)) == `\#` {
			length, err := strconv.Atoi(string(text(1)))
			if err != nil {
				return nil, err
			}
			var hexdata []byte
			if n > 2 {
				hexdata = p.joined(at + 2)
			}
			data, err := hex.DecodeString(string(hexdata))
			if err != nil {
				return nil, err
			}
			if len(data) != length {
				return nil, fmt.Errorf("\\# length %d != data length %d", length, len(data))
			}
			return dnswire.Unknown{RRType: typ, Data: data}, nil
		}
		return nil, fmt.Errorf("unsupported type %s", typ)
	}
}

// alnum reports a non-empty run of ASCII letters and digits.
func alnum(s []byte) bool {
	for _, c := range s {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9') {
			return false
		}
	}
	return len(s) > 0
}

// Write serializes the zone in master-file form: a $ORIGIN and $TTL header
// followed by records in canonical order.
func Write(w io.Writer, z *Zone) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "$ORIGIN %s\n", z.Origin); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "$TTL 86400\n"); err != nil {
		return err
	}
	for _, rr := range z.Records() {
		if _, err := fmt.Fprintln(bw, rr.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Text returns the zone's master-file serialization as a string.
func Text(z *Zone) string {
	var sb strings.Builder
	_ = Write(&sb, z)
	return sb.String()
}
