package dnswire

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
)

// Name is a fully-qualified domain name in canonical presentation form:
// lowercase, absolute (trailing dot), with special characters escaped as
// "\." or "\DDD". The root is the single dot ".".
//
// The zero value is not a valid name; use Root for the root.
type Name string

// Root is the root of the DNS namespace.
const Root Name = "."

// Errors produced by name handling.
var (
	ErrNameTooLong   = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong  = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel    = errors.New("dnswire: empty label")
	ErrBadEscape     = errors.New("dnswire: bad escape sequence")
	ErrBadPointer    = errors.New("dnswire: bad compression pointer")
	ErrNameTruncated = errors.New("dnswire: truncated name")
)

// lowerByte lowercases ASCII, leaving other bytes untouched (RFC 4343).
func lowerByte(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// How presentation form writes a label octet, and so whether a name that
// holds it raw can be plain: as itself, lowercased; after a backslash,
// for the characters a master file reads as syntax — the label
// separator, an escape, a comment, a quote, a parenthesis (RFC 1035
// §5.1); or as \DDD, outside printable ASCII. One table lookup, because
// plain and the name decoder test every octet of every name.
const (
	octetUpper   = 1 + iota // written lowercased
	octetSpecial            // written after a backslash
	octetDecimal            // written as \DDD
)

var octetClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c < '!' || c > '~':
			t[c] = octetDecimal
		case 'A' <= c && c <= 'Z':
			t[c] = octetUpper
		}
	}
	for _, c := range []byte(`.\;"()`) {
		t[c] = octetSpecial
	}
	return t
}()

// parseLabels splits a presentation-form name into raw (unescaped,
// lowercased) labels. The input may be relative or absolute; an empty
// string or "." yields no labels.
func parseLabels(s string) ([][]byte, error) {
	if s == "" || s == "." {
		return nil, nil
	}
	var labels [][]byte
	var cur []byte
	i := 0
	for i < len(s) {
		c := s[i]
		switch c {
		case '.':
			if len(cur) == 0 {
				return nil, ErrEmptyLabel
			}
			if len(cur) > 63 {
				return nil, ErrLabelTooLong
			}
			labels = append(labels, cur)
			cur = nil
			i++
		case '\\':
			if i+1 >= len(s) {
				return nil, ErrBadEscape
			}
			n := s[i+1]
			if n >= '0' && n <= '9' {
				if i+3 >= len(s) || s[i+2] < '0' || s[i+2] > '9' || s[i+3] < '0' || s[i+3] > '9' {
					return nil, ErrBadEscape
				}
				v := int(n-'0')*100 + int(s[i+2]-'0')*10 + int(s[i+3]-'0')
				if v > 255 {
					return nil, ErrBadEscape
				}
				cur = append(cur, byte(v))
				i += 4
			} else {
				cur = append(cur, lowerByte(n))
				i += 2
			}
		default:
			cur = append(cur, lowerByte(c))
			i++
		}
	}
	if len(cur) > 0 {
		if len(cur) > 63 {
			return nil, ErrLabelTooLong
		}
		labels = append(labels, cur)
	}
	total := 1 // terminating zero octet
	for _, l := range labels {
		total += len(l) + 1
	}
	if total > 255 {
		return nil, ErrNameTooLong
	}
	return labels, nil
}

// nameFromLabels builds a canonical Name from raw labels.
func nameFromLabels(labels [][]byte) Name {
	if len(labels) == 0 {
		return Root
	}
	var stack [1024]byte // 255 wire octets escape to at most ~1020
	buf := stack[:0]
	for _, l := range labels {
		buf = append(appendPresentationLabel(buf, l), '.')
	}
	return Name(buf)
}

// ParseName normalizes a presentation-form name (relative names are made
// absolute) into canonical form, validating length limits.
func ParseName(s string) (Name, error) {
	labels, err := parseLabels(s)
	if err != nil {
		return "", err
	}
	return nameFromLabels(labels), nil
}

// MustParseName is ParseName that panics on error, for constants and tests.
func MustParseName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// Clone returns a copy of n that shares no memory with it: how a name
// that is a view (Query.Name) is kept.
func (n Name) Clone() Name { return Name(strings.Clone(string(n))) }

// IsRoot reports whether n is the root name.
func (n Name) IsRoot() bool { return n == Root }

// Labels returns the name's raw labels, outermost first. The root has none.
func (n Name) Labels() [][]byte {
	labels, err := parseLabels(string(n))
	if err != nil {
		return nil
	}
	return labels
}

// plain reports whether s is an absolute name in canonical form with no
// escapes: every octet one presentation form writes as itself, every
// label 1..63 octets, at most 255 wire octets. The labels of a
// plain name are exactly its dot-separated substrings, so the accessors
// below work on the string itself; anything else takes the label-parsing
// route. The root is plain.
func plain(s string) bool {
	if s == "." {
		return true
	}
	if len(s) == 0 || len(s) > 254 || s[len(s)-1] != '.' {
		return false
	}
	label := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.':
			if label == 0 {
				return false
			}
			label = 0
		case octetClass[c] != 0:
			return false
		default:
			if label++; label > 63 {
				return false
			}
		}
	}
	return true
}

// LabelCount returns the number of labels in n (0 for the root).
func (n Name) LabelCount() int {
	if s := string(n); plain(s) {
		if s == "." {
			return 0
		}
		return strings.Count(s, ".")
	}
	return len(n.Labels())
}

// Parent returns the name with the leftmost label removed; the root's
// parent is the root.
func (n Name) Parent() Name {
	if s := string(n); plain(s) {
		if i := strings.IndexByte(s, '.'); i+1 < len(s) {
			return Name(s[i+1:])
		}
		return Root
	}
	labels := n.Labels()
	if len(labels) == 0 {
		return Root
	}
	return nameFromLabels(labels[1:])
}

// TLD returns the top-level domain of n as an absolute Name ("com." for
// "www.example.com."), or the root if n is the root.
func (n Name) TLD() Name {
	if s := string(n); plain(s) {
		return Name(s[strings.LastIndexByte(s[:len(s)-1], '.')+1:])
	}
	labels := n.Labels()
	if len(labels) == 0 {
		return Root
	}
	return nameFromLabels(labels[len(labels)-1:])
}

// IsSubdomainOf reports whether n is equal to or below parent.
func (n Name) IsSubdomainOf(parent Name) bool {
	if parent.IsRoot() || n == parent {
		return true
	}
	cut := len(n) - len(parent) - 1
	if cut < 0 || n[cut] != '.' || n[cut+1:] != parent {
		return false
	}
	// The dot at cut separates labels only if it is not escaped: an odd
	// run of backslashes before it makes it part of the label.
	esc := 0
	for cut-esc > 0 && n[cut-esc-1] == '\\' {
		esc++
	}
	return esc%2 == 0
}

// CommonAncestor returns the longest name that n and m are both at or
// below: the root for names with no label in common.
func (n Name) CommonAncestor(m Name) Name {
	for !m.IsSubdomainOf(n) {
		n = n.Parent()
	}
	return n
}

// Child returns the label-prefixed child of n: Child("www", "example.com.")
// is "www.example.com.".
func (n Name) Child(label string) (Name, error) {
	if n.IsRoot() {
		return ParseName(label)
	}
	return ParseName(label + "." + string(n))
}

// WireLen returns the uncompressed wire length of the name in octets.
func (n Name) WireLen() int {
	if s := string(n); plain(s) {
		if s == "." {
			return 1
		}
		return len(s) + 1
	}
	total := 1
	for _, l := range n.Labels() {
		total += len(l) + 1
	}
	return total
}

// Compare orders names in DNSSEC canonical order (RFC 4034 §6.1): by
// reversed label sequence, labels compared as case-folded octet strings.
// Escape-free names are compared in place, label by label from the
// right, without allocating; a name carrying an escape is parsed into
// raw labels first, because "\." and "\DDD" stand for one octet.
func (n Name) Compare(m Name) int {
	a, b := string(n), string(m)
	if strings.IndexByte(a, '\\') >= 0 || strings.IndexByte(b, '\\') >= 0 {
		return compareParsed(n, m)
	}
	a, b = strings.TrimSuffix(a, "."), strings.TrimSuffix(b, ".")
	for len(a) > 0 && len(b) > 0 {
		i, j := strings.LastIndexByte(a, '.'), strings.LastIndexByte(b, '.')
		if c := compareLabels(a[i+1:], b[j+1:]); c != 0 {
			return c
		}
		a, b = a[:max(i, 0)], b[:max(j, 0)]
	}
	// One name ran out of labels: the shorter sorts first.
	return cmp.Compare(len(a), len(b))
}

// AppendSortKey appends n's canonical sort key to dst: its labels right
// to left, each followed by a zero octet (which sorts below every octet
// of a plain label, so an ancestor precedes its descendants and "com"
// precedes "coma"). For plain names the byte order of keys is canonical
// order, and a name's key starts with the keys of all its ancestors; for
// any other name it returns dst unchanged and false. A key is as long as
// its name, less the root's dot.
func AppendSortKey(dst []byte, n Name) ([]byte, bool) {
	if !plain(string(n)) {
		return dst, false
	}
	return appendKey(dst, n), true
}

func appendKey(dst []byte, n Name) []byte {
	for s := string(n[:len(n)-1]); s != ""; {
		dot := strings.LastIndexByte(s, '.')
		dst = append(append(dst, s[dot+1:]...), 0)
		s = s[:max(dot, 0)]
	}
	return dst
}

// SortNames sorts names into canonical order, as slices.SortFunc with
// Name.Compare does, several times faster on a zone's worth of names:
// plain names are sorted by their keys (AppendSortKey), which live for
// this call only.
func SortNames(names []Name) { sortNames(names, false) }

// SortKeys is SortNames keeping the keys: when every name is plain it
// returns them back to back in sorted order, names[i]'s at
// keys[offs[i]:offs[i+1]]. Both are nil when some name is not plain.
func SortKeys(names []Name) (keys []byte, offs []uint32) { return sortNames(names, true) }

func sortNames(names []Name, keep bool) ([]byte, []uint32) {
	size := 0
	for _, n := range names {
		if !plain(string(n)) {
			slices.SortFunc(names, Name.Compare)
			return nil, nil
		}
		size += len(n)
	}
	// The sort moves pointer-free spans of buf, not names: no write
	// barriers.
	type span struct {
		head             uint64 // the key's first eight octets, big-endian
		start, end, name uint32
	}
	buf := make([]byte, 0, size)
	spans := make([]span, len(names))
	for i, n := range names {
		start := len(buf)
		buf = appendKey(buf, n)
		var head [8]byte
		copy(head[:], buf[start:])
		spans[i] = span{binary.BigEndian.Uint64(head[:]), uint32(start), uint32(len(buf)), uint32(i)}
	}
	slices.SortFunc(spans, func(a, b span) int {
		if a.head != b.head {
			return cmp.Compare(a.head, b.head)
		}
		return bytes.Compare(buf[a.start:a.end], buf[b.start:b.end])
	})
	unsorted := slices.Clone(names)
	var keys []byte
	var offs []uint32
	if keep {
		keys, offs = make([]byte, 0, len(buf)), make([]uint32, 1, len(names)+1)
	}
	for i, sp := range spans {
		names[i] = unsorted[sp.name]
		if keep {
			keys = append(keys, buf[sp.start:sp.end]...)
			offs = append(offs, uint32(len(keys)))
		}
	}
	return keys, offs
}

// compareParsed is Compare over parsed raw labels.
func compareParsed(n, m Name) int {
	a, b := n.Labels(), m.Labels()
	for i := 1; i <= len(a) && i <= len(b); i++ {
		if c := compareLabels(string(a[len(a)-i]), string(b[len(b)-i])); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

func compareLabels(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if ca, cb := lowerByte(a[i]), lowerByte(b[i]); ca != cb {
			return cmp.Compare(ca, cb)
		}
	}
	return cmp.Compare(len(a), len(b))
}

// compressor tracks label-suffix offsets while packing a message, so
// later occurrences of a suffix can be encoded as 14-bit pointers. The
// table keeps no name: it holds the hash of each suffix's canonical
// presentation form and where the suffix was written, and a slot answers
// a lookup only when the bytes written there read as the suffix looked
// up. So packing keeps nothing of the names it is given, and a name that
// is a view of a caller's buffer (Query.Name) stays where it is.
//
// The table is open-addressed, and a slot is live only while it carries
// the compressor's generation: release empties it by bumping that, not
// by clearing it. Compressors are pooled, so a steady-state AppendPack
// allocates nothing.
type compressor struct {
	slots []suffixSlot // a power of two long, at most half live
	gen   uint32
	live  int
	// log is set only on the compressor NewImage packs with: appendName
	// then records a copy of every name it looks up and where it wrote a
	// pointer.
	log      bool
	names    []Name
	pointers []int
}

// suffixSlot is one written suffix: its hash and its offset in the
// message, live in generation gen.
type suffixSlot struct {
	hash uint64
	gen  uint32
	off  uint16
}

// suffixSeed keys the suffix hashes of every compressor.
var suffixSeed = maphash.MakeSeed()

var compressorPool = sync.Pool{New: func() any { return makeCompressor() }}

func makeCompressor() *compressor {
	return &compressor{slots: make([]suffixSlot, 64), gen: 1}
}

func newCompressor() *compressor {
	return compressorPool.Get().(*compressor)
}

// release empties the suffix table, whose offsets mean nothing in the
// next message, and returns the compressor to the pool.
func (c *compressor) release() {
	c.live = 0
	if c.gen++; c.gen == 0 { // every stamp used: clear the slots for real
		clear(c.slots)
		c.gen = 1
	}
	compressorPool.Put(c)
}

// probe returns the first slot from i on (wrapping) that is free or
// holds a suffix hashing to h. Start at int(h) for h's home slot, and
// after a slot whose bytes did not match at that slot plus one.
func (c *compressor) probe(h uint64, i int) int {
	mask := len(c.slots) - 1
	for i &= mask; c.taken(i) && c.slots[i].hash != h; i = (i + 1) & mask {
	}
	return i
}

func (c *compressor) taken(i int) bool { return c.slots[i].gen == c.gen }

// add records that the suffix hashing to h is written at off, in free
// slot i, unless a pointer could not reach off.
func (c *compressor) add(i int, h uint64, off int) {
	if off >= 0x4000 {
		return
	}
	c.slots[i] = suffixSlot{hash: h, gen: c.gen, off: uint16(off)}
	if c.live++; 2*c.live <= len(c.slots) {
		return
	}
	old := c.slots
	c.slots = make([]suffixSlot, 2*len(old))
	mask := len(c.slots) - 1
	for _, s := range old {
		if s.gen == c.gen {
			j := int(s.hash) & mask
			for c.taken(j) {
				j = (j + 1) & mask
			}
			c.slots[j] = s
		}
	}
}

// appendName appends the wire encoding of n to b. If cmp is non-nil the
// name may be compressed against, and is registered in, cmp's suffix table.
//
// The fast path walks canonical names (lowercase, escape-free, absolute)
// directly: labels are emitted straight from the string, and compression
// keys hash substrings of n, so no intermediate label slices exist. Names
// that carry escapes, uppercase, or no trailing dot fall back to the
// label parser, which produces the same bytes and the same (canonical)
// suffix keys.
func appendName(b []byte, n Name, cmp *compressor) ([]byte, error) {
	s := string(n)
	if s == "" || s == "." {
		return append(b, 0), nil
	}
	if cmp != nil && cmp.log {
		cmp.names = append(cmp.names, Name(strings.Clone(s)))
	}
	if s[len(s)-1] != '.' {
		return appendNameSlow(b, n, cmp)
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || ('A' <= c && c <= 'Z') {
			return appendNameSlow(b, n, cmp)
		}
	}
	// Escape-free absolute names occupy exactly len(s)+1 wire octets.
	if len(s)+1 > 255 {
		return nil, ErrNameTooLong
	}
	for i := 0; i < len(s); {
		j := strings.IndexByte(s[i:], '.') + i // the trailing dot guarantees a hit
		if j == i {
			return nil, ErrEmptyLabel
		}
		if j-i > 63 {
			return nil, ErrLabelTooLong
		}
		if cmp != nil {
			h := maphash.String(suffixSeed, s[i:])
			slot := cmp.probe(h, int(h))
			for ; cmp.taken(slot); slot = cmp.probe(h, slot+1) {
				if off := int(cmp.slots[slot].off); wroteAt(b, off, s[i:]) {
					return cmp.pointer(b, off), nil
				}
			}
			cmp.add(slot, h, len(b))
		}
		b = append(b, byte(j-i))
		b = append(b, s[i:j]...)
		i = j + 1
	}
	return append(b, 0), nil
}

// pointer appends a compression pointer to off.
func (c *compressor) pointer(b []byte, off int) []byte {
	if c.log {
		c.pointers = append(c.pointers, len(b))
	}
	return append(b, byte(0xC0|off>>8), byte(off))
}

// appendNameSlow is the label-parsing encoder for non-canonical input.
func appendNameSlow(b []byte, n Name, cmp *compressor) ([]byte, error) {
	labels, err := parseLabels(string(n))
	if err != nil {
		return nil, err
	}
	for i := range labels {
		if cmp != nil {
			h := maphash.String(suffixSeed, string(nameFromLabels(labels[i:])))
			slot := cmp.probe(h, int(h))
			for ; cmp.taken(slot); slot = cmp.probe(h, slot+1) {
				if off := int(cmp.slots[slot].off); wroteLabelsAt(b, off, labels[i:]) {
					return cmp.pointer(b, off), nil
				}
			}
			cmp.add(slot, h, len(b))
		}
		b = append(b, byte(len(labels[i])))
		b = append(b, labels[i]...)
	}
	return append(b, 0), nil
}

// wroteAt reports whether the name appendName wrote at off in b, read
// through its pointers, is s: the suffix of a name the fast path writes,
// whose labels are its dot-separated substrings.
func wroteAt(b []byte, off int, s string) bool {
	for off < len(b) {
		switch c := int(b[off]); {
		case c == 0:
			return s == ""
		case c&0xC0 == 0xC0:
			off = (c&0x3F)<<8 | int(b[off+1])
		default:
			if c >= len(s) || s[c] != '.' || string(b[off+1:off+1+c]) != s[:c] {
				return false
			}
			s, off = s[c+1:], off+1+c
		}
	}
	return false
}

// wroteLabelsAt is wroteAt for raw labels, which may hold any octet.
func wroteLabelsAt(b []byte, off int, labels [][]byte) bool {
	for off < len(b) {
		switch c := int(b[off]); {
		case c == 0:
			return len(labels) == 0
		case c&0xC0 == 0xC0:
			off = (c&0x3F)<<8 | int(b[off+1])
		default:
			if len(labels) == 0 || !bytes.Equal(b[off+1:off+1+c], labels[0]) {
				return false
			}
			labels, off = labels[1:], off+1+c
		}
	}
	return false
}

// decodedName is a memoized name decode: the name, the offset just past
// its top-level encoding, and its uncompressed wire length.
type decodedName struct {
	name Name
	end  int
	wlen int
}

// unpacker carries per-message decode state. Compressed messages repeat
// names heavily (every owner name is usually a pointer to a prior one),
// so decodes are memoized by start offset: a pointer to an already-seen
// name costs a map hit instead of a fresh walk and string allocation.
// Unpackers are pooled; release clears the table.
type unpacker struct {
	names map[int]decodedName
}

var unpackerPool = sync.Pool{
	New: func() any { return &unpacker{names: make(map[int]decodedName, 16)} },
}

func newUnpacker() *unpacker {
	return unpackerPool.Get().(*unpacker)
}

func (u *unpacker) release() {
	clear(u.names)
	unpackerPool.Put(u)
}

func (u *unpacker) memo(off int) (decodedName, bool) {
	if u == nil {
		return decodedName{}, false
	}
	d, ok := u.names[off]
	return d, ok
}

func (u *unpacker) remember(off int, d decodedName) {
	if u != nil {
		u.names[off] = d
	}
}

// appendPresentationLabel renders one raw wire label into presentation
// form (lowercased, escaped), appending to buf.
func appendPresentationLabel(buf []byte, label []byte) []byte {
	for _, b := range label {
		switch octetClass[b] {
		case octetSpecial:
			buf = append(buf, '\\', b)
		case octetDecimal:
			buf = append(buf, '\\', '0'+b/100, '0'+b/10%10, '0'+b%10)
		default:
			buf = append(buf, lowerByte(b))
		}
	}
	return buf
}

// name decodes a possibly-compressed name from msg starting at off,
// memoizing the result. It returns the name and the offset just past the
// name's encoding at the top level (pointers do not advance the caller's
// offset past 2 octets).
func (u *unpacker) name(msg []byte, off int) (Name, int, error) {
	// Presentation form accumulates on the stack: 255 wire octets escape
	// to at most ~1020 presentation bytes.
	var stack [1024]byte
	buf, tail, end, wlen, err := u.appendName(stack[:0], msg, off)
	if err != nil {
		return "", 0, err
	}
	n := tail
	switch {
	case len(buf) > 0:
		n = Name(append(buf, tail...))
	case n == "":
		n = Root
	}
	u.remember(off, decodedName{name: n, end: end, wlen: wlen})
	return n, end, nil
}

// appendName appends the presentation form of the name at off in msg to
// buf, every label followed by its dot, so nothing for the root. It
// stops at the end of the name or at a name u remembers, which it
// returns as tail (the root's tail is empty). end is the offset just
// past the name's encoding at the top level, wlen its uncompressed wire
// length.
func (u *unpacker) appendName(buf, msg []byte, off int) (_ []byte, tail Name, end, wlen int, err error) {
	ptrBudget := 127 // defends against pointer loops
	end = -1         // offset after the name at the original nesting level
	wlen = 1
	for {
		if d, ok := u.memo(off); ok {
			if wlen-1+d.wlen > 255 {
				return nil, "", 0, 0, ErrNameTooLong
			}
			if end < 0 {
				end = d.end
			}
			if d.name != Root {
				tail = d.name
			}
			return buf, tail, end, wlen - 1 + d.wlen, nil
		}
		if off >= len(msg) {
			return nil, "", 0, 0, ErrNameTruncated
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			return buf, "", end, wlen, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return nil, "", 0, 0, ErrNameTruncated
			}
			ptr := (c&0x3F)<<8 | int(msg[off+1])
			if end < 0 {
				end = off + 2
			}
			if ptr >= off {
				// Forward or self pointers are invalid and could loop.
				return nil, "", 0, 0, ErrBadPointer
			}
			if ptrBudget--; ptrBudget < 0 {
				return nil, "", 0, 0, ErrBadPointer
			}
			off = ptr
		case c&0xC0 != 0:
			return nil, "", 0, 0, ErrBadPointer
		default:
			if off+1+c > len(msg) {
				return nil, "", 0, 0, ErrNameTruncated
			}
			wlen += c + 1
			if wlen > 255 {
				return nil, "", 0, 0, ErrNameTooLong
			}
			buf = appendPresentationLabel(buf, msg[off+1:off+1+c])
			buf = append(buf, '.')
			off += 1 + c
		}
	}
}

// unpackName decodes one name on its own. A nil unpacker keeps no memo:
// the table only pays off across the names of one message, which message
// decoding gets by threading a pooled unpacker through instead.
func unpackName(msg []byte, off int) (Name, int, error) {
	return (*unpacker)(nil).name(msg, off)
}
