package dnswire

import (
	"encoding/binary"
	"slices"
	"strings"
)

// Image is a message packed once and written again for other questions:
// the precompiled answer for a family of questions whose replies differ
// in nothing but the question — an authoritative server's NXDOMAIN, the
// same for every name one pair of NSECs denies. It keeps the header and
// everything after the question as packed for a question at its anchor
// name, and the offset of every compression pointer in it.
//
// Asked for a name below the anchor, everything after the question
// moves by the difference in the two names' lengths, and so do the
// anchor's suffixes inside the question, the only part of the question
// the image's pointers can refer to: the message is the image with every
// pointer moved by that difference. That is the message AppendPack
// makes, unless the name shares a suffix below the anchor with one of
// the image's compressed names, which AppendPack would have compressed
// against; Len says when.
type Image struct {
	anchor Name
	header [12]byte // ID zero, RD clear
	tail   []byte   // everything after the question
	ptrs   []uint16 // where in tail the compression pointers are
	// under holds the names one label below the anchor that the image's
	// compressed names lie at or under: a question below one of them
	// shares a suffix with one of those names.
	under []Name
}

// NewImage packs m, which has one question, into an image anchored at
// the question's name.
func NewImage(m *Message) (*Image, error) {
	if len(m.Questions) != 1 {
		return nil, ErrQuestionCount
	}
	cmp := makeCompressor()
	cmp.log = true
	wire, err := m.appendPack(nil, cmp)
	if err != nil {
		return nil, err
	}
	im := &Image{anchor: m.Questions[0].Name}
	copy(im.header[:], wire)
	im.header[0], im.header[1] = 0, 0
	im.header[2] &^= FlagRD >> 8
	start := len(im.header) + im.anchor.WireLen() + 4 // the first name is never compressed
	im.tail = slices.Clone(wire[start:])
	im.ptrs = make([]uint16, len(cmp.pointers))
	for i, p := range cmp.pointers {
		im.ptrs[i] = uint16(p - start)
	}
	for _, n := range cmp.names {
		if canonical, err := ParseName(string(n)); err == nil {
			n = canonical
		}
		if c, ok := childOf(n, im.anchor); ok && !slices.Contains(im.under, c) {
			im.under = append(im.under, c)
		}
	}
	return im, nil
}

// childOf returns the ancestor of n one label below anchor, n itself if
// anchor is its parent, and false when n is not below anchor.
func childOf(n, anchor Name) (Name, bool) {
	if n == anchor || !n.IsSubdomainOf(anchor) {
		return "", false
	}
	if s := string(n); plain(s) {
		// The label before the anchor's is the one before its dot (or, for
		// the root, the name's last).
		cut := len(s) - len(anchor)
		return Name(s[strings.LastIndexByte(s[:cut-1], '.')+1:]), true
	}
	for p := n.Parent(); p != anchor; p = p.Parent() {
		if p.IsRoot() {
			return "", false
		}
		n = p
	}
	return n, true
}

// Len returns the length of the message the image makes for a question
// named q, and false when that would not be what AppendPack makes: q is
// not plain, is not at or below the anchor, shares a suffix below the
// anchor with a compressed name of the image, or takes the image so far
// into the message that a pointer could no longer reach a name.
func (im *Image) Len(q Name) (int, bool) {
	if !plain(string(q)) {
		return 0, false
	}
	if q != im.anchor {
		if c, ok := childOf(q, im.anchor); !ok || slices.Contains(im.under, c) {
			return 0, false
		}
	}
	n := len(im.header) + q.WireLen() + 4 + len(im.tail)
	return n, n <= 0x4000
}

// Append appends the image's message for q to b, with id and rd in its
// header. q's name must be one Len accepts.
func (im *Image) Append(b []byte, id uint16, rd bool, q Question) []byte {
	start := len(b)
	b = append(b, im.header[:]...)
	binary.BigEndian.PutUint16(b[start:], id)
	if rd {
		b[start+2] |= FlagRD >> 8
	}
	b, _ = appendName(b, q.Name, nil)
	b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	tail := len(b)
	b = append(b, im.tail...)
	shift := uint16(q.Name.WireLen() - im.anchor.WireLen())
	for _, p := range im.ptrs {
		at := b[tail+int(p):]
		binary.BigEndian.PutUint16(at, binary.BigEndian.Uint16(at)+shift)
	}
	return b
}
