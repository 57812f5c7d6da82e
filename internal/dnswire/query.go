package dnswire

import (
	"encoding/binary"
	"errors"
)

// Query is what a server's front door needs from a query datagram — the
// header, the one question and the EDNS parameters — decoded straight
// from the wire without building a Message. The question name is the
// only allocation, and the only thing that outlives the datagram.
type Query struct {
	ID       uint16
	Flags    uint16 // the header flags word as received
	Question Question
	// EDNS reports an OPT pseudo-record in the additional section (the
	// first one, as Message.EDNS reads it); UDPSize and DO are the
	// payload size it advertises and its DO bit.
	EDNS    bool
	UDPSize uint16
	DO      bool
}

// ErrQuestionCount is returned by Query.Parse for a datagram whose header
// does not announce exactly one question. ID and Flags are valid, so the
// caller can still answer FORMERR.
var ErrQuestionCount = errors.New("dnswire: not exactly one question")

// Opcode extracts the opcode from the flags word.
func (q *Query) Opcode() Opcode { return Opcode(q.Flags >> 11 & 0xF) }

// Parse decodes req. Records other than an OPT are stepped over by their
// length fields, not decoded, so a query is not refused for rdata the
// server would never read; a record that runs past the datagram, or
// bytes left after the last one, are errors as they are for Unpack.
// Nothing in q aliases req.
func (q *Query) Parse(req []byte) error {
	if len(req) < 12 {
		return ErrMessageTruncated
	}
	*q = Query{ID: binary.BigEndian.Uint16(req), Flags: binary.BigEndian.Uint16(req[2:])}
	if binary.BigEndian.Uint16(req[4:]) != 1 {
		return ErrQuestionCount
	}
	skipped := int(binary.BigEndian.Uint16(req[6:])) + int(binary.BigEndian.Uint16(req[8:]))
	additional := int(binary.BigEndian.Uint16(req[10:]))

	name, off, err := unpackName(req, 12)
	if err != nil {
		return err
	}
	if off+4 > len(req) {
		return ErrMessageTruncated
	}
	q.Question = Question{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(req[off:])),
		Class: Class(binary.BigEndian.Uint16(req[off+2:])),
	}
	off += 4

	for i := 0; i < skipped+additional; i++ {
		if off, err = skipName(req, off); err != nil {
			return err
		}
		if off+10 > len(req) {
			return errRDataTruncated
		}
		fixed := req[off : off+10] // type, class, TTL, rdlength
		if off += 10 + int(binary.BigEndian.Uint16(fixed[8:])); off > len(req) {
			return errRDataTruncated
		}
		if i >= skipped && !q.EDNS && Type(binary.BigEndian.Uint16(fixed)) == TypeOPT {
			q.EDNS = true
			q.UDPSize = binary.BigEndian.Uint16(fixed[2:])
			q.DO = fixed[6]&0x80 != 0 // high bit of the TTL's low word
		}
	}
	if off != len(req) {
		return ErrTrailingBytes
	}
	return nil
}

// skipName returns the offset just past the name encoded at off, without
// decoding it: a name ends at its root label or at its first pointer.
func skipName(msg []byte, off int) (int, error) {
	for off < len(msg) {
		switch c := int(msg[off]); {
		case c == 0:
			return off + 1, nil
		case c&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return 0, ErrNameTruncated
			}
			return off + 2, nil
		case c&0xC0 != 0:
			return 0, ErrBadPointer
		default:
			off += 1 + c
		}
	}
	return 0, ErrNameTruncated
}
