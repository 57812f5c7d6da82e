package dnswire

import (
	"encoding/binary"
	"errors"
	"unsafe"
)

// Query is what a server's front door needs from a query datagram — the
// header, the one question and the EDNS parameters — decoded straight
// from the wire without building a Message. It allocates nothing: the
// question name is decoded into an array of the Query's own, and Name
// hands it out as a view of that array.
//
// A view is valid while its Query is, and until that Query is parsed
// again; so are the names sliced from it (Parent, TLD). Whatever keeps
// the name past the datagram — a map key, a cached message, a trace —
// keeps a copy (Name.Clone). Storing a view in anything that outlives
// the call moves the Query itself to the heap, which go build
// -gcflags=-m reports at the Query's declaration.
type Query struct {
	ID    uint16
	Flags uint16 // the header flags word as received
	// Type and Class are the question's; zero without one.
	Type  Type
	Class Class
	// EDNS reports an OPT pseudo-record in the additional section (the
	// first one, as Message.EDNS reads it); UDPSize and DO are the
	// payload size it advertises and its DO bit.
	EDNS    bool
	UDPSize uint16
	DO      bool
	// Trace is that OPT's trace option as Message.TraceOption reads it;
	// zero when there is none or it is malformed.
	Trace TraceContext

	// The question name in presentation form: the first nameLen octets
	// of name, or long when that form (a name of many escaped octets)
	// does not fit. Parse never stores a view of name in the Query: the
	// Query would then point at itself and go to the heap.
	nameLen int
	long    Name
	name    [256]byte
}

// ErrQuestionCount is returned by Query.Parse for a datagram whose header
// does not announce exactly one question. ID and Flags are valid, so the
// caller can still answer FORMERR.
var ErrQuestionCount = errors.New("dnswire: not exactly one question")

// Opcode extracts the opcode from the flags word.
func (q *Query) Opcode() Opcode { return Opcode(q.Flags >> 11 & 0xF) }

// Name returns the question name, lowercased, as a view of q: "" when
// the query has no question.
func (q *Query) Name() Name {
	if q.long != "" {
		return q.long
	}
	return Name(unsafe.String(&q.name[0], q.nameLen))
}

// Question returns the question, its name a view of q.
func (q *Query) Question() Question {
	return Question{Name: q.Name(), Type: q.Type, Class: q.Class}
}

// Parse decodes req. Records other than an OPT are stepped over by their
// length fields, not decoded, so a query is not refused for rdata the
// server would never read; a record that runs past the datagram, an OPT
// whose options overrun its rdata, or bytes left after the last record
// are errors as they are for Unpack. Nothing in q aliases req.
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

	name, _, off, _, err := (*unpacker)(nil).appendName(q.name[:0], req, 12)
	if err != nil {
		return err
	}
	if off+4 > len(req) {
		return ErrMessageTruncated
	}
	switch {
	case len(name) == 0:
		q.name[0], q.nameLen = '.', 1
	case len(name) <= len(q.name): // decoded in place
		q.nameLen = len(name)
	default: // outgrew the array: a copy of its own
		q.long = Name(name)
	}
	q.Type = Type(binary.BigEndian.Uint16(req[off:]))
	q.Class = Class(binary.BigEndian.Uint16(req[off+2:]))
	off += 4

	for i := 0; i < skipped+additional; i++ {
		if off, err = skipName(req, off); err != nil {
			return err
		}
		if off+10 > len(req) {
			return errRDataTruncated
		}
		fixed := req[off : off+10] // type, class, TTL, rdlength
		rdata := off + 10
		if off = rdata + int(binary.BigEndian.Uint16(fixed[8:])); off > len(req) {
			return errRDataTruncated
		}
		if Type(binary.BigEndian.Uint16(fixed)) != TypeOPT {
			continue
		}
		trace, err := optTrace(req[rdata:off])
		if err != nil {
			return err
		}
		if i >= skipped && !q.EDNS {
			q.EDNS = true
			q.UDPSize = binary.BigEndian.Uint16(fixed[2:])
			q.DO = fixed[6]&0x80 != 0 // high bit of the TTL's low word
			q.Trace = trace
		}
	}
	if off != len(req) {
		return ErrTrailingBytes
	}
	return nil
}

// optTrace walks the options of an OPT's rdata, which must tile it
// exactly as Unpack requires, and decodes the first trace option.
func optTrace(rdata []byte) (TraceContext, error) {
	var tc TraceContext
	found := false
	for len(rdata) > 0 {
		if len(rdata) < 4 {
			return TraceContext{}, errRDataTruncated
		}
		code, n := binary.BigEndian.Uint16(rdata), int(binary.BigEndian.Uint16(rdata[2:]))
		if 4+n > len(rdata) {
			return TraceContext{}, errRDataTruncated
		}
		if code == OptionCodeTrace && !found {
			tc, _, _ = DecodeTraceContext(rdata[4 : 4+n])
			found = true
		}
		rdata = rdata[4+n:]
	}
	return tc, nil
}

// Query reads m as Parse reads its wire image, for callers that hold a
// Message: ErrQuestionCount unless it has exactly one question.
func (m *Message) Query() (Query, error) {
	q := Query{ID: m.ID, Flags: m.flags()}
	if len(m.Questions) != 1 {
		return q, ErrQuestionCount
	}
	question := m.Questions[0]
	if q.Type, q.Class = question.Type, question.Class; len(question.Name) <= len(q.name) {
		q.nameLen = copy(q.name[:], question.Name)
	} else {
		q.long = question.Name
	}
	if opt, size, do := m.EDNS(); opt != nil {
		q.EDNS, q.UDPSize, q.DO = true, size, do
		q.Trace, _, _ = m.TraceOption()
	}
	return q, nil
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
