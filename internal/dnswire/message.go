package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// MaxUDPSize is the classic DNS-over-UDP payload limit (RFC 1035 §4.2.1).
const MaxUDPSize = 512

// DefaultEDNSSize is the EDNS0 UDP payload size this system advertises.
const DefaultEDNSSize = 1232

// Question is a query tuple (RFC 1035 §4.1.2).
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Message is a complete DNS message (RFC 1035 §4.1).
type Message struct {
	ID     uint16
	Opcode Opcode
	Rcode  Rcode

	Response           bool // QR
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	AuthenticData      bool // AD (RFC 4035)
	CheckingDisabled   bool // CD (RFC 4035)

	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Errors returned by message packing and unpacking.
var (
	ErrMessageTruncated = errors.New("dnswire: truncated message")
	ErrTrailingBytes    = errors.New("dnswire: trailing bytes after message")
)

// Header flag bits, as laid out in the second 16-bit word of the header
// (RFC 1035 §4.1.1, RFC 4035 §3.1.6) beside the opcode (bits 11-14) and
// the rcode (bits 0-3). Message carries them as fields; Query and Builder
// work on the raw word.
const (
	FlagQR = 1 << 15
	FlagAA = 1 << 10
	FlagTC = 1 << 9
	FlagRD = 1 << 8
	FlagRA = 1 << 7
	FlagAD = 1 << 5
	FlagCD = 1 << 4
)

// Pack serializes the message with name compression.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack serializes the message with name compression, appending to b.
// Compression offsets assume the message starts at b's current beginning,
// so b must be empty or used only for this message.
func (m *Message) AppendPack(b []byte) ([]byte, error) {
	cmp := newCompressor()
	defer cmp.release()
	return m.appendPack(b, cmp)
}

func (m *Message) appendPack(b []byte, cmp *compressor) ([]byte, error) {
	if len(m.Questions) > 0xFFFF || len(m.Answers) > 0xFFFF ||
		len(m.Authority) > 0xFFFF || len(m.Additional) > 0xFFFF {
		return nil, errors.New("dnswire: section exceeds 65535 records")
	}
	b = binary.BigEndian.AppendUint16(b, m.ID)
	b = binary.BigEndian.AppendUint16(b, m.flags())
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Questions)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Answers)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Authority)))
	b = binary.BigEndian.AppendUint16(b, uint16(len(m.Additional)))

	var err error
	for _, q := range m.Questions {
		if b, err = appendName(b, q.Name, cmp); err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(q.Type))
		b = binary.BigEndian.AppendUint16(b, uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if b, err = appendRR(b, rr, cmp); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// flags assembles the header's flags word.
func (m *Message) flags() uint16 {
	flags := uint16(m.Opcode&0xF)<<11 | uint16(m.Rcode&0xF)
	if m.Response {
		flags |= FlagQR
	}
	if m.Authoritative {
		flags |= FlagAA
	}
	if m.Truncated {
		flags |= FlagTC
	}
	if m.RecursionDesired {
		flags |= FlagRD
	}
	if m.RecursionAvailable {
		flags |= FlagRA
	}
	if m.AuthenticData {
		flags |= FlagAD
	}
	if m.CheckingDisabled {
		flags |= FlagCD
	}
	return flags
}

// Unpack parses a complete DNS message. Trailing bytes are an error.
// Byte-slice rdata fields are copied out of data, so the buffer may be
// reused once Unpack returns.
func (m *Message) Unpack(data []byte) error {
	return m.unpack(data, false)
}

// UnpackShared parses like Unpack, but byte-slice rdata fields (DNSKEY
// public keys, RRSIG signatures, DS digests, unknown-type payloads, …)
// alias data instead of copying. The caller must not reuse or mutate
// data while the message — or any record cached from it — is alive.
// Transports that allocate a fresh buffer per message (or that drop the
// message before the next read) use this to skip every rdata copy.
func (m *Message) UnpackShared(data []byte) error {
	return m.unpack(data, true)
}

func (m *Message) unpack(data []byte, shared bool) error {
	if len(data) < 12 {
		return ErrMessageTruncated
	}
	*m = Message{}
	m.ID = binary.BigEndian.Uint16(data)
	flags := binary.BigEndian.Uint16(data[2:])
	m.Response = flags&FlagQR != 0
	m.Opcode = Opcode(flags >> 11 & 0xF)
	m.Authoritative = flags&FlagAA != 0
	m.Truncated = flags&FlagTC != 0
	m.RecursionDesired = flags&FlagRD != 0
	m.RecursionAvailable = flags&FlagRA != 0
	m.AuthenticData = flags&FlagAD != 0
	m.CheckingDisabled = flags&FlagCD != 0
	m.Rcode = Rcode(flags & 0xF)

	qd := int(binary.BigEndian.Uint16(data[4:]))
	an := int(binary.BigEndian.Uint16(data[6:]))
	ns := int(binary.BigEndian.Uint16(data[8:]))
	ar := int(binary.BigEndian.Uint16(data[10:]))

	// Count sanity before sizing the sections: a question occupies at
	// least 5 octets on the wire and a record at least 11, so counts
	// claiming more than the body could hold are rejected up front
	// rather than driving over-allocation.
	if qd*5+(an+ns+ar)*11 > len(data)-12 {
		return ErrMessageTruncated
	}

	u := newUnpacker()
	defer u.release()

	off := 12
	var err error
	if qd > 0 {
		m.Questions = make([]Question, 0, qd)
	}
	for i := 0; i < qd; i++ {
		var q Question
		q.Name, off, err = u.name(data, off)
		if err != nil {
			return err
		}
		if off+4 > len(data) {
			return ErrMessageTruncated
		}
		q.Type = Type(binary.BigEndian.Uint16(data[off:]))
		q.Class = Class(binary.BigEndian.Uint16(data[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	// All three record sections share one backing array, sliced with
	// fixed capacities so a later append to one cannot clobber another.
	if total := an + ns + ar; total > 0 {
		rrbuf := make([]RR, total)
		if an > 0 {
			m.Answers = rrbuf[0:0:an]
		}
		if ns > 0 {
			m.Authority = rrbuf[an : an : an+ns]
		}
		if ar > 0 {
			m.Additional = rrbuf[an+ns : an+ns : total]
		}
	}
	for _, sec := range []struct {
		n   int
		dst *[]RR
	}{{an, &m.Answers}, {ns, &m.Authority}, {ar, &m.Additional}} {
		for i := 0; i < sec.n; i++ {
			var rr RR
			rr, off, err = unpackRR(u, data, off, shared)
			if err != nil {
				return err
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	if off != len(data) {
		return ErrTrailingBytes
	}
	return nil
}

// NewQuery builds a standard query message for (name, type) in class IN.
func NewQuery(id uint16, name Name, typ Type) *Message {
	return &Message{
		ID:               id,
		Opcode:           OpcodeQuery,
		RecursionDesired: true,
		Questions:        []Question{{Name: name, Type: typ, Class: ClassINET}},
	}
}

// SetEDNS attaches (or replaces) an OPT pseudo-record advertising the given
// UDP payload size and the DO bit.
func (m *Message) SetEDNS(udpSize uint16, do bool) {
	kept := m.Additional[:0]
	for _, rr := range m.Additional {
		if rr.Type != TypeOPT {
			kept = append(kept, rr)
		}
	}
	m.Additional = kept
	var ttl uint32
	if do {
		ttl |= 1 << 15 // DO bit lives in the high bit of the TTL's low word
	}
	m.Additional = append(m.Additional, RR{
		Name:  Root,
		Type:  TypeOPT,
		Class: Class(udpSize),
		TTL:   ttl,
		Data:  OPT{},
	})
}

// EDNS returns the message's OPT record, if any, and the advertised UDP
// payload size and DO bit.
func (m *Message) EDNS() (opt *RR, udpSize uint16, do bool) {
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			rr := &m.Additional[i]
			return rr, uint16(rr.Class), rr.TTL&(1<<15) != 0
		}
	}
	return nil, 0, false
}

// String renders the message dig-style for debugging.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; opcode: %s, status: %s, id: %d\n", m.Opcode, m.Rcode, m.ID)
	fmt.Fprintf(&sb, ";; flags:")
	for _, f := range []struct {
		on   bool
		name string
	}{
		{m.Response, "qr"}, {m.Authoritative, "aa"}, {m.Truncated, "tc"},
		{m.RecursionDesired, "rd"}, {m.RecursionAvailable, "ra"},
		{m.AuthenticData, "ad"}, {m.CheckingDisabled, "cd"},
	} {
		if f.on {
			sb.WriteByte(' ')
			sb.WriteString(f.name)
		}
	}
	fmt.Fprintf(&sb, "; QUERY: %d, ANSWER: %d, AUTHORITY: %d, ADDITIONAL: %d\n",
		len(m.Questions), len(m.Answers), len(m.Authority), len(m.Additional))
	if len(m.Questions) > 0 {
		sb.WriteString(";; QUESTION SECTION:\n")
		for _, q := range m.Questions {
			fmt.Fprintf(&sb, ";%s\n", q)
		}
	}
	for _, sec := range []struct {
		name string
		rrs  []RR
	}{{"ANSWER", m.Answers}, {"AUTHORITY", m.Authority}, {"ADDITIONAL", m.Additional}} {
		if len(sec.rrs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, ";; %s SECTION:\n", sec.name)
		for _, rr := range sec.rrs {
			sb.WriteString(rr.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
