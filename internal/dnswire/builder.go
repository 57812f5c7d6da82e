package dnswire

import "encoding/binary"

// Builder packs one message straight into a caller's buffer, a record at
// a time, producing the bytes AppendPack would for the same content. It
// serves a responder that has the records — shared with a cache, their
// TTLs to be replaced on the way out — but no Message to hold them.
//
// Write the sections in order: Start, Question, Answer…, then OPT. After
// Start, Finish must be called exactly once, whatever happened between:
// it returns the compression table to its pool.
type Builder struct {
	buf  []byte
	cmp  *compressor
	qEnd int // where the question section ends: what Truncate cuts back to
}

// Header offsets of the section counts.
const (
	offQDCount = 4
	offANCount = 6
	offARCount = 10
)

// Start begins a message with the given ID and flags word at the front
// of buf, whose contents are discarded: compression offsets count from
// the first byte of the buffer.
func (b *Builder) Start(buf []byte, id, flags uint16) {
	b.buf = append(buf[:0], byte(id>>8), byte(id), byte(flags>>8), byte(flags), 0, 0, 0, 0, 0, 0, 0, 0)
	b.cmp = newCompressor()
	b.qEnd = len(b.buf)
}

func (b *Builder) bump(countOff int) {
	binary.BigEndian.PutUint16(b.buf[countOff:], binary.BigEndian.Uint16(b.buf[countOff:])+1)
}

// Question appends q to the question section.
func (b *Builder) Question(q Question) error {
	buf, err := appendName(b.buf, q.Name, b.cmp)
	if err != nil {
		return err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
	b.buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	b.bump(offQDCount)
	b.qEnd = len(b.buf)
	return nil
}

// Answer appends rr to the answer section with ttl in place of its own
// TTL. rr is only read, so it may be a record a cache shares out.
func (b *Builder) Answer(rr RR, ttl uint32) error {
	rr.TTL = ttl
	buf, err := appendRR(b.buf, rr, b.cmp)
	if err != nil {
		return err
	}
	b.buf = buf
	b.bump(offANCount)
	return nil
}

// OPT appends an EDNS0 pseudo-record with no options to the additional
// section, advertising udpSize and mirroring do.
func (b *Builder) OPT(udpSize uint16, do bool) {
	var doBit byte
	if do {
		doBit = 0x80
	}
	b.buf = append(b.buf, 0, // root owner
		byte(TypeOPT>>8), byte(TypeOPT), byte(udpSize>>8), byte(udpSize),
		0, 0, doBit, 0, // extended rcode, version, flags
		0, 0) // no options
	b.bump(offARCount)
}

// Len is the size of the message so far.
func (b *Builder) Len() int { return len(b.buf) }

// Truncate discards every record after the question section and sets
// TC. Only OPT may follow: the compression table still holds offsets
// into what was cut.
func (b *Builder) Truncate() {
	b.buf = b.buf[:b.qEnd]
	clear(b.buf[offANCount:12])
	b.buf[2] |= FlagTC >> 8
}

// Finish returns the message, in the buffer given to Start or the array
// append moved it to.
func (b *Builder) Finish() []byte {
	b.cmp.release()
	b.cmp = nil
	return b.buf
}
