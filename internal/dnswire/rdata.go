package dnswire

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
)

// RData is the type-specific payload of a resource record.
//
// appendWire appends the RDATA wire encoding (without the RDLENGTH prefix).
// Compression is used only for the record types RFC 1035 permits; cmp may
// be nil, in which case names are always emitted uncompressed (required in
// DNSSEC canonical form and in RDATA of newer types).
type RData interface {
	// Type returns the RR type this data belongs to.
	Type() Type
	// appendWire appends the wire encoding of the RDATA to b.
	appendWire(b []byte, cmp *compressor) ([]byte, error)
	// appendText appends the RDATA's presentation form, String's text.
	appendText(b []byte) []byte
	// String returns the RDATA in zone-file presentation form.
	String() string
}

var errRDataTruncated = errors.New("dnswire: truncated rdata")

// CompareText orders two rdata as the texts String returns for them order
// (-1, 0 or +1) without building either string: the order a zone lists an
// RRset in and the equality it drops a duplicate record by. The texts are
// written into two buffers on the caller's stack. Those fit the longest
// text of a zone signed with Ed25519 (an RRSIG, about 130 octets) or with
// RSA-2048 (an RRSIG, about 400); a longer one, such as an RSA-4096
// signature's, is built on the heap.
func CompareText(a, b RData) int {
	var ta, tb [512]byte
	return bytes.Compare(appendText(ta[:0], a), appendText(tb[:0], b))
}

// appendText calls d.appendText on d's dynamic type. Through the
// interface the compiler would have to assume that b escapes, and move
// CompareText's buffers to the heap.
func appendText(b []byte, d RData) []byte {
	switch d := d.(type) {
	case A:
		return d.appendText(b)
	case AAAA:
		return d.appendText(b)
	case NS:
		return d.appendText(b)
	case CNAME:
		return d.appendText(b)
	case PTR:
		return d.appendText(b)
	case SOA:
		return d.appendText(b)
	case MX:
		return d.appendText(b)
	case TXT:
		return d.appendText(b)
	case SRV:
		return d.appendText(b)
	case DS:
		return d.appendText(b)
	case DNSKEY:
		return d.appendText(b)
	case RRSIG:
		return d.appendText(b)
	case NSEC:
		return d.appendText(b)
	case ZONEMD:
		return d.appendText(b)
	case CAA:
		return d.appendText(b)
	case OPT:
		return d.appendText(b)
	case Unknown:
		return d.appendText(b)
	}
	return append(b, d.String()...)
}

// appendDecimals appends the values in decimal, a space between each two.
func appendDecimals(b []byte, vs ...uint64) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return b
}

// appendHexUpper appends src in upper-case hex, the way digests are
// written.
func appendHexUpper(b, src []byte) []byte {
	const digits = "0123456789ABCDEF"
	for _, c := range src {
		b = append(b, digits[c>>4], digits[c&0x0F])
	}
	return b
}

// appendAddr appends addr as Addr.String spells it. AppendTo writes
// nothing for the zero Addr, which String calls "invalid IP".
func appendAddr(b []byte, addr netip.Addr) []byte {
	if !addr.IsValid() {
		return append(b, addr.String()...)
	}
	return addr.AppendTo(b)
}

// ---- A ----

// A is an IPv4 address record (RFC 1035 §3.4.1).
type A struct {
	Addr netip.Addr
}

// Type implements RData.
func (A) Type() Type { return TypeA }

func (a A) appendWire(b []byte, _ *compressor) ([]byte, error) {
	if !a.Addr.Is4() {
		return nil, fmt.Errorf("dnswire: A record with non-IPv4 address %v", a.Addr)
	}
	v4 := a.Addr.As4()
	return append(b, v4[:]...), nil
}

func (a A) appendText(b []byte) []byte { return appendAddr(b, a.Addr) }

func (a A) String() string { return a.Addr.String() }

// ---- AAAA ----

// AAAA is an IPv6 address record (RFC 3596).
type AAAA struct {
	Addr netip.Addr
}

// Type implements RData.
func (AAAA) Type() Type { return TypeAAAA }

func (a AAAA) appendWire(b []byte, _ *compressor) ([]byte, error) {
	if !a.Addr.Is6() || a.Addr.Is4In6() {
		return nil, fmt.Errorf("dnswire: AAAA record with non-IPv6 address %v", a.Addr)
	}
	v6 := a.Addr.As16()
	return append(b, v6[:]...), nil
}

func (a AAAA) appendText(b []byte) []byte { return appendAddr(b, a.Addr) }

func (a AAAA) String() string { return a.Addr.String() }

// ---- NS ----

// NS delegates a zone to a nameserver (RFC 1035 §3.3.11).
type NS struct {
	Host Name
}

// Type implements RData.
func (NS) Type() Type { return TypeNS }

func (n NS) appendWire(b []byte, cmp *compressor) ([]byte, error) {
	return appendName(b, n.Host, cmp)
}

func (n NS) appendText(b []byte) []byte { return append(b, n.Host...) }

func (n NS) String() string { return string(n.Host) }

// ---- CNAME ----

// CNAME is a canonical-name alias (RFC 1035 §3.3.1).
type CNAME struct {
	Target Name
}

// Type implements RData.
func (CNAME) Type() Type { return TypeCNAME }

func (c CNAME) appendWire(b []byte, cmp *compressor) ([]byte, error) {
	return appendName(b, c.Target, cmp)
}

func (c CNAME) appendText(b []byte) []byte { return append(b, c.Target...) }

func (c CNAME) String() string { return string(c.Target) }

// ---- PTR ----

// PTR is a pointer record (RFC 1035 §3.3.12).
type PTR struct {
	Target Name
}

// Type implements RData.
func (PTR) Type() Type { return TypePTR }

func (p PTR) appendWire(b []byte, cmp *compressor) ([]byte, error) {
	return appendName(b, p.Target, cmp)
}

func (p PTR) appendText(b []byte) []byte { return append(b, p.Target...) }

func (p PTR) String() string { return string(p.Target) }

// ---- SOA ----

// SOA marks the start of a zone of authority (RFC 1035 §3.3.13).
type SOA struct {
	MName   Name // primary nameserver
	RName   Name // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32 // negative-caching TTL (RFC 2308)
}

// Type implements RData.
func (SOA) Type() Type { return TypeSOA }

func (s SOA) appendWire(b []byte, cmp *compressor) ([]byte, error) {
	var err error
	if b, err = appendName(b, s.MName, cmp); err != nil {
		return nil, err
	}
	if b, err = appendName(b, s.RName, cmp); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint32(b, s.Serial)
	b = binary.BigEndian.AppendUint32(b, s.Refresh)
	b = binary.BigEndian.AppendUint32(b, s.Retry)
	b = binary.BigEndian.AppendUint32(b, s.Expire)
	return binary.BigEndian.AppendUint32(b, s.Minimum), nil
}

func (s SOA) appendText(b []byte) []byte {
	b = append(append(append(b, s.MName...), ' '), s.RName...)
	return appendDecimals(append(b, ' '), uint64(s.Serial), uint64(s.Refresh),
		uint64(s.Retry), uint64(s.Expire), uint64(s.Minimum))
}

func (s SOA) String() string { return string(s.appendText(nil)) }

// ---- MX ----

// MX is a mail-exchanger record (RFC 1035 §3.3.9).
type MX struct {
	Preference uint16
	Host       Name
}

// Type implements RData.
func (MX) Type() Type { return TypeMX }

func (m MX) appendWire(b []byte, cmp *compressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, m.Preference)
	return appendName(b, m.Host, cmp)
}

func (m MX) appendText(b []byte) []byte {
	return append(append(strconv.AppendUint(b, uint64(m.Preference), 10), ' '), m.Host...)
}

func (m MX) String() string { return string(m.appendText(nil)) }

// ---- TXT ----

// TXT carries descriptive text (RFC 1035 §3.3.14). Each string is at most
// 255 octets on the wire.
type TXT struct {
	Strings []string
}

// Type implements RData.
func (TXT) Type() Type { return TypeTXT }

func (t TXT) appendWire(b []byte, _ *compressor) ([]byte, error) {
	if len(t.Strings) == 0 {
		return nil, errors.New("dnswire: TXT record with no strings")
	}
	for _, s := range t.Strings {
		if len(s) > 255 {
			return nil, errors.New("dnswire: TXT string exceeds 255 octets")
		}
		b = append(b, byte(len(s)))
		b = append(b, s...)
	}
	return b, nil
}

func (t TXT) appendText(b []byte) []byte {
	for i, s := range t.Strings {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendQuoted(b, s)
	}
	return b
}

func (t TXT) String() string { return string(t.appendText(nil)) }

// appendQuoted appends a character-string in master-file form (RFC 1035
// §5.1): double-quoted, with the quote and the backslash escaped by a
// backslash and any octet outside printable ASCII as \DDD.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '"')
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
	return append(b, '"')
}

// ---- SRV ----

// SRV locates a service (RFC 2782).
type SRV struct {
	Priority uint16
	Weight   uint16
	Port     uint16
	Target   Name
}

// Type implements RData.
func (SRV) Type() Type { return TypeSRV }

func (s SRV) appendWire(b []byte, _ *compressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, s.Priority)
	b = binary.BigEndian.AppendUint16(b, s.Weight)
	b = binary.BigEndian.AppendUint16(b, s.Port)
	return appendName(b, s.Target, nil) // SRV targets are never compressed
}

func (s SRV) appendText(b []byte) []byte {
	b = appendDecimals(b, uint64(s.Priority), uint64(s.Weight), uint64(s.Port))
	return append(append(b, ' '), s.Target...)
}

func (s SRV) String() string { return string(s.appendText(nil)) }

// ---- DS ----

// DS is a delegation-signer digest of a child zone's KSK (RFC 4034 §5).
type DS struct {
	KeyTag     uint16
	Algorithm  uint8
	DigestType uint8
	Digest     []byte
}

// Type implements RData.
func (DS) Type() Type { return TypeDS }

func (d DS) appendWire(b []byte, _ *compressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, d.KeyTag)
	b = append(b, d.Algorithm, d.DigestType)
	return append(b, d.Digest...), nil
}

func (d DS) appendText(b []byte) []byte {
	b = appendDecimals(b, uint64(d.KeyTag), uint64(d.Algorithm), uint64(d.DigestType))
	return appendHexUpper(append(b, ' '), d.Digest)
}

func (d DS) String() string { return string(d.appendText(nil)) }

// ---- DNSKEY ----

// DNSKEY flags.
const (
	DNSKEYFlagZone   = 0x0100 // ZSK bit
	DNSKEYFlagSEP    = 0x0001 // secure entry point (KSK)
	DNSKEYFlagRevoke = 0x0080 // RFC 5011 revocation bit
)

// DNSSEC algorithm numbers used in this system.
const (
	AlgEd25519 = 15 // RFC 8080
)

// DNSKEY holds a zone's public key (RFC 4034 §2).
type DNSKEY struct {
	Flags     uint16
	Protocol  uint8 // always 3
	Algorithm uint8
	PublicKey []byte
}

// Type implements RData.
func (DNSKEY) Type() Type { return TypeDNSKEY }

func (k DNSKEY) appendWire(b []byte, _ *compressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, k.Flags)
	b = append(b, k.Protocol, k.Algorithm)
	return append(b, k.PublicKey...), nil
}

func (k DNSKEY) appendText(b []byte) []byte {
	b = appendDecimals(b, uint64(k.Flags), uint64(k.Protocol), uint64(k.Algorithm))
	return base64.StdEncoding.AppendEncode(append(b, ' '), k.PublicKey)
}

func (k DNSKEY) String() string { return string(k.appendText(nil)) }

// KeyTag computes the RFC 4034 appendix-B key tag for the key.
func (k DNSKEY) KeyTag() uint16 {
	wire, err := k.appendWire(nil, nil)
	if err != nil {
		return 0
	}
	var acc uint32
	for i, b := range wire {
		if i&1 == 1 {
			acc += uint32(b)
		} else {
			acc += uint32(b) << 8
		}
	}
	acc += acc >> 16 & 0xFFFF
	return uint16(acc & 0xFFFF)
}

// ---- RRSIG ----

// RRSIG signs an RRset (RFC 4034 §3).
type RRSIG struct {
	TypeCovered Type
	Algorithm   uint8
	Labels      uint8
	OrigTTL     uint32
	Expiration  uint32 // seconds since epoch
	Inception   uint32
	KeyTag      uint16
	SignerName  Name
	Signature   []byte
}

// Type implements RData.
func (RRSIG) Type() Type { return TypeRRSIG }

func (r RRSIG) appendWire(b []byte, _ *compressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint16(b, uint16(r.TypeCovered))
	b = append(b, r.Algorithm, r.Labels)
	b = binary.BigEndian.AppendUint32(b, r.OrigTTL)
	b = binary.BigEndian.AppendUint32(b, r.Expiration)
	b = binary.BigEndian.AppendUint32(b, r.Inception)
	b = binary.BigEndian.AppendUint16(b, r.KeyTag)
	var err error
	if b, err = appendName(b, r.SignerName, nil); err != nil {
		return nil, err
	}
	return append(b, r.Signature...), nil
}

func (r RRSIG) appendText(b []byte) []byte {
	b = appendDecimals(append(appendType(b, r.TypeCovered), ' '), uint64(r.Algorithm),
		uint64(r.Labels), uint64(r.OrigTTL), uint64(r.Expiration), uint64(r.Inception),
		uint64(r.KeyTag))
	b = append(append(append(b, ' '), r.SignerName...), ' ')
	return base64.StdEncoding.AppendEncode(b, r.Signature)
}

func (r RRSIG) String() string { return string(r.appendText(nil)) }

// ---- NSEC ----

// NSEC proves the non-existence of names and types (RFC 4034 §4).
type NSEC struct {
	NextName Name
	Types    []Type
}

// Type implements RData.
func (NSEC) Type() Type { return TypeNSEC }

func (n NSEC) appendWire(b []byte, _ *compressor) ([]byte, error) {
	var err error
	if b, err = appendName(b, n.NextName, nil); err != nil {
		return nil, err
	}
	return appendTypeBitmap(b, n.Types)
}

func (n NSEC) appendText(b []byte) []byte {
	b = append(b, n.NextName...)
	for _, t := range n.Types {
		b = appendType(append(b, ' '), t)
	}
	return b
}

func (n NSEC) String() string { return string(n.appendText(nil)) }

// appendTypeBitmap encodes the NSEC windowed type bitmap (RFC 4034 §4.1.2).
// Types may come in any order — the signer lists a delegation's as NS,
// NSEC, RRSIG, DS — so each window, lowest first, is gathered by a scan of
// the list rather than by sorting a copy: nothing is allocated, and a
// list almost always spans one window.
func appendTypeBitmap(b []byte, types []Type) ([]byte, error) {
	for last := -1; ; {
		window := 256
		for _, t := range types {
			if w := int(t >> 8); w > last && w < window {
				window = w
			}
		}
		if window == 256 {
			return b, nil
		}
		var bitmap [32]byte
		maxOctet := 0
		for _, t := range types {
			if int(t>>8) == window {
				lo := byte(t)
				bitmap[lo/8] |= 0x80 >> (lo % 8)
				maxOctet = max(maxOctet, int(lo/8)+1)
			}
		}
		b = append(b, byte(window), byte(maxOctet))
		b = append(b, bitmap[:maxOctet]...)
		last = window
	}
}

// parseTypeBitmap decodes the NSEC windowed type bitmap.
func parseTypeBitmap(data []byte) ([]Type, error) {
	var types []Type
	for len(data) > 0 {
		if len(data) < 2 {
			return nil, errRDataTruncated
		}
		window, n := data[0], int(data[1])
		if n < 1 || n > 32 || len(data) < 2+n {
			return nil, errRDataTruncated
		}
		for i := 0; i < n; i++ {
			for bit := 0; bit < 8; bit++ {
				if data[2+i]&(0x80>>bit) != 0 {
					types = append(types, Type(uint16(window)<<8|uint16(i*8+bit)))
				}
			}
		}
		data = data[2+n:]
	}
	return types, nil
}

// ---- ZONEMD ----

// ZONEMD scheme and hash constants (RFC 8976).
const (
	ZONEMDSchemeSimple = 1
	ZONEMDHashSHA256   = 1 // stands in for SHA-384 in the RFC; we use SHA-256
)

// ZONEMD is a message digest over zone data (RFC 8976). The paper's
// "cryptographically sign the entire root zone file" optimisation is
// realised as a ZONEMD digest plus an RRSIG over it.
type ZONEMD struct {
	Serial uint32
	Scheme uint8
	Hash   uint8
	Digest []byte
}

// Type implements RData.
func (ZONEMD) Type() Type { return TypeZONEMD }

func (z ZONEMD) appendWire(b []byte, _ *compressor) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, z.Serial)
	b = append(b, z.Scheme, z.Hash)
	return append(b, z.Digest...), nil
}

func (z ZONEMD) appendText(b []byte) []byte {
	b = appendDecimals(b, uint64(z.Serial), uint64(z.Scheme), uint64(z.Hash))
	return appendHexUpper(append(b, ' '), z.Digest)
}

func (z ZONEMD) String() string { return string(z.appendText(nil)) }

// ---- CAA ----

// CAA restricts certificate issuance (RFC 8659).
type CAA struct {
	Flags uint8
	Tag   string
	Value string
}

// Type implements RData.
func (CAA) Type() Type { return TypeCAA }

func (c CAA) appendWire(b []byte, _ *compressor) ([]byte, error) {
	if len(c.Tag) == 0 || len(c.Tag) > 255 {
		return nil, errors.New("dnswire: bad CAA tag length")
	}
	b = append(b, c.Flags, byte(len(c.Tag)))
	b = append(b, c.Tag...)
	return append(b, c.Value...), nil
}

func (c CAA) appendText(b []byte) []byte {
	b = append(append(strconv.AppendUint(b, uint64(c.Flags), 10), ' '), c.Tag...)
	return appendQuoted(append(b, ' '), c.Value)
}

func (c CAA) String() string { return string(c.appendText(nil)) }

// ---- OPT (EDNS0) ----

// OPT is the EDNS0 pseudo-record payload (RFC 6891). The UDP size, extended
// rcode and flags live in the RR's Class and TTL fields; see Message.
type OPT struct {
	Options []EDNSOption
}

// EDNSOption is a single EDNS option TLV.
type EDNSOption struct {
	Code uint16
	Data []byte
}

// Type implements RData.
func (OPT) Type() Type { return TypeOPT }

func (o OPT) appendWire(b []byte, _ *compressor) ([]byte, error) {
	for _, opt := range o.Options {
		b = binary.BigEndian.AppendUint16(b, opt.Code)
		b = binary.BigEndian.AppendUint16(b, uint16(len(opt.Data)))
		b = append(b, opt.Data...)
	}
	return b, nil
}

func (o OPT) appendText(b []byte) []byte {
	for i, opt := range o.Options {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(append(b, "opt"...), uint64(opt.Code), 10)
		b = hex.AppendEncode(append(b, ':'), opt.Data)
	}
	return b
}

func (o OPT) String() string { return string(o.appendText(nil)) }

// ---- Unknown (RFC 3597) ----

// Unknown carries the raw RDATA of a type this package does not model.
type Unknown struct {
	RRType Type
	Data   []byte
}

// Type implements RData.
func (u Unknown) Type() Type { return u.RRType }

func (u Unknown) appendWire(b []byte, _ *compressor) ([]byte, error) {
	return append(b, u.Data...), nil
}

func (u Unknown) appendText(b []byte) []byte {
	b = strconv.AppendInt(append(b, `\# `...), int64(len(u.Data)), 10)
	return hex.AppendEncode(append(b, ' '), u.Data)
}

func (u Unknown) String() string { return string(u.appendText(nil)) }

// cloneBytes returns b as-is when the caller asked for shared (zero-copy)
// unpacking, or a fresh copy otherwise. Empty slices stay nil either way so
// round-trip comparisons are stable.
func cloneBytes(b []byte, shared bool) []byte {
	if len(b) == 0 {
		return nil
	}
	if shared {
		return b
	}
	return append([]byte(nil), b...)
}

// unpackRData decodes RDATA of the given type from msg[off:off+length].
// msg is the whole message so compressed names can be followed.
func unpackRData(u *unpacker, typ Type, msg []byte, off, length int, shared bool) (RData, error) {
	if off+length > len(msg) {
		return nil, errRDataTruncated
	}
	data := msg[off : off+length]
	switch typ {
	case TypeA:
		if length != 4 {
			return nil, fmt.Errorf("dnswire: A rdata length %d", length)
		}
		return A{Addr: netip.AddrFrom4([4]byte(data))}, nil
	case TypeAAAA:
		if length != 16 {
			return nil, fmt.Errorf("dnswire: AAAA rdata length %d", length)
		}
		return AAAA{Addr: netip.AddrFrom16([16]byte(data))}, nil
	case TypeNS:
		n, _, err := u.name(msg, off)
		return NS{Host: n}, err
	case TypeCNAME:
		n, _, err := u.name(msg, off)
		return CNAME{Target: n}, err
	case TypePTR:
		n, _, err := u.name(msg, off)
		return PTR{Target: n}, err
	case TypeSOA:
		mname, o, err := u.name(msg, off)
		if err != nil {
			return nil, err
		}
		rname, o, err := u.name(msg, o)
		if err != nil {
			return nil, err
		}
		if o+20 > off+length {
			return nil, errRDataTruncated
		}
		return SOA{
			MName:   mname,
			RName:   rname,
			Serial:  binary.BigEndian.Uint32(msg[o:]),
			Refresh: binary.BigEndian.Uint32(msg[o+4:]),
			Retry:   binary.BigEndian.Uint32(msg[o+8:]),
			Expire:  binary.BigEndian.Uint32(msg[o+12:]),
			Minimum: binary.BigEndian.Uint32(msg[o+16:]),
		}, nil
	case TypeMX:
		if length < 3 {
			return nil, errRDataTruncated
		}
		host, _, err := u.name(msg, off+2)
		return MX{Preference: binary.BigEndian.Uint16(data), Host: host}, err
	case TypeTXT:
		var txt TXT
		for i := 0; i < length; {
			n := int(data[i])
			if i+1+n > length {
				return nil, errRDataTruncated
			}
			txt.Strings = append(txt.Strings, string(data[i+1:i+1+n]))
			i += 1 + n
		}
		if len(txt.Strings) == 0 {
			return nil, errRDataTruncated
		}
		return txt, nil
	case TypeSRV:
		if length < 7 {
			return nil, errRDataTruncated
		}
		target, _, err := u.name(msg, off+6)
		return SRV{
			Priority: binary.BigEndian.Uint16(data),
			Weight:   binary.BigEndian.Uint16(data[2:]),
			Port:     binary.BigEndian.Uint16(data[4:]),
			Target:   target,
		}, err
	case TypeDS:
		if length < 4 {
			return nil, errRDataTruncated
		}
		return DS{
			KeyTag:     binary.BigEndian.Uint16(data),
			Algorithm:  data[2],
			DigestType: data[3],
			Digest:     cloneBytes(data[4:], shared),
		}, nil
	case TypeDNSKEY:
		if length < 4 {
			return nil, errRDataTruncated
		}
		return DNSKEY{
			Flags:     binary.BigEndian.Uint16(data),
			Protocol:  data[2],
			Algorithm: data[3],
			PublicKey: cloneBytes(data[4:], shared),
		}, nil
	case TypeRRSIG:
		if length < 18 {
			return nil, errRDataTruncated
		}
		signer, o, err := u.name(msg, off+18)
		if err != nil {
			return nil, err
		}
		if o > off+length {
			return nil, errRDataTruncated
		}
		return RRSIG{
			TypeCovered: Type(binary.BigEndian.Uint16(data)),
			Algorithm:   data[2],
			Labels:      data[3],
			OrigTTL:     binary.BigEndian.Uint32(data[4:]),
			Expiration:  binary.BigEndian.Uint32(data[8:]),
			Inception:   binary.BigEndian.Uint32(data[12:]),
			KeyTag:      binary.BigEndian.Uint16(data[16:]),
			SignerName:  signer,
			Signature:   cloneBytes(msg[o:off+length], shared),
		}, nil
	case TypeNSEC:
		next, o, err := u.name(msg, off)
		if err != nil {
			return nil, err
		}
		if o > off+length {
			return nil, errRDataTruncated
		}
		types, err := parseTypeBitmap(msg[o : off+length])
		if err != nil {
			return nil, err
		}
		return NSEC{NextName: next, Types: types}, nil
	case TypeZONEMD:
		if length < 6 {
			return nil, errRDataTruncated
		}
		return ZONEMD{
			Serial: binary.BigEndian.Uint32(data),
			Scheme: data[4],
			Hash:   data[5],
			Digest: cloneBytes(data[6:], shared),
		}, nil
	case TypeCAA:
		if length < 2 {
			return nil, errRDataTruncated
		}
		tagLen := int(data[1])
		if 2+tagLen > length {
			return nil, errRDataTruncated
		}
		return CAA{
			Flags: data[0],
			Tag:   string(data[2 : 2+tagLen]),
			Value: string(data[2+tagLen:]),
		}, nil
	case TypeOPT:
		var opt OPT
		for i := 0; i < length; {
			if i+4 > length {
				return nil, errRDataTruncated
			}
			code := binary.BigEndian.Uint16(data[i:])
			n := int(binary.BigEndian.Uint16(data[i+2:]))
			if i+4+n > length {
				return nil, errRDataTruncated
			}
			opt.Options = append(opt.Options, EDNSOption{
				Code: code,
				Data: cloneBytes(data[i+4:i+4+n], shared),
			})
			i += 4 + n
		}
		return opt, nil
	default:
		return Unknown{RRType: typ, Data: cloneBytes(data, shared)}, nil
	}
}
