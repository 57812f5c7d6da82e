// Package dnswire implements the DNS wire format (RFC 1035, RFC 3596,
// RFC 4034, RFC 6891) from scratch: domain names with message compression,
// resource records, and full message packing and unpacking.
//
// The package is the lowest substrate of the rootless system. Every other
// component — the zone store, the authoritative server, the recursive
// resolver, and the distribution machinery — speaks this format.
package dnswire

import (
	"fmt"
	"strconv"
)

// Type is a DNS resource record type (RFC 1035 §3.2.2 and successors).
type Type uint16

// Resource record types implemented by this package.
const (
	TypeNone   Type = 0
	TypeA      Type = 1
	TypeNS     Type = 2
	TypeCNAME  Type = 5
	TypeSOA    Type = 6
	TypePTR    Type = 12
	TypeMX     Type = 15
	TypeTXT    Type = 16
	TypeAAAA   Type = 28
	TypeSRV    Type = 33
	TypeOPT    Type = 41
	TypeDS     Type = 43
	TypeRRSIG  Type = 46
	TypeNSEC   Type = 47
	TypeDNSKEY Type = 48
	TypeZONEMD Type = 63
	TypeCAA    Type = 257

	// Query-only meta types.
	TypeIXFR Type = 251
	TypeAXFR Type = 252
	TypeANY  Type = 255
)

var typeNames = map[Type]string{
	TypeNone:   "NONE",
	TypeA:      "A",
	TypeNS:     "NS",
	TypeCNAME:  "CNAME",
	TypeSOA:    "SOA",
	TypePTR:    "PTR",
	TypeMX:     "MX",
	TypeTXT:    "TXT",
	TypeAAAA:   "AAAA",
	TypeSRV:    "SRV",
	TypeOPT:    "OPT",
	TypeDS:     "DS",
	TypeRRSIG:  "RRSIG",
	TypeNSEC:   "NSEC",
	TypeDNSKEY: "DNSKEY",
	TypeZONEMD: "ZONEMD",
	TypeCAA:    "CAA",
	TypeIXFR:   "IXFR",
	TypeAXFR:   "AXFR",
	TypeANY:    "ANY",
}

var typeValues = func() map[string]Type {
	m := make(map[string]Type, len(typeNames))
	for t, s := range typeNames {
		m[s] = t
	}
	return m
}()

// String returns the standard mnemonic for t, or the RFC 3597 TYPE###
// form for unknown types.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return "TYPE" + strconv.Itoa(int(t))
}

// appendType appends t as String spells it.
func appendType(b []byte, t Type) []byte {
	if s, ok := typeNames[t]; ok {
		return append(b, s...)
	}
	return strconv.AppendUint(append(b, "TYPE"...), uint64(t), 10)
}

// ParseType converts a type mnemonic (or RFC 3597 TYPE### form) to a Type.
func ParseType(s string) (Type, error) {
	if t, ok := typeValues[s]; ok {
		return t, nil
	}
	if len(s) > 4 && s[:4] == "TYPE" {
		n, err := strconv.ParseUint(s[4:], 10, 16)
		if err != nil {
			return 0, fmt.Errorf("dnswire: bad type %q", s)
		}
		return Type(n), nil
	}
	return 0, fmt.Errorf("dnswire: unknown type %q", s)
}

// Class is a DNS class (RFC 1035 §3.2.4).
type Class uint16

// DNS classes.
const (
	ClassINET Class = 1
	ClassCH   Class = 3
	ClassNONE Class = 254
	ClassANY  Class = 255
)

// String returns the standard mnemonic for c, or the RFC 3597 CLASS###
// form for unknown classes.
func (c Class) String() string {
	switch c {
	case ClassINET:
		return "IN"
	case ClassCH:
		return "CH"
	case ClassNONE:
		return "NONE"
	case ClassANY:
		return "ANY"
	}
	return "CLASS" + strconv.Itoa(int(c))
}

// ParseClass converts a class mnemonic to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "IN":
		return ClassINET, nil
	case "CH":
		return ClassCH, nil
	case "NONE":
		return ClassNONE, nil
	case "ANY":
		return ClassANY, nil
	}
	if len(s) > 5 && s[:5] == "CLASS" {
		n, err := strconv.ParseUint(s[5:], 10, 16)
		if err != nil {
			return 0, fmt.Errorf("dnswire: bad class %q", s)
		}
		return Class(n), nil
	}
	return 0, fmt.Errorf("dnswire: unknown class %q", s)
}

// Rcode is a DNS response code (RFC 1035 §4.1.1, RFC 2136).
type Rcode uint8

// Response codes.
const (
	RcodeSuccess  Rcode = 0 // NOERROR
	RcodeFormat   Rcode = 1 // FORMERR
	RcodeServFail Rcode = 2 // SERVFAIL
	RcodeNXDomain Rcode = 3 // NXDOMAIN
	RcodeNotImpl  Rcode = 4 // NOTIMP
	RcodeRefused  Rcode = 5 // REFUSED
	RcodeNotAuth  Rcode = 9 // NOTAUTH
)

// String returns the standard mnemonic for r.
func (r Rcode) String() string {
	switch r {
	case RcodeSuccess:
		return "NOERROR"
	case RcodeFormat:
		return "FORMERR"
	case RcodeServFail:
		return "SERVFAIL"
	case RcodeNXDomain:
		return "NXDOMAIN"
	case RcodeNotImpl:
		return "NOTIMP"
	case RcodeRefused:
		return "REFUSED"
	case RcodeNotAuth:
		return "NOTAUTH"
	}
	return "RCODE" + strconv.Itoa(int(r))
}

// Opcode is a DNS operation code (RFC 1035 §4.1.1).
type Opcode uint8

// Operation codes.
const (
	OpcodeQuery  Opcode = 0
	OpcodeStatus Opcode = 2
	OpcodeNotify Opcode = 4
	OpcodeUpdate Opcode = 5
)

// String returns the standard mnemonic for o.
func (o Opcode) String() string {
	switch o {
	case OpcodeQuery:
		return "QUERY"
	case OpcodeStatus:
		return "STATUS"
	case OpcodeNotify:
		return "NOTIFY"
	case OpcodeUpdate:
		return "UPDATE"
	}
	return "OPCODE" + strconv.Itoa(int(o))
}
