package dnswire

import (
	"encoding/binary"
	"errors"
	"strconv"
)

// RR is a resource record: owner name, type/class/TTL metadata, and
// type-specific data.
type RR struct {
	Name  Name
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// NewRR builds an RR of class IN, deriving Type from the data.
func NewRR(name Name, ttl uint32, data RData) RR {
	return RR{Name: name, Type: data.Type(), Class: ClassINET, TTL: ttl, Data: data}
}

// String renders the record in zone-file presentation form.
func (rr RR) String() string {
	b := append(make([]byte, 0, 128), rr.Name...)
	b = strconv.AppendUint(append(b, '\t'), uint64(rr.TTL), 10)
	b = appendType(append(append(append(b, '\t'), rr.Class.String()...), '\t'), rr.Type)
	return string(appendText(append(b, '\t'), rr.Data))
}

// appendRR appends the record's wire encoding to b.
func appendRR(b []byte, rr RR, cmp *compressor) ([]byte, error) {
	if rr.Data == nil {
		return nil, errors.New("dnswire: RR with nil data")
	}
	var err error
	if b, err = appendName(b, rr.Name, cmp); err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint16(b, uint16(rr.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(rr.Class))
	b = binary.BigEndian.AppendUint32(b, rr.TTL)
	lenOff := len(b)
	b = append(b, 0, 0)
	if b, err = rr.Data.appendWire(b, cmp); err != nil {
		return nil, err
	}
	rdlen := len(b) - lenOff - 2
	if rdlen > 0xFFFF {
		return nil, errors.New("dnswire: rdata exceeds 65535 octets")
	}
	binary.BigEndian.PutUint16(b[lenOff:], uint16(rdlen))
	return b, nil
}

// unpackRR decodes one record from msg starting at off, returning the
// record and the offset just past it.
func unpackRR(u *unpacker, msg []byte, off int, shared bool) (RR, int, error) {
	name, off, err := u.name(msg, off)
	if err != nil {
		return RR{}, 0, err
	}
	if off+10 > len(msg) {
		return RR{}, 0, errRDataTruncated
	}
	rr := RR{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(msg[off:])),
		Class: Class(binary.BigEndian.Uint16(msg[off+2:])),
		TTL:   binary.BigEndian.Uint32(msg[off+4:]),
	}
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return RR{}, 0, errRDataTruncated
	}
	rr.Data, err = unpackRData(u, rr.Type, msg, off, rdlen, shared)
	if err != nil {
		return RR{}, 0, err
	}
	return rr, off + rdlen, nil
}

// AppendCanonicalWire appends the record's uncompressed wire form with the
// owner name lowercased, as required for DNSSEC signing (RFC 4034 §6), to
// b.
func (rr RR) AppendCanonicalWire(b []byte) ([]byte, error) {
	return appendRR(b, rr, nil)
}

// RRsetKey identifies an RRset: the (name, type, class) triple.
type RRsetKey struct {
	Name  Name
	Type  Type
	Class Class
}

// Key returns the record's RRset key.
func (rr RR) Key() RRsetKey {
	return RRsetKey{Name: rr.Name, Type: rr.Type, Class: rr.Class}
}

// GroupRRsets partitions records into RRsets, preserving first-seen order
// of the sets and record order within each set.
func GroupRRsets(rrs []RR) ([]RRsetKey, map[RRsetKey][]RR) {
	var order []RRsetKey
	sets := make(map[RRsetKey][]RR)
	for _, rr := range rrs {
		k := rr.Key()
		if _, ok := sets[k]; !ok {
			order = append(order, k)
		}
		sets[k] = append(sets[k], rr)
	}
	return order, sets
}

// maxScanRRsets is the longest section EachRRset groups by comparing
// records with one another; beyond it the quadratic scan gives way to
// GroupRRsets' map.
const maxScanRRsets = 64

// EachRRset calls fn with every RRset in rrs, in first-seen order, records
// in section order — what GroupRRsets yields, without building a map. A
// set whose records sit together, as in a DNS message they nearly always
// do, is passed as a subslice of rrs: fn must neither modify nor keep it.
func EachRRset(rrs []RR, fn func(set []RR)) {
	if len(rrs) > maxScanRRsets {
		order, sets := GroupRRsets(rrs)
		for _, k := range order {
			fn(sets[k])
		}
		return
	}
	for i := 0; i < len(rrs); {
		k := rrs[i].Key()
		seen := false
		for j := 0; j < i && !seen; j++ {
			seen = rrs[j].Key() == k
		}
		if seen { // a straggler of a set already passed on
			i++
			continue
		}
		end := i + 1
		for end < len(rrs) && rrs[end].Key() == k {
			end++
		}
		set := rrs[i:end:end]
		for j := end; j < len(rrs); j++ {
			if rrs[j].Key() == k {
				set = append(set, rrs[j]) // copies: the cap was clipped
			}
		}
		fn(set)
		i = end
	}
}
