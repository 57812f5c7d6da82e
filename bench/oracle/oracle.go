// Package oracle decides whether a reply is right. Every reply gets the
// header check, which reads six bytes and allocates nothing; one reply
// in 64 is copied aside and, after the measured interval, unpacked and
// compared with what the zone or the upstream fabric says it must hold.
// A benchmark that only counts replies would score a server that answers
// everything with SERVFAIL as the fastest.
package oracle

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// SampleEvery is the share of replies kept for the content check.
const SampleEvery = 64

// Header reports whether reply is a well-formed answer header: a
// response to a standard query, not truncated, one question, and the
// expected rcode. The caller has already matched the ID.
func Header(reply []byte, want dnswire.Rcode) bool {
	if len(reply) < 12 {
		return false
	}
	const qr, opcode, tc = 0x80, 0x78, 0x02
	return reply[2]&qr != 0 && reply[2]&opcode == 0 && reply[2]&tc == 0 &&
		dnswire.Rcode(reply[3]&0x0f) == want &&
		reply[4] == 0 && reply[5] == 1
}

// Sample is one reply kept for the content check.
type Sample struct {
	Tag  uint32
	Seq  uint64
	Wire []byte
}

// Sampler copies sampled replies into memory reserved up front, so that
// keeping them costs the measured interval neither an allocation nor
// the unpack; Each replays them afterwards.
type Sampler struct {
	arena   []byte
	samples []Sample
	// Skipped counts the samples dropped since the last Each because
	// the arena was full: content checks that were not made.
	Skipped int
}

// NewSampler reserves room for count samples of up to size bytes.
func NewSampler(count, size int) *Sampler {
	return &Sampler{arena: make([]byte, 0, count*size), samples: make([]Sample, 0, count)}
}

// Add keeps a copy of reply. It has the signature driver.Phase.Sample wants.
func (s *Sampler) Add(tag uint32, seq uint64, reply []byte) {
	if len(s.samples) == cap(s.samples) || len(s.arena)+len(reply) > cap(s.arena) {
		s.Skipped++
		return
	}
	start := len(s.arena)
	s.arena = append(s.arena, reply...)
	s.samples = append(s.samples, Sample{Tag: tag, Seq: seq, Wire: s.arena[start:len(s.arena):len(s.arena)]})
}

// Len is the number of samples held.
func (s *Sampler) Len() int { return len(s.samples) }

// Each unpacks every sample and hands it to check, returns how many
// check refused together with the first refusal, and empties the sampler.
func (s *Sampler) Each(check func(Sample, *dnswire.Message) error) (rejected int, first error) {
	for _, smp := range s.samples {
		var m dnswire.Message
		err := m.Unpack(smp.Wire)
		if err == nil {
			err = check(smp, &m)
		}
		if err != nil {
			rejected++
			if first == nil {
				first = fmt.Errorf("oracle: query %d: %w", smp.Seq, err)
			}
		}
	}
	s.arena, s.samples, s.Skipped = s.arena[:0], s.samples[:0], 0
	return rejected, first
}

// Auth checks an authoritative reply against the zone it was served
// from. The rcode, the AA bit and the NS set of a referral must equal
// what zone.Query gives for the question. With exact, the answer RRset
// must match record for record; without it (the zone is being replaced
// while the reply is in flight) only its names and types must. With do,
// an NXDOMAIN must carry an NSEC that covers the name and the RRSIG
// over that NSEC.
func Auth(z *zone.Zone, m *dnswire.Message, do, exact bool) error {
	if len(m.Questions) != 1 {
		return errors.New("reply does not echo one question")
	}
	q := m.Questions[0]
	want := z.Query(q.Name, q.Type)
	if m.Rcode != want.Rcode {
		return fmt.Errorf("%s: rcode %s, zone says %s", q, m.Rcode, want.Rcode)
	}
	if m.Authoritative != want.Authoritative {
		return fmt.Errorf("%s: AA %v, zone says %v", q, m.Authoritative, want.Authoritative)
	}
	if got, exp := rrStrings(m.Answers, exact), rrStrings(want.Answer, exact); !slices.Equal(got, exp) {
		return fmt.Errorf("%s: answer %v, zone says %v", q, got, exp)
	}
	if got, exp := nsHosts(m.Authority), nsHosts(want.Authority); !slices.Equal(got, exp) {
		return fmt.Errorf("%s: referral NS set %v, zone says %v", q, got, exp)
	}
	if !do || m.Rcode != dnswire.RcodeNXDomain {
		return nil
	}
	for _, rr := range m.Authority {
		nsec, ok := rr.Data.(dnswire.NSEC)
		if !ok || !covers(rr.Name, nsec.NextName, q.Name) {
			continue
		}
		for _, sig := range m.Authority {
			if s, ok := sig.Data.(dnswire.RRSIG); ok && sig.Name == rr.Name && s.TypeCovered == dnswire.TypeNSEC {
				return nil
			}
		}
		return fmt.Errorf("%s: covering NSEC %s is unsigned", q, rr.Name)
	}
	return fmt.Errorf("%s: NXDOMAIN without a covering NSEC", q)
}

// Resolved checks a recursive reply for a name the upstream fabric
// serves: a NOERROR answer whose A record for the name is the address
// addrFor derives from it.
func Resolved(m *dnswire.Message, addrFor func(dnswire.Name) netip.Addr) error {
	if len(m.Questions) != 1 {
		return errors.New("reply does not echo one question")
	}
	q := m.Questions[0]
	want := addrFor(q.Name)
	if m.Rcode != dnswire.RcodeSuccess {
		return fmt.Errorf("%s: rcode %s", q, m.Rcode)
	}
	for _, rr := range m.Answers {
		if a, ok := rr.Data.(dnswire.A); ok && rr.Name == q.Name {
			if a.Addr != want {
				return fmt.Errorf("%s: A %s, fabric serves %s", q, a.Addr, want)
			}
			return nil
		}
	}
	return fmt.Errorf("%s: no A record in %d answers", q, len(m.Answers))
}

// Denied checks a recursive reply for a name under no TLD.
func Denied(m *dnswire.Message) error {
	if m.Rcode != dnswire.RcodeNXDomain || len(m.Answers) != 0 {
		return fmt.Errorf("junk name answered %s with %d records", m.Rcode, len(m.Answers))
	}
	return nil
}

// covers reports whether name falls strictly inside the NSEC range
// (owner, next), the last range of the chain wrapping to the apex.
func covers(owner, next, name dnswire.Name) bool {
	if owner.Compare(name) >= 0 {
		return false
	}
	return name.Compare(next) < 0 || next.Compare(owner) <= 0
}

// rrStrings renders the non-DNSSEC records of a section for comparison,
// in full or as name and type only.
func rrStrings(rrs []dnswire.RR, full bool) []string {
	var out []string
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeRRSIG {
			continue
		}
		if full {
			out = append(out, fmt.Sprintf("%s %s %s", rr.Name, rr.Type, rr.Data))
		} else {
			out = append(out, fmt.Sprintf("%s %s", rr.Name, rr.Type))
		}
	}
	sort.Strings(out)
	return out
}

func nsHosts(rrs []dnswire.RR) []string {
	var out []string
	for _, rr := range rrs {
		if ns, ok := rr.Data.(dnswire.NS); ok {
			out = append(out, string(rr.Name)+" "+string(ns.Host))
		}
	}
	sort.Strings(out)
	return out
}
