package authserver

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// IXFR (RFC 1995) gives the DNS-native counterpart of the signed delta
// chain (dist.DeltaBundle): a client holding serial N asks the server for just
// the changes up to the current serial. The server keeps a bounded
// journal of recent zone versions to serve deltas from; requests older
// than the journal fall back to a full AXFR-style response, exactly as
// the RFC specifies.

// ixfrJournal remembers recent zone versions for delta service.
type ixfrJournal struct {
	mu       sync.Mutex
	window   int
	versions []*zone.Zone // oldest first; last is current
}

func newIXFRJournal(window int) *ixfrJournal {
	if window <= 0 {
		window = 8
	}
	return &ixfrJournal{window: window}
}

func (j *ixfrJournal) push(z *zone.Zone) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n := len(j.versions); n > 0 && j.versions[n-1].Serial() == z.Serial() {
		j.versions[n-1] = z
		return
	}
	j.versions = append(j.versions, z)
	if len(j.versions) > j.window {
		j.versions = j.versions[len(j.versions)-j.window:]
	}
}

// find returns the journal entry with the given serial, or nil.
func (j *ixfrJournal) find(serial uint32) *zone.Zone {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, z := range j.versions {
		if z.Serial() == serial {
			return z
		}
	}
	return nil
}

// EnableIXFR turns on journaling; every SetZone after this point records
// the version for delta service. Keeps up to window versions.
func (s *Server) EnableIXFR(window int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = newIXFRJournal(window)
	if z := s.zone.Load(); z != nil {
		s.journal.push(z)
	}
}

// ixfrDiff computes the deleted/added RRsets between two versions in
// IXFR stream order: oldSOA, deletions, newSOA, additions.
func ixfrDiff(old, new *zone.Zone) (deleted, added []dnswire.RR) {
	// only appends the records of have that want lacks, the apex SOA aside.
	only := func(out, have, want []dnswire.RR) []dnswire.RR {
		in := make(map[string]bool, len(want))
		for _, rr := range want {
			in[rr.String()] = true
		}
		for _, rr := range have {
			if rr.Type == dnswire.TypeSOA && rr.Name == new.Origin {
				continue
			}
			if !in[rr.String()] {
				out = append(out, rr)
			}
		}
		return out
	}
	zone.DiffOwners(old, new, func(_ dnswire.Name, was, now []dnswire.RR) {
		deleted = only(deleted, was, now)
		added = only(added, now, was)
	})
	return deleted, added
}

// streamIXFR answers an IXFR question over TCP. The client's current
// serial arrives in the authority section's SOA (RFC 1995 §3).
func (s *Server) streamIXFR(w io.Writer, q *dnswire.Message) error {
	z := s.Zone()
	if q.Questions[0].Name != z.Origin {
		return WriteTCPMessage(w, &dnswire.Message{
			ID: q.ID, Response: true, Rcode: dnswire.RcodeNotAuth, Questions: q.Questions})
	}
	curSOA, ok := z.SOA()
	if !ok {
		return WriteTCPMessage(w, &dnswire.Message{
			ID: q.ID, Response: true, Rcode: dnswire.RcodeServFail, Questions: q.Questions})
	}

	var clientSerial uint32
	haveSerial := false
	for _, rr := range q.Authority {
		if soa, okSOA := rr.Data.(dnswire.SOA); okSOA {
			clientSerial = soa.Serial
			haveSerial = true
		}
	}

	// Up to date: single-SOA response.
	if haveSerial && clientSerial == z.Serial() {
		return WriteTCPMessage(w, &dnswire.Message{
			ID: q.ID, Response: true, Authoritative: true,
			Questions: q.Questions, Answers: []dnswire.RR{curSOA}})
	}

	s.mu.Lock()
	journal := s.journal
	s.mu.Unlock()
	var oldZone *zone.Zone
	if haveSerial && journal != nil {
		oldZone = journal.find(clientSerial)
	}
	if oldZone == nil {
		// Serial outside the journal: full zone, AXFR-style (RFC 1995 §4).
		return s.streamAXFR(w, q)
	}

	oldSOA, _ := oldZone.SOA()
	deleted, added := ixfrDiff(oldZone, z)
	var answers []dnswire.RR
	answers = append(answers, curSOA, oldSOA)
	answers = append(answers, deleted...)
	answers = append(answers, curSOA)
	answers = append(answers, added...)
	answers = append(answers, curSOA)

	// Batch into messages.
	const batch = 100
	for off := 0; off < len(answers); off += batch {
		end := off + batch
		if end > len(answers) {
			end = len(answers)
		}
		m := &dnswire.Message{ID: q.ID, Response: true, Authoritative: true,
			Questions: q.Questions, Answers: answers[off:end]}
		if err := WriteTCPMessage(w, m); err != nil {
			return err
		}
	}
	return nil
}

// IXFR fetches the changes from a client-held zone copy to the server's
// current version over TCP, applies them, and returns the updated zone.
// If the server answers with a full transfer, that zone is returned
// instead. The returned bool reports whether the reply was incremental.
func IXFR(addr string, have *zone.Zone) (*zone.Zone, bool, error) {
	conn, err := dialTCP(addr)
	if err != nil {
		return nil, false, err
	}
	defer conn.Close()

	haveSOA, ok := have.SOA()
	if !ok {
		return nil, false, errors.New("authserver: IXFR requires a zone with a SOA")
	}
	q := &dnswire.Message{
		ID:        2,
		Opcode:    dnswire.OpcodeQuery,
		Questions: []dnswire.Question{{Name: have.Origin, Type: dnswire.TypeIXFR, Class: dnswire.ClassINET}},
		Authority: []dnswire.RR{haveSOA},
	}
	if err := WriteTCPMessage(conn, q); err != nil {
		return nil, false, err
	}

	// Collect the full answer stream first (bounded by the SOA grammar).
	var answers []dnswire.RR
	for {
		m, err := ReadTCPMessage(conn)
		if err != nil {
			return nil, false, fmt.Errorf("authserver: IXFR stream: %w", err)
		}
		if m.Rcode != dnswire.RcodeSuccess {
			return nil, false, fmt.Errorf("authserver: IXFR refused: %s", m.Rcode)
		}
		answers = append(answers, m.Answers...)
		if done, err := ixfrStreamComplete(answers, have.Origin); err != nil {
			return nil, false, err
		} else if done {
			break
		}
	}
	return applyIXFR(have, answers)
}

// ixfrStreamComplete decides whether the collected answers form a
// complete IXFR/AXFR response. An incremental reply carries the current
// SOA three times (opening, before additions, closing); a full transfer
// carries it twice (bracketing); an up-to-date reply carries it once and
// nothing else.
func ixfrStreamComplete(answers []dnswire.RR, origin dnswire.Name) (bool, error) {
	if len(answers) == 0 {
		return false, nil
	}
	first, ok := answers[0].Data.(dnswire.SOA)
	if !ok || answers[0].Name != origin {
		return false, errors.New("authserver: IXFR reply does not start with SOA")
	}
	if len(answers) == 1 {
		// Up-to-date single-SOA form (our server never splits smaller).
		return true, nil
	}
	curSOAs := 0
	for _, rr := range answers {
		if soa, isSOA := rr.Data.(dnswire.SOA); isSOA && rr.Name == origin && soa.Serial == first.Serial {
			curSOAs++
		}
	}
	incremental := false
	if soa, isSOA := answers[1].Data.(dnswire.SOA); isSOA && answers[1].Name == origin && soa.Serial != first.Serial {
		incremental = true
	}
	last := answers[len(answers)-1]
	lastSOA, isSOA := last.Data.(dnswire.SOA)
	if !isSOA || last.Name != origin || lastSOA.Serial != first.Serial {
		return false, nil
	}
	if incremental {
		return curSOAs >= 3, nil
	}
	return curSOAs >= 2, nil
}

// applyIXFR interprets an IXFR answer stream against the held zone.
func applyIXFR(have *zone.Zone, answers []dnswire.RR) (*zone.Zone, bool, error) {
	origin := have.Origin
	if len(answers) == 0 {
		return nil, false, errors.New("authserver: empty IXFR reply")
	}
	firstSOA := answers[0]
	if len(answers) == 1 {
		// Up to date.
		return have, true, nil
	}
	// AXFR-style: second record is not a SOA.
	if _, isSOA := answers[1].Data.(dnswire.SOA); !isSOA || answers[1].Name != origin {
		full := zone.New(origin)
		if err := full.Add(firstSOA); err != nil {
			return nil, false, err
		}
		for _, rr := range answers[1 : len(answers)-1] {
			if err := full.Add(rr); err != nil {
				return nil, false, err
			}
		}
		return full, false, nil
	}

	// Incremental: SOA(new) SOA(old) del... SOA(new) add... SOA(new).
	updated := have.Clone()
	updated.Remove(origin, dnswire.TypeSOA)
	deleting := true
	for _, rr := range answers[2 : len(answers)-1] {
		if soa, isSOA := rr.Data.(dnswire.SOA); isSOA && rr.Name == origin {
			_ = soa
			deleting = false
			continue
		}
		if deleting {
			removeRR(updated, rr)
		} else {
			if err := updated.Add(rr); err != nil {
				return nil, false, err
			}
		}
	}
	if err := updated.Add(firstSOA); err != nil {
		return nil, false, err
	}
	return updated, true, nil
}

// removeRR deletes one specific record (by rdata) from a zone.
func removeRR(z *zone.Zone, rr dnswire.RR) {
	existing := z.Lookup(rr.Name, rr.Type)
	z.Remove(rr.Name, rr.Type)
	for _, e := range existing {
		if e.Data.String() != rr.Data.String() {
			_ = z.Add(e)
		}
	}
}
