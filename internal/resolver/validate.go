package resolver

// DNSSEC validation wiring. The validator package holds the chain state
// and judges responses; this file drives it from the resolution loop:
// fetching DNSKEY RRsets when a secure zone's keys are missing, feeding
// validated NSEC ranges to the aggressive cache, and counting outcomes.

import (
	"fmt"

	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// validateResponse judges one upstream response from cur.zone's servers
// to (sentName, sentType). It may issue a DNSKEY sub-query (sharing the
// resolution's budget, retry allowance, admission token, and trace) to
// establish the zone's keys first. The returned error explains a Bogus
// outcome.
func (r *Resolver) validateResponse(cur *delegation, sentName dnswire.Name, sentType dnswire.Type, resp *dnswire.Message, rs *resolution) (validator.Outcome, error) {
	v, tr := r.validator, rs.tr
	zone := cur.zone

	// A signed zone's data cannot be judged without its keys.
	if v.ZoneStatus(zone) == validator.ChainSecure && !v.HasKeys(zone) {
		if sentName == zone && sentType == dnswire.TypeDNSKEY {
			// This response IS the DNSKEY answer (a client asked for it):
			// chain it directly rather than re-fetching.
			if err := v.ValidateKeys(zone, resp.Answers); err != nil {
				return r.countOutcome(validator.Bogus, zone, tr, err)
			}
		} else if err := r.fetchKeys(cur, rs); err != nil {
			// No chain, no judgement: fail closed. A transient fetch
			// failure is indistinguishable from a stripped DNSKEY here.
			return r.countOutcome(validator.Bogus, zone, tr, err)
		}
	}

	vres := v.Validate(zone, sentName, sentType, resp)
	if r.cfg.NSECAggressive {
		// Every independently-verified denial range becomes ammunition
		// for RFC 8198 synthesis, whatever the overall verdict.
		for _, n := range vres.NSECs {
			r.cache.PutValidatedNSEC(n.Zone, n.Owner, n.NSEC, n.TTL)
		}
	}
	return r.countOutcome(vres.Outcome, zone, tr, vres.Err)
}

// fetchKeys issues the DNSKEY sub-query to the zone's servers and chains
// the answer to the trust anchor via the validator.
func (r *Resolver) fetchKeys(cur *delegation, rs *resolution) error {
	r.count(func(s *Stats) { inc(&s.DNSKEYFetches, 1) })
	if rs.tr != nil {
		rs.tr.Eventf("dnskey", "fetching %s DNSKEY to build the chain", cur.zone)
	}
	resp, err := r.queryZoneServers(cur, cur.zone, dnswire.TypeDNSKEY, rs)
	if err != nil {
		return fmt.Errorf("DNSKEY fetch for %s: %w", cur.zone, err)
	}
	return r.validator.ValidateKeys(cur.zone, resp.Answers)
}

// countOutcome tallies a validation verdict and emits the /tracez
// `bogus` event for failed ones.
func (r *Resolver) countOutcome(o validator.Outcome, zone dnswire.Name, tr *obs.Trace, cause error) (validator.Outcome, error) {
	switch o {
	case validator.Secure:
		r.count(func(s *Stats) { inc(&s.SecureAnswers, 1) })
	case validator.Insecure:
		r.count(func(s *Stats) { inc(&s.InsecureAnswers, 1) })
	case validator.Bogus:
		r.count(func(s *Stats) { inc(&s.BogusAnswers, 1) })
		if tr != nil {
			tr.Eventf("bogus", "zone=%s: %v", zone, cause)
		}
	default:
		r.count(func(s *Stats) { inc(&s.IndeterminateAnswers, 1) })
	}
	return o, cause
}
