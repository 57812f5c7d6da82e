// Package dnssec implements the subset of DNSSEC (RFC 4033–4035) the
// rootless system needs: Ed25519 (algorithm 15, RFC 8080) key pairs with
// the KSK/ZSK split used for the root, RRset signing and verification in
// canonical form, whole-zone signing and validation, DS generation for the
// parent, and the paper's "sign the entire root zone file" optimisation as
// a ZONEMD-style digest covered by a single RRSIG.
package dnssec

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// Errors returned by verification.
var (
	ErrNoDNSKEY      = errors.New("dnssec: no DNSKEY matches the signature")
	ErrBadSignature  = errors.New("dnssec: signature verification failed")
	ErrSigExpired    = errors.New("dnssec: signature expired")
	ErrSigNotYet     = errors.New("dnssec: signature not yet valid")
	ErrNoRRSIG       = errors.New("dnssec: rrset has no covering RRSIG")
	ErrDigestMissing = errors.New("dnssec: zone has no ZONEMD digest")
	ErrDigestWrong   = errors.New("dnssec: zone digest mismatch")
	ErrDSMismatch    = errors.New("dnssec: DNSKEY does not match DS")
	ErrNSECChain     = errors.New("dnssec: NSEC chain broken")
)

// Key is a DNSSEC signing key: the private half plus its public DNSKEY RR.
type Key struct {
	Owner   dnswire.Name
	Private ed25519.PrivateKey
	DNSKEY  dnswire.DNSKEY
}

// GenerateKey creates an Ed25519 key for owner. If sep is true the key is
// a KSK (SEP bit set); otherwise a ZSK.
func GenerateKey(owner dnswire.Name, sep bool, rnd io.Reader) (*Key, error) {
	pub, priv, err := ed25519.GenerateKey(rnd)
	if err != nil {
		return nil, err
	}
	flags := uint16(dnswire.DNSKEYFlagZone)
	if sep {
		flags |= dnswire.DNSKEYFlagSEP
	}
	return &Key{
		Owner:   owner,
		Private: priv,
		DNSKEY: dnswire.DNSKEY{
			Flags:     flags,
			Protocol:  3,
			Algorithm: dnswire.AlgEd25519,
			PublicKey: []byte(pub),
		},
	}, nil
}

// KeyTag returns the key's RFC 4034 tag.
func (k *Key) KeyTag() uint16 { return k.DNSKEY.KeyTag() }

// Revoked returns a copy of the key with the RFC 5011 revocation bit set.
// The revoked form has a different key tag; publishing it — and signing the
// DNSKEY RRset with it — proves possession and tells trust-anchor stores to
// permanently distrust the key.
func (k *Key) Revoked() *Key {
	rk := *k
	rk.DNSKEY.Flags |= dnswire.DNSKEYFlagRevoke
	rk.DNSKEY.PublicKey = append([]byte(nil), k.DNSKEY.PublicKey...)
	return &rk
}

// DNSKEYRecord returns the key's DNSKEY RR with the given TTL.
func (k *Key) DNSKEYRecord(ttl uint32) dnswire.RR {
	return dnswire.NewRR(k.Owner, ttl, k.DNSKEY)
}

// DS returns the delegation-signer record for the key (SHA-256 digest),
// suitable for publication in the parent zone — or, for a root KSK, as the
// trust anchor.
func (k *Key) DS(ttl uint32) dnswire.RR {
	return dnswire.NewRR(k.Owner, ttl, AnchorDS(k.Owner, k.DNSKEY))
}

// AnchorDS derives the DS form of a public DNSKEY (SHA-256 digest) — what
// a resolver computes from a trust-anchor file holding the root KSK.
func AnchorDS(owner dnswire.Name, key dnswire.DNSKEY) dnswire.DS {
	return dnswire.DS{
		KeyTag:     key.KeyTag(),
		Algorithm:  key.Algorithm,
		DigestType: 2, // SHA-256
		Digest:     dsDigest(owner, key),
	}
}

func dsDigest(owner dnswire.Name, key dnswire.DNSKEY) []byte {
	h := sha256.New()
	wire, _ := dnswire.NewRR(owner, 0, key).AppendCanonicalWire(nil)
	// DS digest input is owner name + DNSKEY RDATA; our canonical wire is
	// name + type + class + ttl + rdlen + rdata, so slice out the rdata.
	nameLen := owner.WireLen()
	h.Write(wire[:nameLen])
	h.Write(wire[nameLen+10:])
	return h.Sum(nil)
}

// VerifyDS checks that a DNSKEY matches a DS record.
func VerifyDS(owner dnswire.Name, key dnswire.DNSKEY, ds dnswire.DS) error {
	if key.KeyTag() != ds.KeyTag || key.Algorithm != ds.Algorithm {
		return ErrDSMismatch
	}
	if !bytes.Equal(dsDigest(owner, key), ds.Digest) {
		return ErrDSMismatch
	}
	return nil
}

// sigData builds the RFC 4034 §3.1.8.1 "signature data": the RRSIG RDATA
// with the Signature field omitted, followed by the canonical RRset.
func sigData(sig dnswire.RRSIG, rrset []dnswire.RR) ([]byte, error) {
	if len(rrset) == 0 {
		return nil, errors.New("dnssec: empty rrset")
	}
	var b []byte
	b = binary.BigEndian.AppendUint16(b, uint16(sig.TypeCovered))
	b = append(b, sig.Algorithm, sig.Labels)
	b = binary.BigEndian.AppendUint32(b, sig.OrigTTL)
	b = binary.BigEndian.AppendUint32(b, sig.Expiration)
	b = binary.BigEndian.AppendUint32(b, sig.Inception)
	b = binary.BigEndian.AppendUint16(b, sig.KeyTag)
	var err error
	if b, err = appendCanonicalName(b, sig.SignerName); err != nil {
		return nil, err
	}

	// Canonical RRset: TTLs set to OrigTTL, records sorted by RDATA.
	canon := make([]dnswire.RR, len(rrset))
	copy(canon, rrset)
	for i := range canon {
		canon[i].TTL = sig.OrigTTL
	}
	wires := make([][]byte, len(canon))
	for i, rr := range canon {
		w, err := rr.AppendCanonicalWire(nil)
		if err != nil {
			return nil, err
		}
		wires[i] = w
	}
	sort.Slice(wires, func(i, j int) bool { return bytes.Compare(wires[i], wires[j]) < 0 })
	for _, w := range wires {
		b = append(b, w...)
	}
	return b, nil
}

func appendCanonicalName(b []byte, n dnswire.Name) ([]byte, error) {
	rr := dnswire.NewRR(n, 0, dnswire.NS{Host: n})
	w, err := rr.AppendCanonicalWire(nil)
	if err != nil {
		return nil, err
	}
	return append(b, w[:n.WireLen()]...), nil
}

// SignRRset signs an RRset, producing its RRSIG record. All records must
// share the same name, type and TTL.
func SignRRset(key *Key, rrset []dnswire.RR, inception, expiration time.Time) (dnswire.RR, error) {
	if len(rrset) == 0 {
		return dnswire.RR{}, errors.New("dnssec: empty rrset")
	}
	first := rrset[0]
	for _, rr := range rrset[1:] {
		if rr.Name != first.Name || rr.Type != first.Type {
			return dnswire.RR{}, errors.New("dnssec: mixed rrset")
		}
	}
	sig := dnswire.RRSIG{
		TypeCovered: first.Type,
		Algorithm:   key.DNSKEY.Algorithm,
		Labels:      uint8(first.Name.LabelCount()),
		OrigTTL:     first.TTL,
		Expiration:  uint32(expiration.Unix()),
		Inception:   uint32(inception.Unix()),
		KeyTag:      key.KeyTag(),
		SignerName:  key.Owner,
	}
	data, err := sigData(sig, rrset)
	if err != nil {
		return dnswire.RR{}, err
	}
	sig.Signature = ed25519.Sign(key.Private, data)
	return dnswire.NewRR(first.Name, first.TTL, sig), nil
}

// VerifyRRset checks an RRSIG over an RRset against a set of candidate
// DNSKEYs at the signer name. The validity window is exact: a signature is
// accepted at its inception and expiration instants inclusive, with no
// skew allowance.
func VerifyRRset(rrset []dnswire.RR, sigRR dnswire.RR, keys []dnswire.DNSKEY, now time.Time) error {
	return VerifyRRsetSkew(rrset, sigRR, keys, now, 0)
}

// VerifyRRsetSkew is VerifyRRset with a bounded clock-skew tolerance: the
// signature window is widened by skew on both ends, so a resolver whose
// clock is up to skew fast still accepts a just-inscribed signature and
// one up to skew slow still accepts a just-expired one (RFC 4035 §5.3.1
// leaves the tolerance to local policy).
func VerifyRRsetSkew(rrset []dnswire.RR, sigRR dnswire.RR, keys []dnswire.DNSKEY, now time.Time, skew time.Duration) error {
	sig, ok := sigRR.Data.(dnswire.RRSIG)
	if !ok {
		return errors.New("dnssec: not an RRSIG record")
	}
	if skew < 0 {
		skew = 0
	}
	s := int64(skew / time.Second)
	if now.Unix()-s > int64(sig.Expiration) {
		return ErrSigExpired
	}
	if now.Unix()+s < int64(sig.Inception) {
		return ErrSigNotYet
	}
	data, err := sigData(sig, rrset)
	if err != nil {
		return err
	}
	for _, key := range keys {
		if key.Algorithm != sig.Algorithm || key.KeyTag() != sig.KeyTag {
			continue
		}
		if len(key.PublicKey) != ed25519.PublicKeySize {
			continue
		}
		if ed25519.Verify(ed25519.PublicKey(key.PublicKey), data, sig.Signature) {
			return nil
		}
		return ErrBadSignature
	}
	return ErrNoDNSKEY
}

// Signer signs whole zones with a KSK/ZSK pair, mirroring root-zone
// operational practice: the KSK signs only the DNSKEY RRset; the ZSK signs
// everything else.
type Signer struct {
	KSK *Key
	ZSK *Key
	// Validity is the signature lifetime; inception is backdated one hour
	// to tolerate clock skew.
	Validity time.Duration
	// Quantize, when non-zero, staggers per-RRset inception times onto a
	// fixed grid (jittered per RRset) so that re-signing the same zone on
	// consecutive days reproduces most signatures byte-for-byte — real
	// zone publishers re-sign incrementally for exactly this reason, and
	// the signed delta chain depends on it. Validity must be
	// at least 2×Quantize.
	Quantize time.Duration
	// AddNSEC generates the authenticated-denial chain (an NSEC record
	// per authoritative owner name), as the real root zone carries.
	AddNSEC bool
	// ExtraDNSKEYs are additional public keys published in the apex DNSKEY
	// RRset without signing anything — the RFC 5011 pre-publish phase of a
	// KSK rollover (the incoming key sits in the zone through its
	// add-hold-down period before it signs).
	ExtraDNSKEYs []dnswire.DNSKEY
	// ExtraKSKSigners also sign the DNSKEY RRset alongside KSK. A revoked
	// key must prove possession by signing the RRset that revokes it
	// (RFC 5011 §2.1), and a dual-anchor overlap window wants the RRset
	// signed by both the outgoing and incoming KSK.
	ExtraKSKSigners []*Key
}

// NewSigner generates a fresh KSK/ZSK pair for owner.
func NewSigner(owner dnswire.Name, rnd io.Reader) (*Signer, error) {
	ksk, err := GenerateKey(owner, true, rnd)
	if err != nil {
		return nil, err
	}
	zsk, err := GenerateKey(owner, false, rnd)
	if err != nil {
		return nil, err
	}
	return &Signer{KSK: ksk, ZSK: zsk, Validity: 14 * 24 * time.Hour}, nil
}

// TrustAnchor returns the DS-form trust anchor for the signer's KSK.
func (s *Signer) TrustAnchor() dnswire.DS {
	return s.KSK.DS(172800).Data.(dnswire.DS)
}

// validityFor computes an RRset's (inception, expiration). Without
// quantization every signature starts one hour before now; with it, each
// RRset gets a stable per-set slot so consecutive signings mostly agree.
func (s *Signer) validityFor(key dnswire.RRsetKey, now time.Time) (time.Time, time.Time) {
	if s.Quantize <= 0 {
		return now.Add(-time.Hour), now.Add(s.Validity)
	}
	q := int64(s.Quantize / time.Second)
	jitter := int64(keyJitter(key) % uint64(q))
	sec := now.Unix()
	slot := (sec+jitter)/q*q - jitter
	inception := time.Unix(slot, 0)
	return inception, inception.Add(s.Validity)
}

func keyJitter(key dnswire.RRsetKey) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(string(key.Name)) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return (h ^ uint64(key.Type)) * 1099511628211
}

// SignZone signs every RRset in z in place: it installs the DNSKEY RRset,
// optionally an NSEC chain, a ZONEMD digest record, and RRSIGs. DS RRsets
// below the apex (delegation DS) are signed; NS RRsets below the apex are
// delegations and are not.
func (s *Signer) SignZone(z *zone.Zone, now time.Time) error {
	apex := z.Origin
	if s.Quantize > 0 && s.Validity < 2*s.Quantize {
		return fmt.Errorf("dnssec: Validity %v must be at least twice Quantize %v", s.Validity, s.Quantize)
	}

	// Remove any prior DNSSEC material so re-signing is idempotent.
	for _, name := range z.Names() {
		z.Remove(name, dnswire.TypeRRSIG)
		z.Remove(name, dnswire.TypeNSEC)
	}
	z.Remove(apex, dnswire.TypeDNSKEY)
	z.Remove(apex, dnswire.TypeZONEMD)

	keyTTL := uint32(172800)
	if err := z.Add(s.KSK.DNSKEYRecord(keyTTL)); err != nil {
		return err
	}
	if err := z.Add(s.ZSK.DNSKEYRecord(keyTTL)); err != nil {
		return err
	}
	for _, xk := range s.ExtraDNSKEYs {
		if err := z.Add(dnswire.NewRR(apex, keyTTL, xk)); err != nil {
			return err
		}
	}
	if s.AddNSEC {
		if err := s.addNSECChain(z); err != nil {
			return err
		}
	}

	_, sets := dnswire.GroupRRsets(z.Records())
	for key, rrset := range sets {
		if key.Type == dnswire.TypeRRSIG {
			continue
		}
		// Delegation NS sets (and their glue) are not authoritative data.
		if key.Name != apex {
			if key.Type == dnswire.TypeNS {
				continue
			}
			if isGlue(z, key.Name, key.Type) {
				continue
			}
		}
		signer := s.ZSK
		if key.Type == dnswire.TypeDNSKEY {
			signer = s.KSK
		}
		inception, expiration := s.validityFor(key, now)
		sigRR, err := SignRRset(signer, rrset, inception, expiration)
		if err != nil {
			return fmt.Errorf("dnssec: signing %s/%s: %w", key.Name, key.Type, err)
		}
		if err := z.Add(sigRR); err != nil {
			return err
		}
		if key.Type == dnswire.TypeDNSKEY {
			for _, extra := range s.ExtraKSKSigners {
				xSig, err := SignRRset(extra, rrset, inception, expiration)
				if err != nil {
					return fmt.Errorf("dnssec: extra DNSKEY signer: %w", err)
				}
				if err := z.Add(xSig); err != nil {
					return err
				}
			}
		}
	}

	// The ZONEMD digest covers the fully-signed zone minus the ZONEMD
	// RRset and its own RRSIG (RFC 8976 §3.1), so it goes in last.
	digest := ZoneDigest(z)
	zmd := dnswire.NewRR(apex, 86400, dnswire.ZONEMD{
		Serial: z.Serial(),
		Scheme: dnswire.ZONEMDSchemeSimple,
		Hash:   dnswire.ZONEMDHashSHA256,
		Digest: digest,
	})
	if err := z.Add(zmd); err != nil {
		return err
	}
	zmdInc, zmdExp := s.validityFor(zmd.Key(), now)
	zmdSig, err := SignRRset(s.ZSK, []dnswire.RR{zmd}, zmdInc, zmdExp)
	if err != nil {
		return err
	}
	return z.Add(zmdSig)
}

// addNSECChain links every authoritative owner name (the apex plus each
// delegation point — glue-only names carry no NSEC, per real root zone
// practice) into the canonical-order denial chain.
func (s *Signer) addNSECChain(z *zone.Zone) error {
	apex := z.Origin
	var owners []dnswire.Name
	isDelegation := make(map[dnswire.Name]bool)
	for _, name := range z.Names() {
		if name == apex {
			owners = append(owners, name)
			continue
		}
		if len(z.Lookup(name, dnswire.TypeNS)) > 0 {
			owners = append(owners, name)
			isDelegation[name] = true
		}
	}
	if len(owners) == 0 {
		return nil
	}
	for i, name := range owners {
		next := owners[(i+1)%len(owners)]
		var types []dnswire.Type
		if name == apex {
			for _, rr := range z.LookupAll(name) {
				types = append(types, rr.Type)
			}
			types = append(types, dnswire.TypeNSEC, dnswire.TypeRRSIG)
		} else {
			types = []dnswire.Type{dnswire.TypeNS, dnswire.TypeNSEC, dnswire.TypeRRSIG}
			if len(z.Lookup(name, dnswire.TypeDS)) > 0 {
				types = append(types, dnswire.TypeDS)
			}
		}
		if err := z.Add(dnswire.NewRR(name, 86400, dnswire.NSEC{
			NextName: next,
			Types:    dedupTypes(types),
		})); err != nil {
			return err
		}
	}
	return nil
}

func dedupTypes(types []dnswire.Type) []dnswire.Type {
	seen := make(map[dnswire.Type]bool, len(types))
	out := types[:0]
	for _, t := range types {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// isGlue reports whether (name, typ) is a glue address RRset: an A/AAAA
// set at or below a delegation cut.
func isGlue(z *zone.Zone, name dnswire.Name, typ dnswire.Type) bool {
	if typ != dnswire.TypeA && typ != dnswire.TypeAAAA {
		return false
	}
	for n := name; !n.IsRoot() && n != z.Origin; n = n.Parent() {
		if len(z.Lookup(n, dnswire.TypeNS)) > 0 && n != z.Origin {
			return true
		}
	}
	return false
}

// ZoneDigest computes the SHA-256 digest over the zone's canonical records,
// excluding the apex ZONEMD record itself and its RRSIG (RFC 8976 §3.1).
// Each record's wire form is written into one buffer the walk reuses.
func ZoneDigest(z *zone.Zone) []byte {
	h := sha256.New()
	var buf []byte
	for _, rr := range z.Records() {
		if rr.Name == z.Origin {
			if rr.Type == dnswire.TypeZONEMD {
				continue
			}
			if sig, ok := rr.Data.(dnswire.RRSIG); ok && sig.TypeCovered == dnswire.TypeZONEMD {
				continue
			}
		}
		w, err := rr.AppendCanonicalWire(buf[:0])
		if err != nil {
			continue
		}
		buf = w
		h.Write(w)
	}
	return h.Sum(nil)
}

// VerifyZone validates a signed zone against a DS-form trust anchor:
// the DNSKEY RRset must be signed by a key matching the anchor, every
// authoritative RRset must carry a valid RRSIG, and the ZONEMD digest must
// match the zone contents. This is the full validation path a recursive
// resolver runs after fetching a root zone copy out of band (§3 of the
// paper).
func VerifyZone(z *zone.Zone, anchor dnswire.DS, now time.Time) error {
	apex := z.Origin
	keyRRs := z.Lookup(apex, dnswire.TypeDNSKEY)
	if len(keyRRs) == 0 {
		return ErrNoDNSKEY
	}
	keys := make([]dnswire.DNSKEY, len(keyRRs))
	anchorOK := false
	for i, rr := range keyRRs {
		keys[i] = rr.Data.(dnswire.DNSKEY)
		if VerifyDS(apex, keys[i], anchor) == nil {
			anchorOK = true
		}
	}
	if !anchorOK {
		return ErrDSMismatch
	}

	_, sets := dnswire.GroupRRsets(z.Records())
	sigs := make(map[dnswire.RRsetKey][]dnswire.RR)
	for key, rrset := range sets {
		if key.Type != dnswire.TypeRRSIG {
			continue
		}
		for _, sigRR := range rrset {
			covered := sigRR.Data.(dnswire.RRSIG).TypeCovered
			k := dnswire.RRsetKey{Name: key.Name, Type: covered, Class: key.Class}
			sigs[k] = append(sigs[k], sigRR)
		}
	}

	for key, rrset := range sets {
		if key.Type == dnswire.TypeRRSIG {
			continue
		}
		if key.Name != apex {
			if key.Type == dnswire.TypeNS {
				continue
			}
			if isGlueForVerify(sets, apex, key.Name, key.Type) {
				continue
			}
		}
		covering := sigs[key]
		if len(covering) == 0 {
			return fmt.Errorf("%w: %s/%s", ErrNoRRSIG, key.Name, key.Type)
		}
		verified := false
		var lastErr error
		for _, sigRR := range covering {
			if err := VerifyRRset(rrset, sigRR, keys, now); err == nil {
				verified = true
				break
			} else {
				lastErr = err
			}
		}
		if !verified {
			return fmt.Errorf("dnssec: %s/%s: %w", key.Name, key.Type, lastErr)
		}
	}

	// NSEC chain linkage: when the zone carries a denial chain, every
	// NSEC's NextName must point at the canonically-next NSEC owner, and
	// the last must wrap to the first — a single closed cycle. A broken
	// link would let an attacker reuse one zone's NSEC to deny a name in
	// a gap the chain never actually covers.
	if err := verifyNSECChain(sets); err != nil {
		return err
	}

	// Whole-zone digest check.
	zmdRRs := z.Lookup(apex, dnswire.TypeZONEMD)
	if len(zmdRRs) == 0 {
		return ErrDigestMissing
	}
	zmd := zmdRRs[0].Data.(dnswire.ZONEMD)
	if !bytes.Equal(zmd.Digest, ZoneDigest(z)) {
		return ErrDigestWrong
	}
	return nil
}

// verifyNSECChain checks that the zone's NSEC records (if any) form one
// closed canonical-order cycle. Zones signed without AddNSEC have no chain
// and pass vacuously.
func verifyNSECChain(sets map[dnswire.RRsetKey][]dnswire.RR) error {
	var owners []dnswire.Name
	next := make(map[dnswire.Name]dnswire.Name)
	for key, rrset := range sets {
		if key.Type != dnswire.TypeNSEC {
			continue
		}
		if len(rrset) != 1 {
			return fmt.Errorf("%w: %d NSEC records at %s", ErrNSECChain, len(rrset), key.Name)
		}
		owners = append(owners, key.Name)
		next[key.Name] = rrset[0].Data.(dnswire.NSEC).NextName
	}
	if len(owners) == 0 {
		return nil
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i].Compare(owners[j]) < 0 })
	for i, name := range owners {
		want := owners[(i+1)%len(owners)]
		if got := next[name]; got != want {
			return fmt.Errorf("%w: %s points to %s, want %s", ErrNSECChain, name, got, want)
		}
	}
	return nil
}

func isGlueForVerify(sets map[dnswire.RRsetKey][]dnswire.RR, apex, name dnswire.Name, typ dnswire.Type) bool {
	if typ != dnswire.TypeA && typ != dnswire.TypeAAAA {
		return false
	}
	for n := name; !n.IsRoot() && n != apex; n = n.Parent() {
		if _, ok := sets[dnswire.RRsetKey{Name: n, Type: dnswire.TypeNS, Class: dnswire.ClassINET}]; ok {
			return true
		}
	}
	return false
}

// DetachedSignature is the paper's lighter-weight alternative to full
// per-RRset validation: one signature over the serialized zone file.
type DetachedSignature struct {
	KeyTag    uint16
	Signature []byte
}

// SignFile signs a serialized zone file blob with the KSK.
func (s *Signer) SignFile(blob []byte) DetachedSignature {
	h := sha256.Sum256(blob)
	return DetachedSignature{
		KeyTag:    s.KSK.KeyTag(),
		Signature: ed25519.Sign(s.KSK.Private, h[:]),
	}
}

// VerifyFile checks a detached file signature against a DNSKEY.
func VerifyFile(blob []byte, sig DetachedSignature, key dnswire.DNSKEY) error {
	if key.KeyTag() != sig.KeyTag {
		return ErrNoDNSKEY
	}
	if len(key.PublicKey) != ed25519.PublicKeySize {
		return ErrNoDNSKEY
	}
	h := sha256.Sum256(blob)
	if !ed25519.Verify(ed25519.PublicKey(key.PublicKey), h[:], sig.Signature) {
		return ErrBadSignature
	}
	return nil
}
