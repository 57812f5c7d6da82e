package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/zone"
	"rootless/internal/zonediff"
)

// Signed delta chains: the Janus-style incremental distribution path.
// Instead of re-fetching and re-verifying the whole zone on every refresh,
// a mirror serves one DeltaBundle per published serial step — the RRsets
// that changed, signed by the publisher's KSK, with hash links binding the
// delta to exactly the zone snapshots it connects. A client several
// serials behind walks the chain (O(delta) per step); any break — a serial
// out of the retention window, a link that doesn't match the installed
// copy, a bad signature — falls back to the full bundle.

// DeltaSource is implemented by sources that can serve signed delta
// chains; the refresher probes for it and prefers O(delta) catch-up over
// full-bundle fetches.
type DeltaSource interface {
	// FetchDeltaChain returns the consecutive deltas leading from
	// fromSerial to the source's current serial, oldest first. An empty
	// chain means the client is already current.
	FetchDeltaChain(ctx context.Context, fromSerial uint32) ([]*DeltaBundle, error)
}

// DeltaBundle is one link of the signed delta chain: the RRset-level
// changes from one published serial to the next, plus the chain digests
// that pin both endpoints, under one detached KSK signature. Verification
// is incremental: the signature covers only the delta, and only the
// changed RRsets' RRSIGs are re-checked after application.
type DeltaBundle struct {
	FromSerial uint32
	ToSerial   uint32
	// FromChain/ToChain are the chain anchors (serial + zone digest
	// commitments) of the two snapshots; a client applies a delta only
	// when FromChain matches the anchor of its installed copy, and adopts
	// the signed ToChain afterwards.
	FromChain [32]byte
	ToChain   [32]byte
	// Removed lists RRsets deleted (or replaced) wholesale.
	Removed []dnswire.RRsetKey
	// Added holds the new and replacement RRsets in master-file form.
	Added []byte
	// Signature is the publisher's detached signature over the payload.
	Signature dnssec.DetachedSignature
}

const deltaMagic = 0x52544C44 // "RTLD"

// Errors from delta application; any of them means "fall back to a full
// bundle" for a client.
var (
	ErrDeltaSerial   = errors.New("dist: delta does not apply to the installed serial")
	ErrChainMismatch = errors.New("dist: delta chain link does not match the installed zone")
)

// ChainAnchor commits to one zone snapshot: a hash over the serial and the
// ZONEMD-style zone digest. Full-bundle installs compute it directly; delta
// installs adopt the signed ToChain, so the chain stays rooted in a digest
// the publisher vouched for.
func ChainAnchor(z *zone.Zone) [32]byte {
	h := sha256.New()
	h.Write([]byte("rootless-chain-v1"))
	var s [4]byte
	binary.BigEndian.PutUint32(s[:], z.Serial())
	h.Write(s[:])
	h.Write(dnssec.ZoneDigest(z))
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// MakeDeltaBundle builds and signs the delta from old to new. fromChain is
// the chain anchor of old (normally ChainAnchor(old); passed in so a
// publisher can keep the chain without retaining every snapshot).
func MakeDeltaBundle(old, new *zone.Zone, fromChain [32]byte, signer *dnssec.Signer) (*DeltaBundle, error) {
	removed, added := zonediff.RRsetDelta(old, new)
	var sb strings.Builder
	for _, rr := range added {
		sb.WriteString(rr.String())
		sb.WriteByte('\n')
	}
	d := &DeltaBundle{
		FromSerial: old.Serial(),
		ToSerial:   new.Serial(),
		FromChain:  fromChain,
		ToChain:    ChainAnchor(new),
		Removed:    removed,
		Added:      []byte(sb.String()),
	}
	d.Signature = signer.SignFile(d.payload())
	return d, nil
}

// payload is the signed portion: everything except the signature itself.
func (d *DeltaBundle) payload() []byte {
	var buf bytes.Buffer
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(u32[:], v)
		buf.Write(u32[:])
	}
	put32(d.FromSerial)
	put32(d.ToSerial)
	buf.Write(d.FromChain[:])
	buf.Write(d.ToChain[:])
	put32(uint32(len(d.Removed)))
	var u16 [2]byte
	put16 := func(v uint16) {
		binary.BigEndian.PutUint16(u16[:], v)
		buf.Write(u16[:])
	}
	for _, key := range d.Removed {
		name := string(key.Name)
		put16(uint16(len(name)))
		buf.WriteString(name)
		put16(uint16(key.Type))
		put16(uint16(key.Class))
	}
	put32(uint32(len(d.Added)))
	buf.Write(d.Added)
	return buf.Bytes()
}

// Encode serializes the delta: magic, keytag, sig, then the signed payload.
func (d *DeltaBundle) Encode() []byte {
	var buf bytes.Buffer
	var hdr [10]byte
	binary.BigEndian.PutUint32(hdr[0:], deltaMagic)
	binary.BigEndian.PutUint16(hdr[4:], d.Signature.KeyTag)
	binary.BigEndian.PutUint32(hdr[6:], uint32(len(d.Signature.Signature)))
	buf.Write(hdr[:])
	buf.Write(d.Signature.Signature)
	buf.Write(d.payload())
	return buf.Bytes()
}

// DecodeDeltaBundle parses an encoded delta bundle.
func DecodeDeltaBundle(data []byte) (*DeltaBundle, error) {
	if len(data) < 10 {
		return nil, errors.New("dist: short delta bundle")
	}
	if binary.BigEndian.Uint32(data) != deltaMagic {
		return nil, errors.New("dist: bad delta magic")
	}
	sigLen := int(binary.BigEndian.Uint32(data[6:]))
	if sigLen < 0 || 10+sigLen > len(data) {
		return nil, errors.New("dist: truncated delta signature")
	}
	d := &DeltaBundle{
		Signature: dnssec.DetachedSignature{
			KeyTag:    binary.BigEndian.Uint16(data[4:]),
			Signature: append([]byte(nil), data[10:10+sigLen]...),
		},
	}
	p := data[10+sigLen:]
	if len(p) < 76 {
		return nil, errors.New("dist: short delta payload")
	}
	d.FromSerial = binary.BigEndian.Uint32(p[0:])
	d.ToSerial = binary.BigEndian.Uint32(p[4:])
	copy(d.FromChain[:], p[8:40])
	copy(d.ToChain[:], p[40:72])
	nRemoved := int(binary.BigEndian.Uint32(p[72:]))
	p = p[76:]
	if nRemoved < 0 || nRemoved > len(p)/6 {
		return nil, errors.New("dist: bad delta removal count")
	}
	d.Removed = make([]dnswire.RRsetKey, 0, nRemoved)
	for i := 0; i < nRemoved; i++ {
		if len(p) < 2 {
			return nil, errors.New("dist: truncated delta removal")
		}
		nameLen := int(binary.BigEndian.Uint16(p))
		if len(p) < 2+nameLen+4 {
			return nil, errors.New("dist: truncated delta removal")
		}
		d.Removed = append(d.Removed, dnswire.RRsetKey{
			Name:  dnswire.Name(p[2 : 2+nameLen]),
			Type:  dnswire.Type(binary.BigEndian.Uint16(p[2+nameLen:])),
			Class: dnswire.Class(binary.BigEndian.Uint16(p[2+nameLen+2:])),
		})
		p = p[2+nameLen+4:]
	}
	if len(p) < 4 {
		return nil, errors.New("dist: truncated delta additions")
	}
	addLen := int(binary.BigEndian.Uint32(p))
	if addLen < 0 || addLen != len(p)-4 {
		return nil, errors.New("dist: delta additions length mismatch")
	}
	d.Added = append([]byte(nil), p[4:]...)
	return d, nil
}

// DeltaApplyStats reports the incremental-verification cost of one delta —
// the numbers behind the O(zone) → O(delta) rows in t_dist.
type DeltaApplyStats struct {
	RemovedSets int
	AddedRRs    int
	// SigChecks counts Ed25519 verifications performed: one for the
	// detached delta signature, one for the anchored DNSKEY RRset, and one
	// per changed RRset — versus one per RRset in the zone for a full
	// verification.
	SigChecks int
}

// Apply verifies the delta against the installed zone and the trust
// anchors, applies it to a clone, and incrementally verifies the result:
// the detached signature covers the delta payload (including both chain
// anchors), the apex DNSKEY RRset must carry a signature from an anchored
// key, and every changed authoritative RRset must verify against the
// zone's DNSKEYs. Unchanged RRsets are not re-checked, and the whole-zone
// digest is not recomputed — that is the point: the full O(zone) check
// happens on full-bundle fetches, each delta costs O(delta).
func (d *DeltaBundle) Apply(cur *zone.Zone, curChain [32]byte, anchors []dnswire.DNSKEY, now time.Time) (*zone.Zone, DeltaApplyStats, error) {
	var st DeltaApplyStats
	if cur.Serial() != d.FromSerial {
		return nil, st, fmt.Errorf("%w: delta %d→%d, installed %d",
			ErrDeltaSerial, d.FromSerial, d.ToSerial, cur.Serial())
	}
	if curChain != d.FromChain {
		return nil, st, ErrChainMismatch
	}

	payload := d.payload()
	verified := false
	var sigErr error = dnssec.ErrNoDNSKEY
	for _, key := range anchors {
		if key.KeyTag() != d.Signature.KeyTag {
			continue
		}
		st.SigChecks++
		if sigErr = dnssec.VerifyFile(payload, d.Signature, key); sigErr == nil {
			verified = true
		}
		break
	}
	if !verified {
		return nil, st, fmt.Errorf("dist: delta signature: %w", sigErr)
	}

	next := cur.Clone()
	for _, key := range d.Removed {
		next.Remove(key.Name, key.Type)
		st.RemovedSets++
	}
	var addedKeys []dnswire.RRsetKey
	if len(d.Added) > 0 {
		az, err := zone.Parse(bytes.NewReader(d.Added), dnswire.Root)
		if err != nil {
			return nil, st, fmt.Errorf("dist: delta additions: %w", err)
		}
		rrs := az.Records()
		for _, rr := range rrs {
			if err := next.Add(rr); err != nil {
				return nil, st, fmt.Errorf("dist: applying delta: %w", err)
			}
			st.AddedRRs++
		}
		addedKeys, _ = dnswire.GroupRRsets(rrs)
	}
	if next.Serial() != d.ToSerial {
		return nil, st, fmt.Errorf("dist: delta result serial %d, want %d", next.Serial(), d.ToSerial)
	}

	if err := verifyIncremental(next, addedKeys, anchors, now, &st); err != nil {
		return nil, st, err
	}
	return next, st, nil
}

// verifyIncremental re-checks only what the delta touched: the anchored
// apex DNSKEY RRset (always — it is what every other check chains from)
// plus each added/replaced authoritative RRset's RRSIG.
func verifyIncremental(z *zone.Zone, added []dnswire.RRsetKey, anchors []dnswire.DNSKEY, now time.Time, st *DeltaApplyStats) error {
	apex := z.Origin
	keyRRs := z.Lookup(apex, dnswire.TypeDNSKEY)
	if len(keyRRs) == 0 {
		return dnssec.ErrNoDNSKEY
	}
	zoneKeys := make([]dnswire.DNSKEY, len(keyRRs))
	for i, rr := range keyRRs {
		zoneKeys[i] = rr.Data.(dnswire.DNSKEY)
	}
	apexSigs := z.Lookup(apex, dnswire.TypeRRSIG)
	anchored := false
	var lastErr error = dnssec.ErrNoRRSIG
	for _, sigRR := range apexSigs {
		sig := sigRR.Data.(dnswire.RRSIG)
		if sig.TypeCovered != dnswire.TypeDNSKEY {
			continue
		}
		st.SigChecks++
		if err := dnssec.VerifyRRset(keyRRs, sigRR, anchors, now); err == nil {
			anchored = true
			break
		} else {
			lastErr = err
		}
	}
	if !anchored {
		return fmt.Errorf("dist: delta DNSKEY rrset not anchored: %w", lastErr)
	}

	for _, key := range added {
		if key.Type == dnswire.TypeRRSIG || key.Type == dnswire.TypeDNSKEY {
			continue // RRSIGs are checked with their sets; DNSKEY just was
		}
		if key.Name != apex {
			if key.Type == dnswire.TypeNS {
				continue // delegation: not authoritative, carries no RRSIG
			}
			if isGlueRRset(z, key.Name, key.Type) {
				continue
			}
		}
		rrset := z.Lookup(key.Name, key.Type)
		if len(rrset) == 0 {
			continue // removed again within the same delta text
		}
		verified := false
		lastErr = dnssec.ErrNoRRSIG
		for _, sigRR := range z.Lookup(key.Name, dnswire.TypeRRSIG) {
			if sigRR.Data.(dnswire.RRSIG).TypeCovered != key.Type {
				continue
			}
			st.SigChecks++
			if err := dnssec.VerifyRRset(rrset, sigRR, zoneKeys, now); err == nil {
				verified = true
				break
			} else {
				lastErr = err
			}
		}
		if !verified {
			return fmt.Errorf("dist: delta rrset %s/%s: %w", key.Name, key.Type, lastErr)
		}
	}
	return nil
}

// isGlueRRset reports whether (name, typ) is a glue address RRset: an
// A/AAAA set at or below a delegation cut.
func isGlueRRset(z *zone.Zone, name dnswire.Name, typ dnswire.Type) bool {
	if typ != dnswire.TypeA && typ != dnswire.TypeAAAA {
		return false
	}
	for n := name; !n.IsRoot() && n != z.Origin; n = n.Parent() {
		if len(z.Lookup(n, dnswire.TypeNS)) > 0 {
			return true
		}
	}
	return false
}

// encodeDeltaChain frames encoded links the way a mirror serves them: a
// uint32 link count, then each link prefixed with its uint32 length.
func encodeDeltaChain(links [][]byte) []byte {
	n := 4
	for _, link := range links {
		n += 4 + len(link)
	}
	out := binary.BigEndian.AppendUint32(make([]byte, 0, n), uint32(len(links)))
	for _, link := range links {
		out = binary.BigEndian.AppendUint32(out, uint32(len(link)))
		out = append(out, link...)
	}
	return out
}

// decodeDeltaChain parses a framed chain and decodes each of its links.
func decodeDeltaChain(data []byte) ([]*DeltaBundle, error) {
	if len(data) < 4 {
		return nil, errors.New("dist: short delta chain")
	}
	n := int(binary.BigEndian.Uint32(data))
	data = data[4:]
	if n < 0 || n > 1<<16 {
		return nil, errors.New("dist: bad delta chain length")
	}
	chain := make([]*DeltaBundle, 0, n)
	for i := 0; i < n; i++ {
		if len(data) < 4 {
			return nil, errors.New("dist: truncated delta chain")
		}
		linkLen := int(binary.BigEndian.Uint32(data))
		if linkLen < 0 || 4+linkLen > len(data) {
			return nil, errors.New("dist: truncated delta chain link")
		}
		db, err := DecodeDeltaBundle(data[4 : 4+linkLen])
		if err != nil {
			return nil, err
		}
		chain = append(chain, db)
		data = data[4+linkLen:]
	}
	return chain, nil
}
