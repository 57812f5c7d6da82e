package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// Bundle is the distributed artifact: one root zone snapshot as a
// gzip-compressed master file plus the detached whole-file signature the
// paper suggests as the fast-validation optimisation. Consumers that want
// the full per-RRset check parse the zone and run dnssec.VerifyZone.
type Bundle struct {
	Serial     uint32
	Compressed []byte
	Signature  dnssec.DetachedSignature
	// Supersession, when present, is the publisher's signed statement that
	// this bundle replaces a specific higher-or-equal serial — the only way
	// a verifying client will ever step its serial backwards (an emergency
	// unpublish). Without it, rollback protection rejects any bundle whose
	// serial is not strictly newer than the installed copy.
	Supersession *Supersession
}

// Supersession is a signed serial-withdrawal statement.
type Supersession struct {
	// Replaces is the serial being withdrawn.
	Replaces uint32
	// Signature covers (Replaces, Serial) under the publisher's KSK.
	Signature dnssec.DetachedSignature
}

const (
	bundleMagic   = 0x52544C52 // "RTLR"
	bundleMagicV2 = 0x52544C53 // "RTLS": bundle with supersession statement
)

// supersessionBlob is the byte string a supersession signature covers.
func supersessionBlob(replaces, serial uint32) []byte {
	blob := make([]byte, 0, 30)
	blob = append(blob, "rootless-supersede-v1"...)
	blob = binary.BigEndian.AppendUint32(blob, replaces)
	blob = binary.BigEndian.AppendUint32(blob, serial)
	return blob
}

// Supersede attaches a signed statement that this bundle replaces the
// given serial, authorizing verifying clients to roll back to it.
func (b *Bundle) Supersede(replaces uint32, signer *dnssec.Signer) {
	b.Supersession = &Supersession{
		Replaces:  replaces,
		Signature: signer.SignFile(supersessionBlob(replaces, b.Serial)),
	}
}

// VerifySupersession checks the supersession statement against a key.
func (b *Bundle) VerifySupersession(ksk dnswire.DNSKEY) error {
	if b.Supersession == nil {
		return errors.New("dist: bundle has no supersession statement")
	}
	return dnssec.VerifyFile(supersessionBlob(b.Supersession.Replaces, b.Serial),
		b.Supersession.Signature, ksk)
}

// MakeBundle compresses and signs a zone.
func MakeBundle(z *zone.Zone, signer *dnssec.Signer) (*Bundle, error) {
	blob, err := zone.Compress(z)
	if err != nil {
		return nil, err
	}
	return &Bundle{
		Serial:     z.Serial(),
		Compressed: blob,
		Signature:  signer.SignFile(blob),
	}, nil
}

// Verify checks the bundle's detached signature against the publisher's
// KSK and returns the parsed zone. Tampered or mis-keyed bundles fail.
func (b *Bundle) Verify(ksk dnswire.DNSKEY) (*zone.Zone, error) {
	if err := dnssec.VerifyFile(b.Compressed, b.Signature, ksk); err != nil {
		return nil, fmt.Errorf("dist: bundle signature: %w", err)
	}
	return b.parse()
}

// VerifyFull validates the bundle with the complete DNSSEC path — chain
// from a DS trust anchor plus zone digest — instead of the detached
// signature shortcut.
func (b *Bundle) VerifyFull(anchor dnswire.DS, now time.Time) (*zone.Zone, error) {
	z, err := b.parse()
	if err != nil {
		return nil, err
	}
	if err := dnssec.VerifyZone(z, anchor, now); err != nil {
		return nil, err
	}
	return z, nil
}

// parse reads the bundle's zone and holds it to the serial in the
// bundle's header. No signature covers the header, and rollback
// protection judges a bundle by that serial.
func (b *Bundle) parse() (*zone.Zone, error) {
	z, err := zone.Decompress(b.Compressed, dnswire.Root)
	if err != nil {
		return nil, fmt.Errorf("dist: bundle contents: %w", err)
	}
	if z.Serial() != b.Serial {
		return nil, fmt.Errorf("dist: bundle serial %d != zone serial %d", b.Serial, z.Serial())
	}
	return z, nil
}

// Encode serializes the bundle: magic, serial, keytag, sig, an optional
// supersession block (v2 magic only), then the blob.
func (b *Bundle) Encode() []byte {
	var buf bytes.Buffer
	var hdr [14]byte
	magic := uint32(bundleMagic)
	if b.Supersession != nil {
		magic = bundleMagicV2
	}
	binary.BigEndian.PutUint32(hdr[0:], magic)
	binary.BigEndian.PutUint32(hdr[4:], b.Serial)
	binary.BigEndian.PutUint16(hdr[8:], b.Signature.KeyTag)
	binary.BigEndian.PutUint32(hdr[10:], uint32(len(b.Signature.Signature)))
	buf.Write(hdr[:])
	buf.Write(b.Signature.Signature)
	if b.Supersession != nil {
		var sup [10]byte
		binary.BigEndian.PutUint32(sup[0:], b.Supersession.Replaces)
		binary.BigEndian.PutUint16(sup[4:], b.Supersession.Signature.KeyTag)
		binary.BigEndian.PutUint32(sup[6:], uint32(len(b.Supersession.Signature.Signature)))
		buf.Write(sup[:])
		buf.Write(b.Supersession.Signature.Signature)
	}
	buf.Write(b.Compressed)
	return buf.Bytes()
}

// DecodeBundle parses an encoded bundle (either wire version).
func DecodeBundle(data []byte) (*Bundle, error) {
	if len(data) < 14 {
		return nil, errors.New("dist: short bundle")
	}
	magic := binary.BigEndian.Uint32(data)
	if magic != bundleMagic && magic != bundleMagicV2 {
		return nil, errors.New("dist: bad bundle magic")
	}
	sigLen := int(binary.BigEndian.Uint32(data[10:]))
	if sigLen < 0 || 14+sigLen > len(data) {
		return nil, errors.New("dist: truncated bundle signature")
	}
	b := &Bundle{
		Serial: binary.BigEndian.Uint32(data[4:]),
		Signature: dnssec.DetachedSignature{
			KeyTag:    binary.BigEndian.Uint16(data[8:]),
			Signature: append([]byte(nil), data[14:14+sigLen]...),
		},
	}
	rest := data[14+sigLen:]
	if magic == bundleMagicV2 {
		if len(rest) < 10 {
			return nil, errors.New("dist: truncated supersession")
		}
		supLen := int(binary.BigEndian.Uint32(rest[6:]))
		if supLen < 0 || 10+supLen > len(rest) {
			return nil, errors.New("dist: truncated supersession signature")
		}
		b.Supersession = &Supersession{
			Replaces: binary.BigEndian.Uint32(rest[0:]),
			Signature: dnssec.DetachedSignature{
				KeyTag:    binary.BigEndian.Uint16(rest[4:]),
				Signature: append([]byte(nil), rest[10:10+supLen]...),
			},
		}
		rest = rest[10+supLen:]
	}
	b.Compressed = append([]byte(nil), rest...)
	return b, nil
}
