package dnssec

import (
	"bufio"
	"crypto/ed25519"
	"encoding/base64"
	"fmt"
	"io"
	"strings"

	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// WriteKey serializes a private key in a BIND-flavoured text form:
//
//	; rootless private key
//	Owner: .
//	Flags: 257
//	Algorithm: 15
//	PrivateKey: <base64 of the Ed25519 seed>
func WriteKey(w io.Writer, k *Key) error {
	seed := k.Private.Seed()
	_, err := fmt.Fprintf(w, "; rootless private key\nOwner: %s\nFlags: %d\nAlgorithm: %d\nPrivateKey: %s\n",
		k.Owner, k.DNSKEY.Flags, k.DNSKEY.Algorithm,
		base64.StdEncoding.EncodeToString(seed))
	return err
}

// ReadKey parses a key written by WriteKey.
func ReadKey(r io.Reader) (*Key, error) {
	sc := bufio.NewScanner(r)
	fields := make(map[string]string)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("dnssec: bad key line %q", line)
		}
		fields[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	owner, err := dnswire.ParseName(fields["Owner"])
	if err != nil {
		return nil, fmt.Errorf("dnssec: key owner: %w", err)
	}
	var flags uint16
	if _, err := fmt.Sscanf(fields["Flags"], "%d", &flags); err != nil {
		return nil, fmt.Errorf("dnssec: key flags: %w", err)
	}
	var alg uint8
	if _, err := fmt.Sscanf(fields["Algorithm"], "%d", &alg); err != nil {
		return nil, fmt.Errorf("dnssec: key algorithm: %w", err)
	}
	if alg != dnswire.AlgEd25519 {
		return nil, fmt.Errorf("dnssec: unsupported algorithm %d", alg)
	}
	seed, err := base64.StdEncoding.DecodeString(fields["PrivateKey"])
	if err != nil || len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("dnssec: bad private key material")
	}
	priv := ed25519.NewKeyFromSeed(seed)
	return &Key{
		Owner:   owner,
		Private: priv,
		DNSKEY: dnswire.DNSKEY{
			Flags:     flags,
			Protocol:  3,
			Algorithm: alg,
			PublicKey: []byte(priv.Public().(ed25519.PublicKey)),
		},
	}, nil
}

// WritePublicKey emits the key's DNSKEY record in zone-file form, the
// format resolvers use as a trust-anchor input.
func WritePublicKey(w io.Writer, k *Key) error {
	_, err := fmt.Fprintln(w, k.DNSKEYRecord(172800).String())
	return err
}

// ReadPublicKey reads a trust-anchor file: master-file text, comments,
// parentheses and a key split across lines included (as BIND writes one),
// holding one record, a DNSKEY.
func ReadPublicKey(r io.Reader) (dnswire.DNSKEY, error) {
	z, err := zone.Parse(r, dnswire.Root)
	if err != nil {
		return dnswire.DNSKEY{}, fmt.Errorf("dnssec: trust anchor: %w", err)
	}
	rrs := z.Records()
	if len(rrs) != 1 || rrs[0].Type != dnswire.TypeDNSKEY {
		return dnswire.DNSKEY{}, fmt.Errorf("dnssec: trust anchor file holds %d records, want one DNSKEY", len(rrs))
	}
	return rrs[0].Data.(dnswire.DNSKEY), nil
}
