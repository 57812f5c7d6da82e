// Package bench is rootbench, the repository's benchmark: five seeded
// workloads driven over loopback sockets against the serving, resolving
// and refreshing halves of the system, every answer checked, with a
// traced run that prices each layer. README.md is the catalogue.
package bench

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sync/atomic"
	"time"

	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/rootzone"
	"rootless/internal/zone"
)

// ZoneDate is the snapshot every workload serves: the April 2019 root
// the paper analyses. Signatures are made and checked at this instant,
// so results do not depend on the day the benchmark runs.
var ZoneDate = time.Date(2019, 4, 11, 0, 0, 0, 0, time.UTC)

// revisionChanges is how many TLDs each published revision touches.
const revisionChanges = 8

// detRand is a seeded key-material source: the same seed signs the same
// zone with the same keys.
type detRand struct{ r *rand.Rand }

func (d detRand) Read(p []byte) (int, error) { return d.r.Read(p) }

// World is what a workload is built from: the signed root zone, the
// signer that anchors it, the TLD list in a seed-shuffled popularity
// order, and the later revisions a mirror publishes.
type World struct {
	Zone      *zone.Zone
	Signer    *dnssec.Signer
	TLDs      []dnswire.Name // index 0 is the most popular
	Revisions []*zone.Zone
	rng       *rand.Rand
}

// BuildWorld builds and signs the root zone. With stripDS the TLD DS
// sets are removed first, as experiments.signWorldRoot does: the
// upstream fabric is unsigned, and a DS above an unsigned child would
// make everything below it Bogus instead of Insecure.
func BuildWorld(seed int64, stripDS bool) (*World, error) {
	z, err := rootzone.Build(ZoneDate)
	if err != nil {
		return nil, err
	}
	if stripDS {
		for _, name := range z.Names() {
			z.Remove(name, dnswire.TypeDS)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	signer, err := dnssec.NewSigner(dnswire.Root, detRand{rng})
	if err != nil {
		return nil, err
	}
	signer.AddNSEC = true
	if err := signer.SignZone(z, ZoneDate); err != nil {
		return nil, err
	}
	w := &World{Zone: z, Signer: signer, TLDs: z.Delegations(), rng: rng}
	rng.Shuffle(len(w.TLDs), func(i, j int) { w.TLDs[i], w.TLDs[j] = w.TLDs[j], w.TLDs[i] })
	return w, nil
}

// AddRevisions appends n revisions, each the previous one with its
// serial bumped and revisionChanges TLDs altered. Only the touched
// RRsets, the SOA and the zone digest are re-signed, which is what an
// incremental signer does and a sixth of the cost of SignZone.
func (w *World) AddRevisions(n int) error {
	prev := w.Zone
	if len(w.Revisions) > 0 {
		prev = w.Revisions[len(w.Revisions)-1]
	}
	for i := 0; i < n; i++ {
		next, err := w.revise(prev)
		if err != nil {
			return err
		}
		w.Revisions = append(w.Revisions, next)
		prev = next
	}
	return nil
}

func (w *World) revise(prev *zone.Zone) (*zone.Zone, error) {
	z := prev.Clone()
	apex := z.Origin
	soaRR, ok := z.SOA()
	if !ok {
		return nil, errors.New("bench: zone has no SOA")
	}
	soa := soaRR.Data.(dnswire.SOA)
	soa.Serial++
	if err := w.replace(z, []dnswire.RR{dnswire.NewRR(apex, soaRR.TTL, soa)}, true); err != nil {
		return nil, err
	}
	for i := 0; i < revisionChanges; i++ {
		tld := w.TLDs[w.rng.Intn(len(w.TLDs))]
		if ds := z.Lookup(tld, dnswire.TypeDS); len(ds) > 0 {
			// A key roll at the child: same key tag, fresh digest.
			d := ds[0].Data.(dnswire.DS)
			d.Digest = make([]byte, len(d.Digest))
			w.rng.Read(d.Digest)
			if err := w.replace(z, []dnswire.RR{dnswire.NewRR(tld, ds[0].TTL, d)}, true); err != nil {
				return nil, err
			}
			continue
		}
		// No DS (stripped, or an unsigned TLD): renumber one nameserver.
		// Glue is not authoritative, so it carries no signature.
		ns := z.Lookup(tld, dnswire.TypeNS)
		host := ns[w.rng.Intn(len(ns))].Data.(dnswire.NS).Host
		glue := z.Lookup(host, dnswire.TypeA)
		if len(glue) == 0 {
			continue
		}
		addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + w.rng.Intn(250))})
		if err := w.replace(z, []dnswire.RR{dnswire.NewRR(host, glue[0].TTL, dnswire.A{Addr: addr})}, false); err != nil {
			return nil, err
		}
	}
	// ZoneDigest leaves the old ZONEMD and its RRSIG out by itself.
	zmd := dnswire.NewRR(apex, 86400, dnswire.ZONEMD{
		Serial: soa.Serial,
		Scheme: dnswire.ZONEMDSchemeSimple,
		Hash:   dnswire.ZONEMDHashSHA256,
		Digest: dnssec.ZoneDigest(z),
	})
	if err := w.replace(z, []dnswire.RR{zmd}, true); err != nil {
		return nil, err
	}
	return z, nil
}

// replace swaps in rrset for whatever the zone holds under its name and
// type, and with sign replaces the covering RRSIG, valid over the same
// window SignZone gives every signature.
func (w *World) replace(z *zone.Zone, rrset []dnswire.RR, sign bool) error {
	name, typ := rrset[0].Name, rrset[0].Type
	z.Remove(name, typ)
	for _, rr := range rrset {
		if err := z.Add(rr); err != nil {
			return err
		}
	}
	if !sign {
		return nil
	}
	dropSig(z, name, typ)
	sig, err := dnssec.SignRRset(w.Signer.ZSK, rrset, ZoneDate.Add(-time.Hour), ZoneDate.Add(w.Signer.Validity))
	if err != nil {
		return fmt.Errorf("bench: signing %s/%s: %w", name, typ, err)
	}
	return z.Add(sig)
}

// dropSig removes the RRSIGs at name that cover typ, keeping the rest.
func dropSig(z *zone.Zone, name dnswire.Name, typ dnswire.Type) {
	sigs := z.Lookup(name, dnswire.TypeRRSIG)
	z.Remove(name, dnswire.TypeRRSIG)
	for _, rr := range sigs {
		if rr.Data.(dnswire.RRSIG).TypeCovered != typ {
			_ = z.Add(rr) // came out of this zone a line ago
		}
	}
}

// Fabric is the upstream the resolver workloads iterate through: an
// in-memory resolver.Transport with zero round-trip time, so what the
// workloads measure is resolver CPU per miss, not a network. Addresses
// that are TLD glue in the root zone refer every name to a nameserver
// of its second-level domain; every other address answers A queries
// authoritatively with an address derived from the name. Nothing is
// signed: below the root the tree is an island-of-security boundary.
type Fabric struct {
	seed     int64
	tldAddrs map[netip.Addr]bool
	// Exchanges counts queries the resolver sent upstream; Span, when
	// set, is called with each exchange's start and end (traced runs).
	Exchanges atomic.Int64
	Span      func(start, end time.Time)
}

// NewFabric indexes the glue addresses of z.
func NewFabric(seed int64, z *zone.Zone) *Fabric {
	f := &Fabric{seed: seed, tldAddrs: make(map[netip.Addr]bool)}
	for _, rr := range z.Records() {
		if a, ok := rr.Data.(dnswire.A); ok && !rr.Name.IsSubdomainOf("root-servers.net.") {
			f.tldAddrs[a.Addr] = true
		}
	}
	return f
}

// AddrFor is the A record the fabric serves for name.
func (f *Fabric) AddrFor(name dnswire.Name) netip.Addr {
	v := f.hash(name)
	return netip.AddrFrom4([4]byte{203, 0, byte(v >> 8), byte(v)})
}

func (f *Fabric) hash(name dnswire.Name) uint64 {
	h := fnv.New64a()
	var s [8]byte
	for i := range s {
		s[i] = byte(f.seed >> (8 * i))
	}
	h.Write(s[:])
	h.Write([]byte(name))
	return h.Sum64()
}

// sld returns the second-level domain enclosing name ("" for a TLD).
func sld(name dnswire.Name) dnswire.Name {
	for name.LabelCount() > 2 {
		name = name.Parent()
	}
	if name.LabelCount() < 2 {
		return ""
	}
	return name
}

// Exchange implements resolver.Transport.
func (f *Fabric) Exchange(dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	var start time.Time
	if f.Span != nil {
		start = time.Now()
	}
	f.Exchanges.Add(1)
	resp := &dnswire.Message{ID: q.ID, Response: true, Questions: q.Questions}
	if len(q.Questions) != 1 {
		resp.Rcode = dnswire.RcodeFormat
		return resp, 0, nil
	}
	question := q.Questions[0]
	if cut := sld(question.Name); f.tldAddrs[dst] && cut != "" {
		host := dnswire.Name("ns1." + string(cut))
		v := f.hash(cut)
		resp.Authority = []dnswire.RR{dnswire.NewRR(cut, 172800, dnswire.NS{Host: host})}
		resp.Additional = []dnswire.RR{dnswire.NewRR(host, 172800, dnswire.A{
			Addr: netip.AddrFrom4([4]byte{10, byte(v >> 16), byte(v >> 8), byte(v)}),
		})}
	} else {
		resp.Authoritative = true
		if question.Type == dnswire.TypeA {
			resp.Answers = []dnswire.RR{dnswire.NewRR(question.Name, 3600, dnswire.A{Addr: f.AddrFor(question.Name)})}
		} else {
			zoneName := question.Name.TLD()
			resp.Authority = []dnswire.RR{dnswire.NewRR(zoneName, 900, dnswire.SOA{
				MName: "ns0.nic." + zoneName, RName: "hostmaster.nic." + zoneName,
				Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 300,
			})}
		}
	}
	if f.Span != nil {
		f.Span(start, time.Now())
	}
	return resp, 0, nil
}
