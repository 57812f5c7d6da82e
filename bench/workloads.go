package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"rootless/bench/driver"
	"rootless/bench/oracle"
	"rootless/internal/authserver"
	"rootless/internal/dnssec/validator"
	"rootless/internal/dnswire"
	"rootless/internal/resolver"
	"rootless/internal/udpengine"
	"rootless/internal/zone"
)

// Workload names, in the order they are reported.
const (
	AuthHot      = "auth_hot"
	AuthJunkDO   = "auth_junk_do"
	ResolverWarm = "resolver_warm"
	ResolverCold = "resolver_cold"
	ZoneRefresh  = "zone_refresh"
)

// WorkloadNames lists the workloads in reporting order.
var WorkloadNames = []string{AuthHot, AuthJunkDO, ResolverWarm, ResolverCold, ZoneRefresh}

// RateQPS is each workload's paced-phase departure rate. The values are
// frozen, the same on every later commit, so that paced latencies stay
// comparable when capacity moves: about a fifth of the capacity_qps the
// commit that introduced rootbench reached on the 2-core box it was
// written on (at the half the issue proposed, the open loop runs the
// single worker near saturation and the sender falls milliseconds
// behind). resolver_cold is paced at a twentieth: at a fifth its median
// latency was mostly queueing luck and did not repeat. zone_refresh
// paces the auth_hot stream at a quarter of that workload's rate,
// leaving the refresher room. README.md has the measurements.
var RateQPS = map[string]float64{
	AuthHot:      40000,
	AuthJunkDO:   50,
	ResolverWarm: 30000,
	ResolverCold: 1000,
	ZoneRefresh:  10000,
}

const (
	hotPairs      = 1024  // distinct (qname, qtype) pairs auth_hot re-asks
	warmNames     = 2000  // names resolver_warm pre-resolves and re-asks
	resolverCache = 50000 // resolver cache capacity, in RRsets
	templates     = 1024  // query shapes a unique-name load cycles through
	seqLetters    = 10    // base-26 letters that make a generated label unique
	probeSuffix   = "qz"  // ends every single-label probe; no TLD ends so
)

// fixedLoad re-asks a fixed set of questions in a seeded Zipf order.
type fixedLoad struct {
	wires [][]byte
	order []uint16
}

func (l *fixedLoad) Next(seq uint64) ([]byte, uint32) {
	i := l.order[seq%uint64(len(l.order))]
	return l.wires[i], uint32(i)
}

func (l *fixedLoad) Check(_ uint32, _ uint64, reply []byte) bool {
	return oracle.Header(reply, dnswire.RcodeSuccess)
}

// template is one query shape of a unique-name load: a packed query
// with the offsets of the labels that are rewritten from the sequence
// number on every send, and the rcode its answer must carry.
type template struct {
	wire   []byte
	fields []int
	rcode  dnswire.Rcode
}

// uniqueLoad never asks the same name twice: query seq uses template
// seq mod len(tmpl) with seq spelled into its variable labels.
type uniqueLoad struct {
	tmpl []template
}

func (l *uniqueLoad) Next(seq uint64) ([]byte, uint32) {
	i := seq % uint64(len(l.tmpl))
	t := &l.tmpl[i]
	for _, off := range t.fields {
		putSeq(t.wire[off:off+seqLetters], seq)
	}
	return t.wire, uint32(i)
}

func (l *uniqueLoad) Check(tag uint32, _ uint64, reply []byte) bool {
	return oracle.Header(reply, l.tmpl[tag].rcode)
}

// putSeq spells seq in base 26, least significant letter first, so that
// consecutive names differ in their first letter and spread over the
// whole NSEC chain instead of crowding one gap.
func putSeq(dst []byte, seq uint64) {
	for i := range dst {
		dst[i] = 'a' + byte(seq%26)
		seq /= 26
	}
}

// seqLabel is the placeholder a template is packed with.
var seqLabel = strings.Repeat("a", seqLetters)

// packQuery packs one query with an OPT record carrying the DO bit as
// given. The ID bytes are the driver's to fill.
func packQuery(name dnswire.Name, typ dnswire.Type, do bool) ([]byte, error) {
	q := dnswire.NewQuery(0, name, typ)
	q.SetEDNS(dnswire.DefaultEDNSSize, do)
	wire, err := q.Pack()
	if err != nil {
		return nil, fmt.Errorf("bench: packing %s %s: %w", name, typ, err)
	}
	return wire, nil
}

// newTemplate packs an A query for name, in which every label that
// contains seqLabel has that stretch rewritten on each send.
func newTemplate(name dnswire.Name, rcode dnswire.Rcode, do bool) (template, error) {
	wire, err := packQuery(name, dnswire.TypeA, do)
	if err != nil {
		return template{}, err
	}
	t := template{wire: wire, rcode: rcode}
	// The question name starts at byte 12 as length-prefixed labels.
	for off := 12; wire[off] != 0; off += 1 + int(wire[off]) {
		label := wire[off+1 : off+1+int(wire[off])]
		for i := 0; i+seqLetters <= len(label); i++ {
			if string(label[i:i+seqLetters]) == seqLabel {
				t.fields = append(t.fields, off+1+i)
				break
			}
		}
	}
	if len(t.fields) == 0 {
		return template{}, fmt.Errorf("bench: template %s has no sequence field", name)
	}
	return t, nil
}

// zipfOrder draws n indices below max from a Zipf law.
func zipfOrder(rng *rand.Rand, max, n int) []uint16 {
	z := rand.NewZipf(rng, 1.1, 1, uint64(max-1))
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(z.Uint64())
	}
	return out
}

func randLetters(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// bogusTLD invents a label that is not a TLD of z.
func bogusTLD(rng *rand.Rand, z *zone.Zone) dnswire.Name {
	for {
		name := dnswire.Name(randLetters(rng, 6+rng.Intn(6)) + ".")
		if !z.HasName(name) {
			return name
		}
	}
}

// hotLoad is auth_hot's stream: TLD-apex NS and DS queries and popular
// name.tld referrals, OPT present and DO clear, TLDs Zipf-picked.
func hotLoad(w *World, rng *rand.Rand) (*fixedLoad, error) {
	tldPick := rand.NewZipf(rng, 1.1, 1, uint64(len(w.TLDs)-1))
	seen := make(map[dnswire.Question]bool)
	l := &fixedLoad{}
	for len(l.wires) < hotPairs {
		tld := w.TLDs[tldPick.Uint64()]
		q := dnswire.Question{Name: tld, Type: dnswire.TypeNS}
		switch r := rng.Intn(10); {
		case r < 4:
			q = dnswire.Question{Name: dnswire.Name(fmt.Sprintf("www.site%d.%s", rng.Intn(50), tld)), Type: dnswire.TypeA}
		case r < 7:
			q.Type = dnswire.TypeDS
		}
		if seen[q] {
			continue
		}
		seen[q] = true
		wire, err := packQuery(q.Name, q.Type, false)
		if err != nil {
			return nil, err
		}
		l.wires = append(l.wires, wire)
	}
	l.order = zipfOrder(rng, hotPairs, 1<<16)
	return l, nil
}

// junkTemplates appends n junk shapes, 70 % two-label names under an
// invented TLD and 30 % Chromium-style single-label probes (§2.2).
func junkTemplates(tmpl []template, n int, w *World, rng *rand.Rand, do bool) ([]template, error) {
	for _, tld := range w.TLDs {
		if strings.HasSuffix(string(tld), probeSuffix+".") {
			return nil, fmt.Errorf("bench: TLD %s ends in the probe suffix %q", tld, probeSuffix)
		}
	}
	for i := 0; i < n; i++ {
		name := dnswire.Name(seqLabel + probeSuffix + ".")
		if rng.Intn(10) < 7 {
			name = dnswire.Name(seqLabel + "." + string(bogusTLD(rng, w.Zone)))
		}
		t, err := newTemplate(name, dnswire.RcodeNXDomain, do)
		if err != nil {
			return nil, err
		}
		tmpl = append(tmpl, t)
	}
	return tmpl, nil
}

// Instance is one workload, set up and ready to serve.
type Instance struct {
	Name    string
	World   *World
	Handler udpengine.Handler
	Load    driver.Load
	// Verify is the content check for one sampled reply.
	Verify func(oracle.Sample, *dnswire.Message) error
	// Install is what a verified zone refresh does to the authoritative
	// server, and Serial reads back the serial it left in place.
	Install func(*zone.Zone) error
	Serial  func() uint32

	Auth     *authserver.Server
	Resolver *resolver.Resolver
	Fabric   *Fabric
	// ReplayNames are the questions the layer replays walk through.
	ReplayNames []dnswire.Question
}

// Setup builds the named workload from seed.
func Setup(name string, seed int64) (*Instance, error) {
	isResolver := name == ResolverWarm || name == ResolverCold
	w, err := BuildWorld(seed, isResolver)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x726f6f74))
	inst := &Instance{Name: name, World: w}
	switch name {
	case AuthHot, ZoneRefresh:
		err = inst.setupAuth(rng, false)
	case AuthJunkDO:
		err = inst.setupAuth(rng, true)
	case ResolverWarm, ResolverCold:
		err = inst.setupResolver(rng, name == ResolverCold)
	default:
		err = fmt.Errorf("bench: unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	return inst, nil
}

func (in *Instance) setupAuth(rng *rand.Rand, junk bool) error {
	w := in.World
	srv := authserver.New(w.Zone)
	in.Auth = srv
	in.Handler = srv.DatagramHandler()
	in.Install = func(z *zone.Zone) error { srv.SetZone(z); return nil }
	in.Serial = func() uint32 { return srv.Zone().Serial() }
	// While zone_refresh swaps the zone under the stream, a sampled DS
	// answer may predate the revision it is compared with.
	exact := in.Name != ZoneRefresh
	in.Verify = func(_ oracle.Sample, m *dnswire.Message) error {
		return oracle.Auth(srv.Zone(), m, junk, exact)
	}
	if junk {
		tmpl, err := junkTemplates(nil, templates, w, rng, true)
		if err != nil {
			return err
		}
		in.Load = &uniqueLoad{tmpl: tmpl}
		return nil
	}
	load, err := hotLoad(w, rng)
	in.Load = load
	return err
}

func (in *Instance) setupResolver(rng *rand.Rand, cold bool) error {
	w := in.World
	in.Fabric = NewFabric(rng.Int63(), w.Zone)
	// The resolver's clock starts at the zone date and runs in real
	// time, so the zone's signatures are in their validity window.
	start := time.Now()
	r := resolver.New(resolver.Config{
		Mode:           resolver.RootModeLookaside,
		LocalZone:      w.Zone,
		Transport:      in.Fabric,
		Clock:          func() time.Time { return ZoneDate.Add(time.Since(start)) },
		CacheCapacity:  resolverCache,
		Coalesce:       true,
		Validate:       validator.PolicyStrict,
		TrustAnchor:    w.Signer.TrustAnchor(),
		NSECAggressive: true,
		Seed:           rng.Int63(),
	})
	// New does not verify the zone it is given; SetLocalZone does, and
	// answers from a verified copy carry AD, as in resolverd.
	r.SetLocalZone(w.Zone)
	in.Resolver = r
	in.Handler = resolver.NewServer(r).DatagramHandler()

	if cold {
		var tmpl []template
		tldPick := rand.NewZipf(rng, 1.1, 1, uint64(len(w.TLDs)-1))
		valid := templates * 7 / 10
		for i := 0; i < valid; i++ {
			name := dnswire.Name("h" + seqLabel + ".d" + seqLabel + "." + string(w.TLDs[tldPick.Uint64()]))
			t, err := newTemplate(name, dnswire.RcodeSuccess, false)
			if err != nil {
				return err
			}
			tmpl = append(tmpl, t)
		}
		tmpl, err := junkTemplates(tmpl, templates-valid, w, rng, false)
		if err != nil {
			return err
		}
		// Interleave valid and junk so the mix is a mix at every time
		// scale, not a run of one kind after another.
		rng.Shuffle(len(tmpl), func(i, j int) { tmpl[i], tmpl[j] = tmpl[j], tmpl[i] })
		load := &uniqueLoad{tmpl: tmpl}
		in.Load = load
		in.Verify = func(s oracle.Sample, m *dnswire.Message) error {
			if load.tmpl[s.Tag].rcode == dnswire.RcodeNXDomain {
				return oracle.Denied(m)
			}
			return oracle.Resolved(m, in.Fabric.AddrFor)
		}
		return nil
	}

	tldPick := rand.NewZipf(rng, 1.1, 1, uint64(len(w.TLDs)-1))
	seen := make(map[dnswire.Name]bool)
	load := &fixedLoad{}
	for len(load.wires) < warmNames {
		name := dnswire.Name(fmt.Sprintf("www.site%d.%s", rng.Intn(200), w.TLDs[tldPick.Uint64()]))
		if seen[name] {
			continue
		}
		seen[name] = true
		wire, err := packQuery(name, dnswire.TypeA, false)
		if err != nil {
			return err
		}
		load.wires = append(load.wires, wire)
		// Cache warm: the measured stream then never leaves the cache.
		if _, err := r.Resolve(name, dnswire.TypeA); err != nil {
			return fmt.Errorf("bench: warming %s: %w", name, err)
		}
		in.ReplayNames = append(in.ReplayNames, dnswire.Question{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassINET})
	}
	load.order = zipfOrder(rng, warmNames, 1<<16)
	in.Load = load
	in.Verify = func(_ oracle.Sample, m *dnswire.Message) error {
		return oracle.Resolved(m, in.Fabric.AddrFor)
	}
	return nil
}
