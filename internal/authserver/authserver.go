// Package authserver implements an authoritative DNS server over a zone:
// the referral/answer/NXDOMAIN logic of RFC 1034 §4.3.2, response-size
// truncation, and statistics. The same engine serves three transports:
// the netsim simulated network (experiments), real UDP sockets, and real
// TCP with AXFR zone transfer (one of the paper's §3 distribution paths).
package authserver

import (
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/obs/traffic"
	"rootless/internal/overload"
	"rootless/internal/zone"
)

// Stats counts server activity, broken down the way the paper's root
// traffic analysis needs. The server's own copy is moved only by atomic
// adds (TestStatsWritesAreAtomic) and read by the Stats snapshot.
type Stats struct {
	Queries   int64
	Answers   int64
	Referrals int64
	NXDomain  int64
	NoData    int64
	Refused   int64
	FormErr   int64
	Truncated int64
	AXFRs     int64
	IXFRs     int64
	// ResponsesDropped counts datagrams that arrived with QR set:
	// responses, which ServeWire drops unparsed and unanswered.
	ResponsesDropped int64
	// Overload-protection outcomes (PR 3): queries dropped by the
	// per-client limiter, shed at the admission gate, and responses
	// suppressed or slipped (sent truncated) by response-rate-limiting.
	RateLimited int64
	Shed        int64
	RRLDropped  int64
	RRLSlipped  int64
	// Packed-answer cache outcomes (PR 5): queries served from the
	// precompiled-answer cache vs built from the zone, and how many
	// wire-format Pack calls the server has made (a hit makes none, a
	// miss one, and one more per record dropped to fit the client).
	PackedHits   int64
	PackedMisses int64
	WirePacks    int64
}

// Server answers queries for one zone. The zone may be swapped atomically
// while serving (SetZone), which is how a local root instance refreshes.
type Server struct {
	// stats is moved only by atomic adds. First in the struct, so its
	// words are 64-bit aligned on 32-bit platforms too.
	stats Stats

	// TCPTimeout bounds each individual TCP read and write (default
	// 30 s), so a stalled peer can never park a connection goroutine —
	// or an AXFR/IXFR stream — forever. Set before serving.
	TCPTimeout time.Duration

	// What a query reads, each with one atomic load and no lock: the
	// zone, the overload protection SetOverload installed, and the
	// precompiled answers (nil = disabled).
	zone     atomic.Pointer[zone.Zone]
	guard    atomic.Pointer[protection]
	anscache atomic.Pointer[answerCache]

	// mu guards what only zone changes touch.
	mu      sync.Mutex
	journal *ixfrJournal // non-nil once EnableIXFR is called
	// secondaries receive a NOTIFY on every zone change.
	secondaries []string

	// traffic, when installed with SetTraffic, classifies every arriving
	// query — including ones the limiters drop, which is the point of a
	// junk-composition view. Opt-in so the packed-answer hit path stays
	// sketch-free by default.
	traffic atomic.Pointer[traffic.Analyzer]

	// tracer, when installed with SetTracer, joins sampled EDNS0 trace
	// options on arriving UDP queries to the querier's trace ID and ships
	// the auth-side span tree back in the response option, so either
	// daemon can serve /tracez?traceid= for the stitched resolution.
	tracer atomic.Pointer[obs.Tracer]

	// latency, when installed with InstrumentLatency, observes per-query
	// handle time into an HDR summary. Opt-in: uninstrumented handling
	// pays only one atomic load, no clock reads.
	latency atomic.Pointer[obs.HDR]
}

// DefaultAnswerCacheSize bounds the precompiled-answer cache New installs.
// The root zone has ~1500 TLDs × a handful of live qtypes × 3 EDNS modes,
// so 4096 entries cover the realistic hot set.
const DefaultAnswerCacheSize = 4096

// New creates a server for z with the packed-answer cache enabled at
// DefaultAnswerCacheSize. Use SetAnswerCache to resize or disable it.
func New(z *zone.Zone) *Server {
	s := &Server{}
	s.zone.Store(z)
	s.guard.Store(&protection{})
	s.SetAnswerCache(DefaultAnswerCacheSize)
	return s
}

// SetTraffic installs a streaming traffic analyzer (nil uninstalls).
func (s *Server) SetTraffic(a *traffic.Analyzer) { s.traffic.Store(a) }

// SetTracer installs (or removes, with nil) the tracer that joins
// propagated traces arriving over UDP. Safe to call while serving.
func (s *Server) SetTracer(t *obs.Tracer) { s.tracer.Store(t) }

// InstrumentLatency wires an HDR summary observing wall time per handled
// query (admission through answer/RRL) as
// rootless_authserver_handle_seconds{quantile=...}. Opt-in so the packed
// answer hot path stays clock-free by default.
func (s *Server) InstrumentLatency(reg *obs.Registry) {
	s.latency.Store(reg.HDRTimer("rootless_authserver_handle_seconds",
		"wall time per handled query (admission, answer, RRL)", nil))
}

// Tracer returns the installed tracer (nil when none).
func (s *Server) Tracer() *obs.Tracer { return s.tracer.Load() }

// TailLatencySeconds returns the handle-latency HDR tail
// (obs.TailQuantiles: p50/p99/p999/p9999, in seconds) and whether
// InstrumentLatency has installed the histogram.
func (s *Server) TailLatencySeconds() ([4]float64, bool) {
	h := s.latency.Load()
	if h == nil {
		return [4]float64{}, false
	}
	return h.TailSeconds(), true
}

// Traffic returns the installed analyzer (nil when none).
func (s *Server) Traffic() *traffic.Analyzer { return s.traffic.Load() }

// SetAnswerCache installs a fresh packed-answer cache bounded to capacity
// entries, discarding any precompiled answers. capacity <= 0 disables
// answer caching entirely.
func (s *Server) SetAnswerCache(capacity int) {
	if capacity <= 0 {
		s.anscache.Store(nil)
		return
	}
	s.anscache.Store(newAnswerCache(capacity))
}

// pack is Pack with accounting: Stats.WirePacks is how benchmarks prove
// the packed-answer hit path never serializes a message and a miss
// serializes it once.
func (s *Server) pack(m *dnswire.Message) ([]byte, error) {
	atomic.AddInt64(&s.stats.WirePacks, 1)
	return m.Pack()
}

// Zone returns the currently served zone.
func (s *Server) Zone() *zone.Zone { return s.zone.Load() }

// SetZone atomically replaces the served zone. With IXFR enabled the
// version is journaled for incremental transfer service. Every
// precompiled answer is invalidated: the packed-answer cache is swapped
// for an empty one of the same capacity.
func (s *Server) SetZone(z *zone.Zone) {
	s.mu.Lock()
	s.zone.Store(z)
	journal := s.journal
	s.mu.Unlock()
	if old := s.anscache.Load(); old != nil {
		s.anscache.Store(newAnswerCache(old.capacity))
	}
	if journal != nil {
		journal.push(z)
	}
	s.notifySecondaries(z)
}

// Stats returns a snapshot of the counters. Each is read atomically; a
// snapshot taken while queries run may show one counter a query ahead
// of another.
func (s *Server) Stats() Stats {
	var out Stats
	src, dst := reflect.ValueOf(&s.stats).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < dst.NumField(); i++ {
		dst.Field(i).SetInt(atomic.LoadInt64(src.Field(i).Addr().Interface().(*int64)))
	}
	return out
}

// Collect implements obs.Collector: the Stats counters plus gauges for
// the served zone's serial and size.
func (s *Server) Collect(reg *obs.Registry) {
	obs.SetCountersFromStruct(reg, "rootless_authserver", "authoritative server activity", nil, s.Stats())
	z := s.Zone()
	reg.Gauge("rootless_authserver_zone_serial", "serial of the served zone", nil).
		Set(float64(z.Serial()))
	reg.Gauge("rootless_authserver_zone_records", "records in the served zone", nil).
		Set(float64(z.Len()))
	if ac := s.anscache.Load(); ac != nil {
		reg.Gauge("rootless_authserver_packed_answers", "precompiled answers resident in the packed-answer cache", nil).
			Set(float64(ac.len()))
	}
	p := s.guard.Load()
	if p.gate != nil {
		reg.Gauge("rootless_authserver_gate_in_use", "admission slots currently held", nil).
			Set(float64(p.gate.InUse()))
		reg.Gauge("rootless_authserver_gate_capacity", "admission slot capacity", nil).
			Set(float64(p.gate.Capacity()))
	}
	if p.clients != nil {
		reg.Gauge("rootless_authserver_limited_clients", "client token buckets resident", nil).
			Set(float64(p.clients.Tracked()))
	}
	if p.rrl != nil {
		reg.Gauge("rootless_authserver_rrl_states", "RRL response-class states resident", nil).
			Set(float64(p.rrl.Tracked()))
	}
	if an := s.traffic.Load(); an != nil {
		an.Collect(reg)
	}
}

// Handle implements netsim.Handler: it answers one query message. A nil
// return means "send nothing" — the per-client limiter and the admission
// gate drop over-rate and over-capacity queries silently, and RRL may
// drop (or slip, truncated) a response after it is built. Transports
// must treat nil as a dropped packet; netsim charges the querier a
// timeout. An invalid from address (netsim's anonymous source, TCP)
// bypasses the per-client and RRL checks but not the gate.
func (s *Server) Handle(q *dnswire.Message, from netip.Addr) *dnswire.Message {
	return s.HandleTraced(nil, q, from)
}

// HandleTraced is Handle carrying the querier's trace (netsim's
// TracedHandler): the auth span covers admission, zone lookup, and RRL,
// and overload verdicts become trace events so a client-side trace shows
// *why* a query died server-side. A nil trace costs nothing.
func (s *Server) HandleTraced(tr *obs.Trace, m *dnswire.Message, from netip.Addr) *dnswire.Message {
	q, _ := m.Query() // a question count other than one is answered FORMERR
	return s.handle(tr, &q, from).message(&q)
}

// reply is what the pipeline made of one query. A hit hands back the
// cache entry, whose template and wire are shared and read-only; an
// NXDOMAIN whose denial image fits the question hands back the denial,
// shared and read-only too; any other reply is a message built for this
// query. wire, when set, is the reply's image with ID zero and RD clear
// — the hit's, or the one pack a miss made — for the UDP transport to
// patch-copy. The zero reply is a drop.
type reply struct {
	hit    *ansEntry
	denial *denial
	msg    *dnswire.Message
	wire   []byte
}

func (r reply) dropped() bool { return r.hit == nil && r.denial == nil && r.msg == nil }

func (r reply) rcode() dnswire.Rcode {
	switch {
	case r.hit != nil:
		return r.hit.template.Rcode
	case r.denial != nil:
		return dnswire.RcodeNXDomain
	}
	return r.msg.Rcode
}

// message returns the reply as a Message of its own: on a hit, a copy of
// the template, and for a denial a message carrying its records, with
// q's ID and RD patched in. Nil for a drop.
func (r reply) message(q *dnswire.Query) *dnswire.Message {
	var m *dnswire.Message
	switch {
	case r.hit != nil:
		t := r.hit.template // struct copy; sections shared and read-only
		m = &t
	case r.denial != nil:
		m = r.denial.message(q)
	default:
		return r.msg
	}
	m.ID, m.RecursionDesired = q.ID, q.Flags&dnswire.FlagRD != 0
	return m
}

// handle runs the full admission/answer/RRL pipeline.
func (s *Server) handle(tr *obs.Trace, q *dnswire.Query, from netip.Addr) reply {
	if h := s.latency.Load(); h != nil {
		start := time.Now()
		defer func() { h.RecordDuration(time.Since(start)) }()
	}
	sp := tr.StartSpan(obs.PhaseAuth, "auth")
	defer sp.End()
	atomic.AddInt64(&s.stats.Queries, 1)
	if an := s.traffic.Load(); an != nil {
		if name := q.Name(); name != "" {
			class := an.Observe(name, q.Type)
			tr.SetClass(class.String())
		}
		if from.IsValid() {
			an.ObserveClient(from)
		}
	}
	p := s.guard.Load()
	var now time.Time
	if p.clients != nil || p.rrl != nil {
		now = p.now() // one clock read shared by both limiters
	}
	if !p.clients.Allow(from, now) {
		atomic.AddInt64(&s.stats.RateLimited, 1)
		sp.SetDetail("rate-limited")
		tr.Eventf("auth-drop", "per-client limit exceeded")
		return reply{}
	}
	if !p.gate.Acquire() {
		atomic.AddInt64(&s.stats.Shed, 1)
		sp.SetDetail("shed")
		tr.Eventf("auth-drop", "server admission gate full")
		return reply{}
	}
	defer p.gate.Release()
	r := s.answer(q)
	if p.rrl == nil || !from.IsValid() {
		return r // RRL would send it: no token to build
	}
	switch p.rrl.Decide(from, uint8(r.rcode()), string(q.Name()), now) {
	case overload.RRLDrop:
		atomic.AddInt64(&s.stats.RRLDropped, 1)
		sp.SetDetail("rrl-dropped")
		tr.Eventf("auth-drop", "response rate-limited (dropped)")
		return reply{}
	case overload.RRLSlip:
		atomic.AddInt64(&s.stats.RRLSlipped, 1)
		sp.SetDetail("rrl-slipped")
		tr.Eventf("auth-slip", "response rate-limited (slipped truncated)")
		return reply{msg: slipResponse(r.message(q))} // the wire no longer matches
	}
	return r
}

// response is a reply message allocated with its question's backing
// array, so a reply costs one allocation whether or not it echoes one.
type response struct {
	msg      dnswire.Message
	question [1]dnswire.Question
}

// newResponse starts the reply to q: header and question, ID zero and RD
// clear — the neutral form a packed answer is cached in. The question is
// the reply's own: its name is a copy of q's view, and what a miss keeps
// of the name (the cache key, the zone's answer) is that copy.
func newResponse(q *dnswire.Query) *dnswire.Message {
	r := &response{msg: dnswire.Message{Response: true, Opcode: q.Opcode()}}
	if name := q.Name(); name != "" {
		r.question[0] = dnswire.Question{Name: name.Clone(), Type: q.Type, Class: q.Class}
		r.msg.Questions = r.question[:]
	}
	return &r.msg
}

// answer builds the reply for one already-admitted query, consulting the
// packed-answer cache first: nothing is allocated for a hit.
func (s *Server) answer(q *dnswire.Query) reply {
	name := q.Name()
	switch {
	case q.Opcode() != dnswire.OpcodeQuery:
		atomic.AddInt64(&s.stats.FormErr, 1)
		return refuse(q, dnswire.RcodeNotImpl)
	case name == "": // not exactly one question
		atomic.AddInt64(&s.stats.FormErr, 1)
		return refuse(q, dnswire.RcodeFormat)
	case q.Class != dnswire.ClassINET || q.Type == dnswire.TypeAXFR || q.Type == dnswire.TypeIXFR:
		atomic.AddInt64(&s.stats.Refused, 1)
		return refuse(q, dnswire.RcodeRefused)
	}

	// The response depends on the question plus two EDNS attributes: the
	// advertised size (truncation limit) and the DO bit (DNSSEC records).
	// An OPT advertising size zero is read as no OPT at all.
	size, do := q.UDPSize, q.DO
	limit := max(dnswire.MaxUDPSize, int(size))
	var ednsMode uint8
	if size > 0 {
		ednsMode = 1
		if do {
			ednsMode = 2
		}
	}

	key := ansKey{name: name, typ: q.Type, edns: ednsMode}
	ac := s.anscache.Load()
	if ac != nil {
		// Cached entries are never truncated, so any entry that fits this
		// client's limit is exactly what a fresh build would produce; a
		// client advertising a smaller size falls through to a fresh
		// (possibly truncated) build without polluting the cache.
		if e := ac.get(key); e != nil && len(e.wire) <= limit {
			atomic.AddInt64(&s.stats.PackedHits, 1)
			e.class.bump(&s.stats)
			return reply{hit: e, wire: e.wire}
		}
		atomic.AddInt64(&s.stats.PackedMisses, 1)
	}

	// A name the zone denies is answered from the precompiled denial for
	// its NSEC pair and EDNS mode: written without a Message when the
	// denial's image fits this question and client, and otherwise packed
	// below, like any other miss, from the same records.
	z := s.Zone()
	var resp *dnswire.Message
	var class statClass
	if d, ok := z.Deny(name); ok && d.NXDomain {
		dn := s.denial(z, ac, d, ednsMode)
		if dn.fits(name, limit) {
			ansNXDomain.bump(&s.stats)
			return reply{denial: dn}
		}
		resp, class = dn.message(q), ansNXDomain
	} else {
		resp, class = s.build(z, q)
	}

	// From here to the pack resp is the neutral template, ID zero and RD
	// clear: its one wire image is the size check, the cache entry and
	// what the UDP transport patch-copies into the reply.
	wire := s.packWithin(resp, limit)
	class.bump(&s.stats)
	if resp.Truncated {
		atomic.AddInt64(&s.stats.Truncated, 1)
	}

	// NXDOMAIN is never cached: the names that do not exist are without
	// number, and one entry per junk qname would push the finite set of
	// real answers out of the cache. It is precompiled per NSEC pair
	// instead (denial). The entry's key names the template's own copy of
	// the question: key.name is q's view.
	if ac != nil && wire != nil && !resp.Truncated && class != ansNXDomain {
		kept := ansKey{name: resp.Questions[0].Name, typ: key.typ, edns: key.edns}
		ac.put(kept, &ansEntry{template: *resp, wire: wire, class: class})
	}
	resp.ID, resp.RecursionDesired = q.ID, q.Flags&dnswire.FlagRD != 0
	return reply{msg: resp, wire: wire}
}

// build makes the neutral template of the reply to q from the zone's
// answer: anything but an NXDOMAIN, which denial makes. The zone is asked
// for the template's copy of the name, which its answer may keep.
func (s *Server) build(z *zone.Zone, q *dnswire.Query) (*dnswire.Message, statClass) {
	resp := newResponse(q)
	question := resp.Questions[0]
	ans := z.Query(question.Name, question.Type)
	resp.Rcode = ans.Rcode
	resp.Authoritative = ans.Authoritative
	resp.Answers = ans.Answer
	resp.Authority = ans.Authority
	resp.Additional = ans.Additional

	var class statClass
	switch {
	case ans.Rcode == dnswire.RcodeRefused:
		class = ansRefused
	case len(ans.Answer) > 0:
		class = ansAnswer
	case !ans.Authoritative && len(ans.Authority) > 0:
		class = ansReferral
	default:
		class = ansNoData
	}

	// Echo EDNS: advertise our own buffer size and respect the client's
	// for truncation purposes. With the DO bit set, attach DNSSEC proof
	// material (RRSIGs and NSEC denial records) from the signed zone.
	if q.UDPSize > 0 {
		if q.DO {
			addDNSSEC(z, resp, question)
		}
		resp.SetEDNS(dnswire.DefaultEDNSSize, q.DO)
	}
	return resp, class
}

// refuse answers q with rcode alone: header, and the question if it had
// exactly one.
func refuse(q *dnswire.Query, rcode dnswire.Rcode) reply {
	resp := newResponse(q)
	resp.Rcode = rcode
	resp.ID, resp.RecursionDesired = q.ID, q.Flags&dnswire.FlagRD != 0
	return reply{msg: resp}
}

// packWithin packs m, and while the image exceeds limit marks m truncated,
// drops a record and packs again: additional first, then authority, then
// answers, per common server practice. It returns the image that fits,
// or nil if m cannot be packed.
func (s *Server) packWithin(m *dnswire.Message, limit int) []byte {
	for {
		wire, err := s.pack(m)
		if err != nil {
			return nil
		}
		if len(wire) <= limit {
			return wire
		}
		m.Truncated = true
		switch {
		case len(m.Additional) > 0:
			m.Additional = m.Additional[:len(m.Additional)-1]
		case len(m.Authority) > 0:
			m.Authority = m.Authority[:len(m.Authority)-1]
		case len(m.Answers) > 0:
			m.Answers = m.Answers[:len(m.Answers)-1]
		default:
			return wire
		}
	}
}

// addDNSSEC augments a response with signatures and denial proofs when
// the client signalled DNSSEC awareness (DO). Unsigned zones yield no
// extra records.
func addDNSSEC(z *zone.Zone, resp *dnswire.Message, question dnswire.Question) {
	resp.Answers = append(resp.Answers, signaturesFor(z, resp.Answers)...)
	resp.Authority = append(resp.Authority, signaturesFor(z, resp.Authority)...)
	// NODATA and unsigned-delegation referrals need the NSEC at the
	// closest signed name, proving the type, or the DS, does not exist.
	if resp.Rcode == dnswire.RcodeSuccess && len(resp.Answers) == 0 {
		if nsec, ok := z.NSECCovering(question.Name); ok {
			resp.Authority = append(resp.Authority, nsec)
			resp.Authority = append(resp.Authority, z.SignaturesFor(nsec.Name, dnswire.TypeNSEC)...)
		}
	}
}

// signaturesFor returns the signatures covering each RRset in section.
func signaturesFor(z *zone.Zone, section []dnswire.RR) []dnswire.RR {
	keys, _ := dnswire.GroupRRsets(section)
	var sigs []dnswire.RR
	for _, k := range keys {
		if k.Type != dnswire.TypeRRSIG {
			sigs = append(sigs, z.SignaturesFor(k.Name, k.Type)...)
		}
	}
	return sigs
}

// denial returns the precompiled NXDOMAIN for the names d stands for in
// one EDNS mode, from the memo or made and memoised: the SOA; under DO
// its signature, the NSEC covering the name and the one covering the
// wildcard at its closest encloser, unless the first is both, with their
// signatures (RFC 4035 §3.1.3.2); and the OPT in either EDNS mode. The
// records go into a template message whose question is the apex, packed
// once into the image every fitting question is written from.
func (s *Server) denial(z *zone.Zone, ac *answerCache, d zone.Denial, ednsMode uint8) *denial {
	k := denialKey{edns: ednsMode}
	if ednsMode == 2 {
		k.cover, k.wildcard = d.Cover.Name, d.Wildcard.Name
	}
	if dn := ac.denial(k); dn != nil {
		return dn
	}
	m := &dnswire.Message{Response: true, Authoritative: true, Rcode: dnswire.RcodeNXDomain,
		Questions: []dnswire.Question{{Name: z.Origin, Type: dnswire.TypeSOA, Class: dnswire.ClassINET}},
		Authority: z.Lookup(z.Origin, dnswire.TypeSOA)}
	if ednsMode == 2 {
		m.Authority = append(m.Authority, signaturesFor(z, m.Authority)...)
		if d.Cover.Data != nil {
			m.Authority = append(m.Authority, d.Cover)
			m.Authority = append(m.Authority, z.SignaturesFor(d.Cover.Name, dnswire.TypeNSEC)...)
		}
		if d.Wildcard.Data != nil && d.Wildcard.Name != d.Cover.Name {
			m.Authority = append(m.Authority, d.Wildcard)
			m.Authority = append(m.Authority, z.SignaturesFor(d.Wildcard.Name, dnswire.TypeNSEC)...)
		}
	}
	if ednsMode > 0 {
		m.SetEDNS(dnswire.DefaultEDNSSize, ednsMode == 2)
	}
	atomic.AddInt64(&s.stats.WirePacks, 1)
	image, _ := dnswire.NewImage(m) // nil if the zone's records do not pack: then nothing fits
	dn := &denial{authority: slices.Clone(m.Authority), additional: slices.Clone(m.Additional), image: image}
	ac.putDenial(k, dn)
	return dn
}
