package traffic

import (
	"hash/maphash"
	"net/netip"
	"strings"
	"sync/atomic"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// dupBits sizes the recent-duplicate filter: 2^dupBits fingerprint slots,
// giving a "recently" window of one-to-two times 2^dupBits observations.
const dupBits = 13

// Analyzer is the streaming composition analyzer a daemon installs on
// its query path. Observe classifies one query (~tens of nanoseconds,
// zero allocations) and feeds the sketches; ObserveClient does the same
// for the client address on the socket path. All state is atomic or
// lock-free-read, so one Analyzer serves every serving goroutine. All
// methods are nil-receiver-safe: instrumented code needs no enabled
// checks, mirroring the tracer's contract.
type Analyzer struct {
	seed maphash.Seed
	tlds atomic.Pointer[TLDSet]

	observed atomic.Int64 // queries seen (Observe calls)
	clients  atomic.Int64 // client addresses seen (ObserveClient calls)
	classes  [NumClasses]counter

	// dup detects exact (qname,qtype-agnostic) repeats within a recent
	// window: a fingerprint table stamped with an epoch byte derived from
	// the observation count, so entries age out without any sweeper.
	dup [1 << dupBits]atomic.Uint64

	topQnames  *TopK[string]
	topClients *TopK[netip.Addr]
	uqQnames   *HLL
	uqClients  *HLL
}

// NewAnalyzer builds an analyzer over the given valid-TLD universe,
// tracking the k heaviest qnames and clients (k <= 0 defaults to 20).
func NewAnalyzer(tlds *TLDSet, k int) *Analyzer {
	if k <= 0 {
		k = 20
	}
	a := &Analyzer{
		seed:       maphash.MakeSeed(),
		topQnames:  NewTopK[string](k),
		topClients: NewTopK[netip.Addr](k),
		uqQnames:   NewHLL(DefaultHLLPrecision),
		uqClients:  NewHLL(DefaultHLLPrecision),
	}
	a.tlds.Store(tlds)
	return a
}

// SetTLDs swaps in a fresh valid-TLD universe (zone reload). Nil-safe.
func (a *Analyzer) SetTLDs(tlds *TLDSet) {
	if a != nil {
		a.tlds.Store(tlds)
	}
}

// Observe classifies one query, updates the per-class counters and the
// qname sketches, and returns the class (for span tagging). name is only
// read: the top-K table keeps a copy of a name it admits. Zero
// allocations but on admission; nil-safe (a nil analyzer reports
// ClassValid).
func (a *Analyzer) Observe(name dnswire.Name, qtype dnswire.Type) Class {
	if a == nil {
		return ClassValid
	}
	c := Classify(name, qtype, a.tlds.Load())
	n := a.observed.Add(1)
	h := maphash.String(a.seed, string(name))
	if a.seenRecently(h, n) && c == ClassValid {
		c = ClassValidRepeat
	}
	a.classes[c].Add(1)
	a.uqQnames.Add(h)
	if a.topQnames.Offer(string(name), h) {
		a.topQnames.Admit(strings.Clone(string(name)), h) // name may be a view
	}
	return c
}

// ObserveClient records one query's source address into the client
// sketches. Zero allocations on the hot path (the address is only
// rendered to a string if it is promoted into the top-K). Nil-safe.
func (a *Analyzer) ObserveClient(addr netip.Addr) {
	if a == nil || !addr.IsValid() {
		return
	}
	a.clients.Add(1)
	h := addrHash(addr)
	a.uqClients.Add(h)
	if a.topClients.Offer(addr, h) {
		a.topClients.Admit(addr, h)
	}
}

// addrHash mixes an address's 16-byte form into a 64-bit hash without
// maphash (whose []byte path would force the array to escape).
func addrHash(addr netip.Addr) uint64 {
	b := addr.As16()
	hi := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	lo := uint64(b[8])<<56 | uint64(b[9])<<48 | uint64(b[10])<<40 | uint64(b[11])<<32 |
		uint64(b[12])<<24 | uint64(b[13])<<16 | uint64(b[14])<<8 | uint64(b[15])
	return mix64(hi ^ mix64(lo^0x9e3779b97f4a7c15))
}

// mix64 is the splitmix64 finalizer: cheap, well-distributed, stateless.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// seenRecently reports whether h was observed within the last ~2^dupBits
// observations, then stamps it. Each slot stores a fingerprint (the high
// bits of h) plus an epoch byte; an entry whose epoch is current or
// one old counts as recent, so the effective window slides between
// 2^dupBits and 2^(dupBits+1) observations without any cleanup pass.
func (a *Analyzer) seenRecently(h uint64, n int64) bool {
	epoch := uint64(n>>dupBits) & 0xff
	slot := &a.dup[h&(1<<dupBits-1)]
	want := h&^uint64(0xff) | epoch
	old := slot.Load()
	slot.Store(want)
	if old&^uint64(0xff) != h&^uint64(0xff) {
		return false
	}
	oldEpoch := old & 0xff
	return oldEpoch == epoch || oldEpoch == (epoch-1)&0xff
}

// Observed returns how many queries Observe has classified. Nil-safe.
func (a *Analyzer) Observed() int64 {
	if a == nil {
		return 0
	}
	return a.observed.Load()
}

// Counts returns the per-class query counts. Nil-safe.
func (a *Analyzer) Counts() [NumClasses]int64 {
	var out [NumClasses]int64
	if a == nil {
		return out
	}
	for i := range out {
		out[i] = a.classes[i].Load()
	}
	return out
}

// JunkShare is the fraction of observed queries in any junk class.
func (a *Analyzer) JunkShare() float64 {
	counts := a.Counts()
	total, junk := int64(0), int64(0)
	for c, n := range counts {
		total += n
		if Class(c).Junk() {
			junk += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(junk) / float64(total)
}

// UniqueQnames estimates the distinct-qname cardinality. Nil-safe.
func (a *Analyzer) UniqueQnames() float64 {
	if a == nil {
		return 0
	}
	return a.uqQnames.Estimate()
}

// UniqueClients estimates the distinct-client cardinality. Nil-safe.
func (a *Analyzer) UniqueClients() float64 {
	if a == nil {
		return 0
	}
	return a.uqClients.Estimate()
}

// TopQnames returns the heaviest-hitter qnames, heaviest first. Nil-safe.
func (a *Analyzer) TopQnames(n int) []Counted[string] {
	if a == nil {
		return nil
	}
	return a.topQnames.Top(n)
}

// TopClients returns the heaviest-hitter clients, heaviest first. Nil-safe.
func (a *Analyzer) TopClients(n int) []Counted[netip.Addr] {
	if a == nil {
		return nil
	}
	return a.topClients.Top(n)
}

// Collect implements obs.Collector: the rootless_traffic_* families.
// Nil-safe so daemons can register unconditionally.
func (a *Analyzer) Collect(r *obs.Registry) {
	if a == nil {
		return
	}
	counts := a.Counts()
	for _, c := range Classes() {
		r.Counter("rootless_traffic_class_total",
			"queries observed by composition class (§2.2 taxonomy)",
			obs.Labels{"class": c.String()}).Set(counts[c])
	}
	r.Counter("rootless_traffic_observed_total",
		"queries classified by the traffic analyzer", nil).Set(a.Observed())
	r.Counter("rootless_traffic_clients_observed_total",
		"client addresses observed by the traffic analyzer", nil).Set(a.clients.Load())
	r.Gauge("rootless_traffic_unique_qnames",
		"HyperLogLog estimate of distinct qnames observed", nil).Set(a.UniqueQnames())
	r.Gauge("rootless_traffic_unique_clients",
		"HyperLogLog estimate of distinct client addresses observed", nil).Set(a.UniqueClients())
}
