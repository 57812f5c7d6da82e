package traffic

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http/httptest"
	"net/netip"
	"sync"
	"testing"
	"unsafe"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

func testTLDs() *TLDSet {
	return NewTLDSet([]dnswire.Name{"com.", "org.", "net.", "arpa.", "llc."})
}

func TestClassify(t *testing.T) {
	tlds := testTLDs()
	cases := []struct {
		name  dnswire.Name
		qtype dnswire.Type
		want  Class
	}{
		{"www.example.com.", dnswire.TypeA, ClassValid},
		{"com.", dnswire.TypeNS, ClassValid},
		{".", dnswire.TypeNS, ClassValid}, // priming query
		{"printer.local.", dnswire.TypeA, ClassBogusTLD},
		{"host.corp.", dnswire.TypeA, ClassBogusTLD},
		{"x1234-zz.", dnswire.TypeA, ClassBogusTLD},             // single label, not probe-shaped
		{"abcdefg.", dnswire.TypeA, ClassChromiumProbe},         // 7 lowercase letters
		{"qwertyuiopasdfg.", dnswire.TypeA, ClassChromiumProbe}, // 15
		{"abcdef.", dnswire.TypeA, ClassBogusTLD},               // 6: too short for a probe
		{"qwertyuiopasdfgh.", dnswire.TypeA, ClassBogusTLD},     // 16: too long
		{"abcdefgh.com.", dnswire.TypeA, ClassValid},            // probe shape under a valid TLD
		{"4.3.2.10.in-addr.arpa.", dnswire.TypePTR, ClassPTRPrivate},
		{"1.0.0.127.in-addr.arpa.", dnswire.TypePTR, ClassPTRPrivate},
		{"9.8.168.192.in-addr.arpa.", dnswire.TypePTR, ClassPTRPrivate},
		{"1.1.16.172.in-addr.arpa.", dnswire.TypePTR, ClassPTRPrivate},
		{"1.1.31.172.in-addr.arpa.", dnswire.TypePTR, ClassPTRPrivate},
		{"1.1.32.172.in-addr.arpa.", dnswire.TypePTR, ClassValid}, // 172.32 is public
		{"7.7.254.169.in-addr.arpa.", dnswire.TypePTR, ClassPTRPrivate},
		{"4.3.2.8.in-addr.arpa.", dnswire.TypePTR, ClassValid}, // 8.2.3.4 is public
		{"4.3.2.10.in-addr.arpa.", dnswire.TypeA, ClassValid},  // not a PTR query
		{"x.in-addr.arpa.", dnswire.TypePTR, ClassValid},       // malformed octet
	}
	for _, c := range cases {
		if got := Classify(c.name, c.qtype, tlds); got != c.want {
			t.Errorf("Classify(%q, %v) = %v, want %v", c.name, c.qtype, got, c.want)
		}
	}
}

func TestClassifyNilSet(t *testing.T) {
	if got := Classify("www.example.com.", dnswire.TypeA, nil); got != ClassBogusTLD {
		t.Errorf("nil TLD set should make every TLD bogus, got %v", got)
	}
}

func TestClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Classes() {
		s := c.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("class %d has bad or duplicate label %q", c, s)
		}
		seen[s] = true
	}
	if !ClassBogusTLD.InvalidTLD() || !ClassChromiumProbe.InvalidTLD() || ClassPTRPrivate.InvalidTLD() {
		t.Error("InvalidTLD must cover exactly the invalid-TLD classes")
	}
	if ClassValid.Junk() || !ClassValidRepeat.Junk() {
		t.Error("Junk: valid is not junk, everything else is")
	}
}

func TestAnalyzerRepeats(t *testing.T) {
	a := NewAnalyzer(testTLDs(), 8)
	if got := a.Observe("www.example.com.", dnswire.TypeA); got != ClassValid {
		t.Fatalf("first observation = %v", got)
	}
	if got := a.Observe("www.example.com.", dnswire.TypeA); got != ClassValidRepeat {
		t.Fatalf("second observation = %v, want repeat", got)
	}
	// A repeat of a bogus name stays in its junk class.
	a.Observe("bogus.invalid.", dnswire.TypeA)
	if got := a.Observe("bogus.invalid.", dnswire.TypeA); got != ClassBogusTLD {
		t.Fatalf("bogus repeat = %v, want bogus_tld", got)
	}
	counts := a.Counts()
	if counts[ClassValid] != 1 || counts[ClassValidRepeat] != 1 || counts[ClassBogusTLD] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestAnalyzerJunkShare(t *testing.T) {
	a := NewAnalyzer(testTLDs(), 8)
	for i := 0; i < 60; i++ {
		a.Observe(dnswire.Name(fmt.Sprintf("host%d.nonexistent.", i)), dnswire.TypeA)
	}
	for i := 0; i < 40; i++ {
		a.Observe(dnswire.Name(fmt.Sprintf("host%d.example.com.", i)), dnswire.TypeA)
	}
	if got := a.JunkShare(); got < 0.59 || got > 0.61 {
		t.Errorf("junk share = %f, want 0.60", got)
	}
}

// offer counts key and admits it when it becomes a contender, as the
// Analyzer does for a key it owns.
func offer[K comparable](tk *TopK[K], key K, h uint64) {
	if tk.Offer(key, h) {
		tk.Admit(key, h)
	}
}

func TestTopKHeavyHitters(t *testing.T) {
	const k = 8
	tk := NewTopK[string](k)
	seed := maphash.MakeSeed()
	hash := func(s string) uint64 { return maphash.String(seed, s) }
	truth := map[string]int64{}
	// Zipf-ish: a few heavy names amid a long random tail.
	rng := rand.New(rand.NewSource(7))
	heavy := []string{"a.com.", "b.com.", "c.com."}
	for i := 0; i < 50000; i++ {
		var key string
		switch {
		case rng.Intn(10) < 6:
			key = heavy[rng.Intn(len(heavy))]
		default:
			key = fmt.Sprintf("tail%d.com.", rng.Intn(5000))
		}
		truth[key]++
		offer(tk, key, hash(key))
	}
	top := tk.Top(k)
	if len(top) != k {
		t.Fatalf("top size = %d", len(top))
	}
	byKey := map[string]Counted[string]{}
	for _, e := range top {
		byKey[e.Key] = e
	}
	for _, h := range heavy {
		e, ok := byKey[h]
		if !ok {
			t.Fatalf("heavy hitter %q missing from top-%d", h, k)
		}
		// Space-Saving guarantee: count overestimates truth by ≤ Err.
		if e.Count < truth[h] || e.Count-e.Err > truth[h] {
			t.Errorf("%q: reported %d (±%d), truth %d", h, e.Count, e.Err, truth[h])
		}
	}
}

func TestHLLAccuracy(t *testing.T) {
	h := NewHLL(DefaultHLLPrecision)
	const n = 100000
	for i := 0; i < n; i++ {
		h.Add(mix64(uint64(i) + 0x1234))
	}
	est := h.Estimate()
	if est < 0.95*n || est > 1.05*n {
		t.Errorf("estimate %f for %d distinct (want within 5%%)", est, n)
	}
	// Small range: linear counting keeps tiny cardinalities near-exact.
	small := NewHLL(DefaultHLLPrecision)
	for i := 0; i < 10; i++ {
		small.Add(mix64(uint64(i) + 99))
	}
	if est := small.Estimate(); est < 9 || est > 11 {
		t.Errorf("small estimate %f, want ~10", est)
	}
}

func TestAnalyzerCollect(t *testing.T) {
	a := NewAnalyzer(testTLDs(), 8)
	a.Observe("www.example.com.", dnswire.TypeA)
	a.Observe("junk.bogus.", dnswire.TypeA)
	a.ObserveClient(netip.MustParseAddr("192.0.2.1"))
	reg := obs.NewRegistry()
	reg.AddCollector(a)
	byKey := map[string]float64{}
	for _, s := range reg.Snapshot() {
		byKey[s.Name+"/"+s.Labels["class"]] = s.Value
	}
	if byKey["rootless_traffic_class_total/valid"] != 1 ||
		byKey["rootless_traffic_class_total/bogus_tld"] != 1 {
		t.Errorf("class counters: %v", byKey)
	}
	if byKey["rootless_traffic_observed_total/"] != 2 {
		t.Errorf("observed total: %v", byKey["rootless_traffic_observed_total/"])
	}
	if byKey["rootless_traffic_unique_clients/"] < 0.5 {
		t.Errorf("unique clients: %v", byKey["rootless_traffic_unique_clients/"])
	}
}

func TestAnalyzerNilSafe(t *testing.T) {
	var a *Analyzer
	if got := a.Observe("x.com.", dnswire.TypeA); got != ClassValid {
		t.Errorf("nil Observe = %v", got)
	}
	a.ObserveClient(netip.MustParseAddr("192.0.2.1"))
	a.SetTLDs(nil)
	a.Collect(obs.NewRegistry())
	if a.Observed() != 0 || a.JunkShare() != 0 || a.TopQnames(5) != nil || a.UniqueQnames() != 0 {
		t.Error("nil analyzer must report zeroes")
	}
}

func TestAnalyzerConcurrent(t *testing.T) {
	a := NewAnalyzer(testTLDs(), 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a.Observe(dnswire.Name(fmt.Sprintf("h%d.example.com.", i%50)), dnswire.TypeA)
				a.ObserveClient(netip.AddrFrom4([4]byte{10, 0, byte(g), byte(i)}))
			}
		}(g)
	}
	wg.Wait()
	if a.Observed() != 16000 {
		t.Errorf("observed = %d", a.Observed())
	}
	if est := a.UniqueQnames(); est < 40 || est > 60 {
		t.Errorf("unique qnames = %f, want ~50", est)
	}
}

// TestObserveAllocs pins the hot-path contract: classifying a query and
// feeding every sketch allocates nothing.
func TestObserveAllocs(t *testing.T) {
	a := NewAnalyzer(testTLDs(), 8)
	name := dnswire.Name("www.example.com.")
	bogus := dnswire.Name("probe.invalid.")
	addr := netip.MustParseAddr("192.0.2.7")
	// Warm the top-K tables so the measured path is the steady state.
	a.Observe(name, dnswire.TypeA)
	a.ObserveClient(addr)
	if n := testing.AllocsPerRun(1000, func() {
		a.Observe(name, dnswire.TypeA)
		a.Observe(bogus, dnswire.TypeA)
	}); n != 0 {
		t.Errorf("Observe allocates %f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		a.ObserveClient(addr)
	}); n != 0 {
		t.Errorf("ObserveClient allocates %f per run, want 0", n)
	}
	tlds := testTLDs()
	if n := testing.AllocsPerRun(1000, func() {
		Classify(name, dnswire.TypeA, tlds)
	}); n != 0 {
		t.Errorf("Classify allocates %f per run, want 0", n)
	}
}

// Observe only reads the name it is given: a front door hands it a view
// of a buffer it reuses for the next query, so the top-K table must keep
// a copy of a name it admits.
func TestObserveKeepsCopies(t *testing.T) {
	a := NewAnalyzer(testTLDs(), 8)
	buf := []byte("www.example.com.")
	a.Observe(dnswire.Name(unsafe.String(&buf[0], len(buf))), dnswire.TypeA)
	copy(buf, "ftp")
	if top := a.topQnames.Top(1); len(top) != 1 || top[0].Key != "www.example.com." {
		t.Errorf("top qnames after the buffer was reused: %+v", top)
	}
}

func TestHandler(t *testing.T) {
	a := NewAnalyzer(testTLDs(), 8)
	a.Observe("www.example.com.", dnswire.TypeA)
	a.Observe("junk.bogus.", dnswire.TypeA)
	a.ObserveClient(netip.MustParseAddr("192.0.2.1"))
	h := a.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/topk", nil))
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "text/plain; charset=utf-8" {
		t.Errorf("text view: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/topk?format=json&n=3", nil))
	if rec.Code != 200 {
		t.Fatalf("json view: %d", rec.Code)
	}
	var doc topkDoc
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Observed != 2 || doc.Classes["valid"] != 1 || len(doc.TopQnames) != 2 {
		t.Errorf("doc = %+v", doc)
	}

	for _, bad := range []string{"/topk?format=xml", "/topk?n=0", "/topk?n=x"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code != 400 {
			t.Errorf("%s: code %d, want 400", bad, rec.Code)
		}
	}
}
