package resolver

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// TestConcurrentResolveAndScrape hammers one Resolver from many goroutines
// the way resolverd's UDP server does (one goroutine per query) while
// other goroutines scrape Stats, Collect, and the tracer — the exact
// interleaving an admin /metrics scrape produces in production. Run with
// -race; it pins the "Safe for concurrent use" claim on Resolver.
func TestConcurrentResolveAndScrape(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints)
	reg := obs.NewRegistry()
	r.Instrument(reg)
	tr := obs.NewTracer(16, 0)
	tr.SetEnabled(true)
	r.SetTracer(tr)

	names := []dnswire.Name{
		"www.example.com.", "alias.example.com.", "text.example.com.",
		"deep.sub.example.com.", "nope.example.com.", "example.com.",
	}
	const workers = 8
	const perWorker = 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qname := names[(w+i)%len(names)]
				qtype := dnswire.TypeA
				if qname == "text.example.com." {
					qtype = dnswire.TypeTXT
				}
				_, _ = r.Resolve(qname, qtype)
			}
		}(w)
	}
	// Scrapers run concurrently with the resolvers.
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = r.Stats()
				_ = r.SRTTStateSize()
				_, _, _ = r.LocalZoneStatus()
				scrapeReg := obs.NewRegistry()
				r.Collect(scrapeReg)
				_ = tr.Recent()
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	st := r.Stats()
	if st.Resolutions < workers*perWorker {
		t.Fatalf("Resolutions = %d, want >= %d", st.Resolutions, workers*perWorker)
	}
	if tr.Seen() == 0 {
		t.Fatal("tracer saw no resolutions")
	}
}

// TestConcurrentCoalescedResolve hammers the overload machinery under
// -race: singleflight coalescing, the admission gate (with queue waits
// and sheds), the NXDOMAIN cut, and metric scrapes all interleave. A slow
// transport keeps resolutions overlapping so flights genuinely coalesce
// and the gate genuinely fills. The invariant: every Resolve call counts
// exactly one Resolution, whether it led, coalesced, or was shed.
func TestConcurrentCoalescedResolve(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints, func(c *Config) {
		c.Transport = slowTransport{inner: tp.net.Client(locClient), delay: 200 * time.Microsecond}
		c.Coalesce = true
		c.MaxInflight = 4
		c.QueueDeadline = 50 * time.Millisecond
		c.NXDomainCut = true
		c.ServeStale = true
	})
	reg := obs.NewRegistry()
	r.Instrument(reg)

	names := []dnswire.Name{
		"www.example.com.", "alias.example.com.", "text.example.com.",
		"deep.sub.example.com.", "nope.example.com.",
		"junk.printer-zz.", // bogus TLD: establishes the NXDOMAIN cut
	}
	const workers = 12
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				qname := names[(w*3+i)%len(names)]
				if (w+i)%8 == 7 {
					// A never-repeated label under the bogus TLD: only the
					// cut (not the exact-name negative cache) can absorb it.
					qname = dnswire.Name(fmt.Sprintf("u%d-%d.printer-zz.", w, i))
				}
				_, err := r.Resolve(qname, dnswire.TypeA)
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("%s: %v", qname, err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = r.Stats()
				scrapeReg := obs.NewRegistry()
				r.Collect(scrapeReg)
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapeWG.Wait()

	st := r.Stats()
	if st.Resolutions != workers*perWorker {
		t.Fatalf("Resolutions = %d, want exactly %d", st.Resolutions, workers*perWorker)
	}
	if st.CoalescedResolutions == 0 {
		t.Error("overlapping identical queries never coalesced")
	}
	if st.NXDomainCutHits == 0 {
		t.Error("bogus-TLD queries never hit the NXDOMAIN cut")
	}
}

// TestAllCounterWritesUseCount parses every non-test file in the package
// and verifies that every access to the stats field goes through count()
// or the Stats() snapshot, and that a closure handed the Stats only ever
// takes a counter's address (for inc): no ++, no assignment. Together
// they make every counter write an atomic add, and every place a counter
// moves a count() call, greppable and impossible to bypass by accident.
func TestAllCounterWritesUseCount(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"Stats": true, "count": true}
	closures := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok && takesStats(lit) {
						closures++
						checkOnlyInc(t, fset, lit)
					}
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "stats" {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "r" {
						return true
					}
					if !allowed[fd.Name.Name] {
						pos := fset.Position(sel.Pos())
						t.Errorf("%s accesses r.stats directly at %s; route it through count()",
							fd.Name.Name, pos)
					}
					return true
				})
			}
		}
	}
	if closures < 20 {
		t.Errorf("found only %d count closures: has the idiom changed under this test?", closures)
	}
}

// takesStats reports a func(s *Stats) literal.
func takesStats(lit *ast.FuncLit) bool {
	params := lit.Type.Params.List
	if len(params) != 1 || len(params[0].Names) != 1 || params[0].Names[0].Name != "s" {
		return false
	}
	star, ok := params[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Stats"
}

// checkOnlyInc fails on any use of s.Field in lit other than &s.Field.
func checkOnlyInc(t *testing.T, fset *token.FileSet, lit *ast.FuncLit) {
	addressed := map[ast.Node]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.AND {
			addressed[u.X] = true
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == "s" && !addressed[sel] {
			t.Errorf("%s: s.%s used directly; counters move only through inc(&s.%s, n)",
				fset.Position(sel.Pos()), sel.Sel.Name, sel.Sel.Name)
		}
		return true
	})
}

// TestConcurrentHealthState hammers the per-server backoff/hold-down
// machinery: workers resolve against a half-dead topology (every failure
// mutates health state) while others flap the dead servers and scrapers
// read HealthCounts/Collect. Run with -race; it pins the concurrency
// safety of the circuit-breaker state.
func TestConcurrentHealthState(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetAddrDown(rootV4, true)
	r := tp.resolver(t, RootModeHints, func(c *Config) {
		c.HoldDown = 5 * time.Second // short, so trips and probes interleave
	})
	reg := obs.NewRegistry()
	r.Instrument(reg)

	names := []dnswire.Name{
		"www.example.com.", "alias.example.com.", "nope.example.com.",
		"example.com.", "deep.sub.example.com.",
	}
	const workers = 8
	const perWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				_, _ = r.Resolve(names[(w+i)%len(names)], dnswire.TypeA)
			}
		}(w)
	}
	done := make(chan struct{})
	var auxWG sync.WaitGroup
	auxWG.Add(1)
	go func() { // flap the second root so successes and failures interleave
		defer auxWG.Done()
		down := true
		for {
			select {
			case <-done:
				return
			default:
			}
			tp.net.SetAddrDown(root2V4, down)
			down = !down
		}
	}()
	for s := 0; s < 2; s++ {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_, _ = r.HealthCounts()
				scrapeReg := obs.NewRegistry()
				r.Collect(scrapeReg)
			}
		}()
	}
	wg.Wait()
	close(done)
	auxWG.Wait()

	st := r.Stats()
	if st.Resolutions < workers*perWorker {
		t.Fatalf("Resolutions = %d, want >= %d", st.Resolutions, workers*perWorker)
	}
	if st.Timeouts == 0 {
		t.Fatal("expected timeouts against the dead root")
	}
}

// TestSRTTUpdatesCounted pins the audit fix: updateSRTT must bump
// SRTTUpdates through count(), so concurrent scrapes never see a torn
// counter and the increment shows up in Stats.
func TestSRTTUpdatesCounted(t *testing.T) {
	tp := newTopo(t)
	r := tp.resolver(t, RootModeHints)
	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.SRTTUpdates == 0 {
		t.Fatal("SRTTUpdates not incremented by a resolution that sent queries")
	}
	if st.SRTTUpdates < int64(r.SRTTStateSize()) {
		t.Fatalf("SRTTUpdates = %d < srtt entries %d", st.SRTTUpdates, r.SRTTStateSize())
	}
}

// heldQueryTransport holds every query a moment before passing it on,
// and records any that no longer asks, on waking, what it asked on
// arrival: a query some other resolution rebuilt meanwhile.
type heldQueryTransport struct {
	inner   Transport
	hold    time.Duration
	mu      sync.Mutex
	changed []string
}

func (h *heldQueryTransport) Exchange(dst netip.Addr, q *dnswire.Message) (*dnswire.Message, time.Duration, error) {
	id, asked := q.ID, q.Questions[0]
	time.Sleep(h.hold)
	if q.ID != id || len(q.Questions) != 1 || q.Questions[0] != asked {
		h.mu.Lock()
		h.changed = append(h.changed, fmt.Sprintf("%d %s became %d %v", id, asked, q.ID, q.Questions))
		h.mu.Unlock()
	}
	return h.inner.Exchange(dst, q)
}

// TestResolutionsDoNotShareQueries resolves distinct names from many
// goroutines at once through a transport that sleeps on each query. Each
// resolution rebuilds its query in place for every hop; if two ever
// shared one, a query would change under the transport while it slept
// (and -race would see the writes).
func TestResolutionsDoNotShareQueries(t *testing.T) {
	const (
		workers   = 16
		perWorker = 12
	)
	w := newCutWorld(t)
	held := &heldQueryTransport{inner: w, hold: 200 * time.Microsecond}
	r := w.resolver(func(c *Config) { c.Transport = held })
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				name := dnswire.Name(fmt.Sprintf("h%d.d%d-%d.tld.", i, g, i))
				res, err := r.Resolve(name, dnswire.TypeA)
				if err != nil || len(res.Answers) != 1 || res.Answers[0].Name != name {
					t.Errorf("%s: %+v, %v", name, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(held.changed) > 0 {
		t.Errorf("%d queries changed while their transport held them, first: %s",
			len(held.changed), held.changed[0])
	}
}
