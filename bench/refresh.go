package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rootless/internal/authserver"
	"rootless/internal/dist"
	"rootless/internal/dnssec"
	"rootless/internal/dnswire"
	"rootless/internal/zone"
)

// mirrorWindow is how many past snapshots the mirror keeps for deltas.
const mirrorWindow = 8

// refreshStep is how far the refresher's clock moves per cycle; with
// Refresh set to the same value every Tick finds a fetch due, and the
// whole run stays well inside the signatures' validity window.
const refreshStep = time.Second

// missWindow is how long after an install the packed-answer misses are
// counted for authserver.post_install_miss_frac.
const missWindow = 100 * time.Millisecond

// replayMirror is the loopback HTTP server the refresher fetches from.
// Mirror.Publish costs a quarter of a second of CPU here, three times a
// refresh, and a publisher shares no machine with the resolvers it
// feeds; run beside the query stream it would be most of what the
// readers feel. So every revision is published to a real dist.Mirror
// while the cycles are prepared (timed as dist.publish_ms), what the
// mirror then answers is kept, and step i of the run serves exactly the
// bytes the mirror served right after publishing revision i.
type replayMirror struct {
	step  atomic.Int32
	steps []map[string][]byte // request URI -> body, per published revision
}

func (m *replayMirror) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, ok := m.steps[m.step.Load()][r.URL.RequestURI()]
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(body)
}

// record keeps the mirror's current answers to the two requests a
// refresher one serial behind (or with no zone at all) can make.
func (m *replayMirror) record(mirror *dist.Mirror, prevSerial uint32) error {
	step := make(map[string][]byte)
	uris := []string{"/root.zone.bundle"}
	if prevSerial != 0 {
		uris = append(uris, fmt.Sprintf("/deltachain?from=%d", prevSerial))
	}
	for _, uri := range uris {
		rec := httptest.NewRecorder()
		mirror.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, uri, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("bench: mirror answered %s with %d", uri, rec.Code)
		}
		step[uri] = rec.Body.Bytes()
	}
	m.steps = append(m.steps, step)
	return nil
}

// RefreshRig is the write side: a dist.Refresher that follows the
// mirror through dist.HTTPClient over loopback HTTP and installs into
// the workload's server — the wiring of cmd/resolverd. (core.LocalRoot
// wraps its sources in SourceFunc, which hides DeltaSource, so that
// path never takes a delta; see README.md.)
type RefreshRig struct {
	inst   *Instance
	mirror replayMirror
	server *http.Server
	served chan error
	url    string
	client *dist.HTTPClient
	ref    *dist.Refresher
	spans  *Spans // non-nil in a traced run: cycles are taken apart

	// The traced cycles apply deltas themselves, so they carry the
	// installed zone and its chain anchor as the refresher would.
	cur   *zone.Zone
	chain [32]byte

	mu  sync.Mutex
	now time.Time

	FullMS    []float64 // from-scratch refreshes: Tick on an empty refresher
	DeltaMS   []float64 // catch-up refreshes: Tick one serial behind
	PublishMS []float64 // Mirror.Publish of each revision
	apart     int       // refreshes a traced run made taken apart
	Failed    int       // refreshes that did not install what was published
	FirstErr  error
	Layers    refreshLayers
}

// refreshLayers are the per-call samples of a traced run's cycles.
type refreshLayers struct {
	FetchFullMS, FetchFullBytes        []float64
	BundleVerifyMS, BundleVerifyAllocs []float64
	DeltaFetchMS, DeltaBytes           []float64
	DeltaApplyMS, DeltaApplyAllocs     []float64
	DeltaSigsChecked                   []float64
	VerifyZoneMS, VerifyZoneAllocs     []float64
	SetZoneMS, PostInstallMissFrac     []float64
}

// NewRefreshRig prepares cycles refresh cycles — builds that many zone
// revisions and publishes each to a dist.Mirror — then starts the
// loopback server and bootstraps the refresher from the first snapshot,
// which installs the workload's zone into its server.
func NewRefreshRig(inst *Instance, cycles int, spans *Spans) (*RefreshRig, error) {
	r := &RefreshRig{inst: inst, served: make(chan error, 1), spans: spans, now: ZoneDate}
	w := inst.World
	if err := w.AddRevisions(cycles); err != nil {
		return nil, err
	}
	mirror := dist.NewMirror(w.Signer, mirrorWindow)
	var prev uint32
	for _, z := range append([]*zone.Zone{w.Zone}, w.Revisions...) {
		start := time.Now()
		if err := mirror.Publish(z); err != nil {
			return nil, err
		}
		if prev != 0 {
			r.PublishMS = append(r.PublishMS, ms(time.Since(start)))
		}
		if err := r.mirror.record(mirror, prev); err != nil {
			return nil, err
		}
		prev = z.Serial()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.server = &http.Server{Handler: &r.mirror}
	go func() { r.served <- r.server.Serve(ln) }()
	r.url = "http://" + ln.Addr().String()
	if r.client, r.ref, err = r.newRefresher(); err != nil {
		r.Close()
		return nil, err
	}
	if !r.ref.Tick(context.Background()) {
		err := r.ref.State().LastErr
		r.Close()
		return nil, fmt.Errorf("bench: refresher bootstrap: %w", err)
	}
	r.cur, r.chain = w.Zone, dist.ChainAnchor(w.Zone)
	return r, nil
}

func (r *RefreshRig) clock() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.now
}

func (r *RefreshRig) newRefresher() (*dist.HTTPClient, *dist.Refresher, error) {
	client := dist.NewHTTPClient(r.url)
	ref, err := dist.NewRefresher(dist.RefresherConfig{
		Source:  client,
		KSK:     r.inst.World.Signer.KSK.DNSKEY,
		Install: r.inst.Install,
		Refresh: refreshStep,
		Clock:   r.clock,
	})
	return client, ref, err
}

// Cycle moves the mirror to the next revision and has the refresher
// catch up by delta; then a brand-new refresher bootstraps from scratch.
// A traced run then makes both refreshes again, taken apart. A refresh
// that does not end with the published serial installed, or a catch-up
// that did not take the delta path, counts as failed.
func (r *RefreshRig) Cycle() {
	revs := r.inst.World.Revisions
	step := int(r.mirror.step.Load())
	if step >= len(revs) {
		r.fail(errors.New("bench: out of prepared revisions"))
		return
	}
	rev := revs[step]
	r.mirror.step.Add(1)
	r.mu.Lock()
	r.now = r.now.Add(refreshStep)
	r.mu.Unlock()

	r.attempt(&r.DeltaMS, rev, r.tickDelta)
	r.attempt(&r.FullMS, rev, r.tickFull)
	if r.spans != nil {
		start := time.Now()
		r.attempt(nil, rev, r.tracedDelta)
		r.attempt(nil, rev, r.tracedFull)
		r.spans.Add("cycle", start, time.Now())
	}
}

// attempt makes one refresh, checks that it left rev installed and
// keeps the time it took.
func (r *RefreshRig) attempt(into *[]float64, rev *zone.Zone, refresh func() error) {
	start := time.Now()
	err := refresh()
	took := time.Since(start)
	if err == nil && r.inst.Serial() != rev.Serial() {
		err = fmt.Errorf("bench: installed serial %d, published %d", r.inst.Serial(), rev.Serial())
	}
	switch {
	case err != nil:
		r.fail(err)
	case into != nil:
		*into = append(*into, ms(took))
	default:
		r.apart++
	}
}

func (r *RefreshRig) tickDelta() error {
	_, before := r.client.Fetches()
	if !r.ref.Tick(context.Background()) {
		return fmt.Errorf("bench: delta refresh: %w", r.ref.State().LastErr)
	}
	if _, after := r.client.Fetches(); after == before {
		return errors.New("bench: refresh did not take the delta path")
	}
	return nil
}

func (r *RefreshRig) tickFull() error {
	_, fresh, err := r.newRefresher()
	if err != nil {
		return err
	}
	if !fresh.Tick(context.Background()) {
		return fmt.Errorf("bench: full refresh: %w", fresh.State().LastErr)
	}
	return nil
}

// span times fn as a child span of the cycle and returns its length in
// milliseconds and the allocations made while it ran.
func (r *RefreshRig) span(name string, fn func() error) (float64, float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	r.spans.Add(name, start, end)
	return ms(end.Sub(start)), float64(after.Mallocs - before.Mallocs), err
}

// tracedDelta is tickDelta taken apart: the same fetch, apply and
// install the refresher performs, each called directly and timed.
func (r *RefreshRig) tracedDelta() error {
	l := &r.Layers
	var links []*dist.DeltaBundle
	fetched := r.client.BytesFetched()
	took, _, err := r.span("fetch", func() (err error) {
		links, err = r.client.FetchDeltaChain(context.Background(), r.cur.Serial())
		return err
	})
	if err != nil {
		return err
	}
	if len(links) == 0 {
		return errors.New("bench: mirror served an empty delta chain")
	}
	l.DeltaFetchMS = append(l.DeltaFetchMS, took)
	l.DeltaBytes = append(l.DeltaBytes, float64(r.client.BytesFetched()-fetched))

	anchors := []dnswire.DNSKEY{r.inst.World.Signer.KSK.DNSKEY}
	z, chain := r.cur, r.chain
	var sigs int
	took, allocs, err := r.span("apply", func() error {
		for _, d := range links {
			next, st, err := d.Apply(z, chain, anchors, r.clock())
			if err != nil {
				return err
			}
			z, chain, sigs = next, d.ToChain, sigs+st.SigChecks
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.DeltaApplyMS = append(l.DeltaApplyMS, took)
	l.DeltaApplyAllocs = append(l.DeltaApplyAllocs, allocs)
	l.DeltaSigsChecked = append(l.DeltaSigsChecked, float64(sigs))
	r.cur, r.chain = z, chain
	return r.tracedInstall(z)
}

// tracedFull is tickFull taken apart, plus the from-scratch
// dnssec.VerifyZone that incremental verification is judged against.
func (r *RefreshRig) tracedFull() error {
	l := &r.Layers
	w := r.inst.World
	client := dist.NewHTTPClient(r.url)
	var bundle *dist.Bundle
	took, _, err := r.span("fetch", func() (err error) {
		bundle, err = client.Fetch(context.Background())
		return err
	})
	if err != nil {
		return err
	}
	l.FetchFullMS = append(l.FetchFullMS, took)
	l.FetchFullBytes = append(l.FetchFullBytes, float64(client.BytesFetched()))

	var z *zone.Zone
	took, allocs, err := r.span("verify", func() (err error) {
		z, err = bundle.Verify(w.Signer.KSK.DNSKEY)
		return err
	})
	if err != nil {
		return err
	}
	l.BundleVerifyMS = append(l.BundleVerifyMS, took)
	l.BundleVerifyAllocs = append(l.BundleVerifyAllocs, allocs)

	took, allocs, err = r.span("verify", func() error {
		return dnssec.VerifyZone(z, w.Signer.TrustAnchor(), r.clock())
	})
	if err != nil {
		return err
	}
	l.VerifyZoneMS = append(l.VerifyZoneMS, took)
	l.VerifyZoneAllocs = append(l.VerifyZoneAllocs, allocs)
	return r.tracedInstall(z)
}

// tracedInstall installs z and, on an authoritative server, watches the
// packed-answer cache refill for missWindow.
func (r *RefreshRig) tracedInstall(z *zone.Zone) error {
	var before authserver.Stats
	if r.inst.Auth != nil {
		before = r.inst.Auth.Stats()
	}
	took, _, err := r.span("install", func() error { return r.inst.Install(z) })
	if err != nil || r.inst.Auth == nil {
		return err
	}
	r.Layers.SetZoneMS = append(r.Layers.SetZoneMS, took)
	time.Sleep(missWindow)
	after := r.inst.Auth.Stats()
	hits, misses := after.PackedHits-before.PackedHits, after.PackedMisses-before.PackedMisses
	if hits+misses > 0 {
		r.Layers.PostInstallMissFrac = append(r.Layers.PostInstallMissFrac, float64(misses)/float64(hits+misses))
	}
	return nil
}

// Cycles is the number of refreshes attempted so far.
func (r *RefreshRig) Cycles() int { return len(r.FullMS) + len(r.DeltaMS) + r.apart + r.Failed }

func (r *RefreshRig) fail(err error) {
	r.Failed++
	if r.FirstErr == nil {
		r.FirstErr = err
	}
}

// Run makes one cycle, a catch-up and a full bootstrap, every interval
// until ctx ends or the prepared revisions run out. The cadence is
// fixed, so the load the cycles put on the readers is the same on every
// run; a cycle still waits for its own result before the next may start.
func (r *RefreshRig) Run(ctx context.Context, interval time.Duration) {
	next := time.Now()
	for int(r.mirror.step.Load()) < len(r.inst.World.Revisions) {
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(next)):
		}
		r.Cycle()
		if next = next.Add(interval); next.Before(time.Now()) {
			next = time.Now()
		}
	}
}

// Close stops the HTTP server and drops the client's idle connections.
func (r *RefreshRig) Close() {
	if r.server == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = r.server.Shutdown(ctx)
	<-r.served
	http.DefaultClient.CloseIdleConnections()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
