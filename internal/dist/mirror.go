// Package dist distributes root zone files — the replacement the paper
// proposes for the root nameserver service (§3 "Root Zone
// Distribution"): an HTTP mirror serving signed full bundles and a signed
// delta chain, DNS AXFR/IXFR (via the authserver package), and a
// gossip/peer-to-peer simulation. A Refresher drives the fetch → verify →
// install loop on the paper's TTL-derived schedule (refresh at X+42 h,
// retry through hour 48) and takes the delta chain whenever its source
// serves one, so a short refresh interval moves only what changed — which
// is also how a TLD added to the root (§5.3) reaches a resolver between
// full refreshes.
package dist

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"rootless/internal/dnssec"
	"rootless/internal/obs"
	"rootless/internal/zone"
)

// Mirror serves root-zone bundles over HTTP — the "set of HTTP mirrors as
// we use for software distribution" option in §3. It also keeps a window
// of past snapshots so delta clients can sync from any recent serial.
//
// Endpoints:
//
//	GET /root.zone.bundle        current bundle (binary)
//	GET /serial                  current serial (text)
//	GET /deltachain?from=SERIAL  signed delta-bundle chain from an old serial
type Mirror struct {
	mu      sync.RWMutex
	current *Bundle
	signer  *dnssec.Signer
	zones   map[uint32]*zone.Zone
	deltas  map[uint32]deltaLink // fromSerial -> signed delta to the next serial
	order   []uint32
	window  int

	// Stats.
	bundleBytes int64
	chainBytes  int64
	requests    int64
}

// deltaLink is one precomputed chain step, kept in encoded form.
type deltaLink struct {
	to   uint32
	data []byte
}

// NewMirror creates a mirror that retains `window` past snapshots for
// delta service.
func NewMirror(signer *dnssec.Signer, window int) *Mirror {
	if window <= 0 {
		window = 8
	}
	return &Mirror{
		signer: signer,
		zones:  make(map[uint32]*zone.Zone),
		deltas: make(map[uint32]deltaLink),
		window: window,
	}
}

// Publish installs a new zone snapshot and, when the previous snapshot is
// still retained, precomputes the signed delta link so clients can catch
// up at O(delta) instead of refetching the whole bundle.
func (m *Mirror) Publish(z *zone.Zone) error {
	b, err := MakeBundle(z, m.signer)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev := m.current; prev != nil && prev.Serial != b.Serial {
		if prevZone := m.zones[prev.Serial]; prevZone != nil {
			db, err := MakeDeltaBundle(prevZone, z, ChainAnchor(prevZone), m.signer)
			if err != nil {
				return err
			}
			m.deltas[prev.Serial] = deltaLink{to: b.Serial, data: db.Encode()}
		}
	}
	m.current = b
	if _, ok := m.zones[b.Serial]; !ok {
		m.order = append(m.order, b.Serial)
	}
	m.zones[b.Serial] = z
	for len(m.order) > m.window {
		delete(m.zones, m.order[0])
		delete(m.deltas, m.order[0])
		m.order = m.order[1:]
	}
	return nil
}

// Current returns the latest bundle, or nil.
func (m *Mirror) Current() *Bundle {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.current
}

// MirrorStats reports transfer volumes, the §5.2 distribution-load metric.
type MirrorStats struct {
	Requests    int64
	BundleBytes int64
	// ChainBytes counts signed delta-chain transfer volume — the O(delta)
	// distribution path.
	ChainBytes int64
}

// Stats returns a snapshot of the transfer counters.
func (m *Mirror) Stats() MirrorStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return MirrorStats{
		Requests:    m.requests,
		BundleBytes: m.bundleBytes,
		ChainBytes:  m.chainBytes,
	}
}

// Collect implements obs.Collector: transfer counters plus gauges for the
// published serial and the delta retention window.
func (m *Mirror) Collect(reg *obs.Registry) {
	obs.SetCountersFromStruct(reg, "rootless_mirror", "mirror transfer volume", nil, m.Stats())
	m.mu.RLock()
	var serial uint32
	if m.current != nil {
		serial = m.current.Serial
	}
	snapshots := len(m.order)
	m.mu.RUnlock()
	reg.Gauge("rootless_mirror_zone_serial", "serial of the published zone", nil).Set(float64(serial))
	reg.Gauge("rootless_mirror_snapshots", "past snapshots retained for delta service", nil).
		Set(float64(snapshots))
}

// ServeHTTP implements http.Handler.
func (m *Mirror) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	m.requests++
	m.mu.Unlock()
	switch r.URL.Path {
	case "/root.zone.bundle":
		b := m.Current()
		if b == nil {
			http.Error(w, "no zone published", http.StatusServiceUnavailable)
			return
		}
		data := b.Encode()
		m.mu.Lock()
		m.bundleBytes += int64(len(data))
		m.mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	case "/serial":
		b := m.Current()
		if b == nil {
			http.Error(w, "no zone published", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "%d\n", b.Serial)
	case "/deltachain":
		m.serveDeltaChain(w, r)
	default:
		http.NotFound(w, r)
	}
}

// serveDeltaChain returns the signed delta links from the client's serial
// to the current snapshot, framed by encodeDeltaChain. An empty chain
// means the client is already current. 404 when the client's serial fell
// out of the retention window — the client must full-fetch.
func (m *Mirror) serveDeltaChain(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 32)
	if err != nil {
		http.Error(w, "bad from serial", http.StatusBadRequest)
		return
	}
	m.mu.RLock()
	var curSerial uint32
	if m.current != nil {
		curSerial = m.current.Serial
	}
	var links [][]byte
	cur := uint32(from)
	known := m.zones[cur] != nil
	for cur != curSerial {
		link, ok := m.deltas[cur]
		if !ok {
			known = false
			break
		}
		links = append(links, link.data)
		cur = link.to
	}
	m.mu.RUnlock()
	if m.Current() == nil || !known {
		http.Error(w, "serial not in window", http.StatusNotFound)
		return
	}
	data := encodeDeltaChain(links)
	m.mu.Lock()
	m.chainBytes += int64(len(data))
	m.mu.Unlock()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(data)
}

// HTTPClient fetches bundles and delta chains from a mirror base URL.
type HTTPClient struct {
	BaseURL string
	Client  *http.Client

	// Transfer accounting.
	mu           sync.Mutex
	bytesFetched int64
	fullFetches  int64
	deltaFetches int64
}

// NewHTTPClient creates a client for a mirror.
func NewHTTPClient(baseURL string) *HTTPClient {
	return &HTTPClient{BaseURL: baseURL, Client: http.DefaultClient}
}

// BytesFetched returns the total bytes transferred.
func (c *HTTPClient) BytesFetched() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesFetched
}

// Fetches returns (full, delta) fetch counts.
func (c *HTTPClient) Fetches() (full, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fullFetches, c.deltaFetches
}

func (c *HTTPClient) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("dist: %s: %s", path, resp.Status)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.bytesFetched += int64(len(data))
	c.mu.Unlock()
	return data, nil
}

// Fetch implements Source: it downloads the current bundle.
func (c *HTTPClient) Fetch(ctx context.Context) (*Bundle, error) {
	data, err := c.get(ctx, "/root.zone.bundle")
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.fullFetches++
	c.mu.Unlock()
	return DecodeBundle(data)
}

// FetchDeltaChain implements DeltaSource: it downloads the signed delta
// links from fromSerial to the mirror's current serial. A 404 (serial out
// of the retention window) surfaces as an error, sending the refresher to
// the full-bundle path.
func (c *HTTPClient) FetchDeltaChain(ctx context.Context, fromSerial uint32) ([]*DeltaBundle, error) {
	data, err := c.get(ctx, fmt.Sprintf("/deltachain?from=%d", fromSerial))
	if err != nil {
		return nil, err
	}
	chain, err := decodeDeltaChain(data)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.deltaFetches++
	c.mu.Unlock()
	return chain, nil
}
