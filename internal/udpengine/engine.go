// Package udpengine is the shared multi-core UDP serving core behind
// authd and resolverd. One Engine drives N worker goroutines, each
// pinned to its own SO_REUSEPORT listener where the platform supports
// it (Linux), or sharing a single listener elsewhere. Workers reuse
// their rx/tx buffers across datagrams and, on Linux, move vectors of
// messages per syscall with recvmmsg/sendmmsg — the transport-side
// counterpart of the zero-alloc codec and packed-answer cache: it turns
// per-message ns/op wins into served throughput.
//
// # Buffer ownership contract
//
// The engine owns every buffer it hands a Handler. ServeDatagram's req
// slice aliases the worker's receive buffer and is valid ONLY for the
// duration of the call: the next read into that slot overwrites it, so
// a handler that answers after it returns (the resolver, for a question
// that needs upstream work) must keep what it needs by value — it keeps
// the parsed question, not the packet. The resp slice is the worker's
// per-slot transmit buffer with length 0; the handler appends its
// response and returns the extended slice, which the engine transmits
// before the slot is reused and then adopts as the slot's buffer (so a
// response that outgrew the slot keeps its larger backing array).
// Returning a slice that does not share resp's backing array is a
// contract violation — the engine would adopt it and append the next
// response into it. Return nil to send nothing.
//
// Messages decoded with dnswire.UnpackShared from req follow the same
// rule: rdata fields alias req, so nothing decoded from it may be
// retained past the call. authserver's packed-answer path satisfies
// this — cache templates only retain Name strings and Question values,
// never rdata slices (pinned by TestEngineHandlerRetention).
package udpengine

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"rootless/internal/obs"
)

// Handler processes one datagram synchronously. See the package comment
// for the buffer ownership contract.
type Handler interface {
	ServeDatagram(req []byte, src Peer, resp []byte) []byte
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req []byte, src Peer, resp []byte) []byte

// ServeDatagram calls f.
func (f HandlerFunc) ServeDatagram(req []byte, src Peer, resp []byte) []byte {
	return f(req, src, resp)
}

// Peer identifies a datagram's source and carries the reply path for
// handlers that answer asynchronously (after ServeDatagram returned).
// It is a value type: handing it to another goroutine is safe and does
// not pin any engine buffer.
type Peer struct {
	// Addr is the datagram's source address.
	Addr netip.AddrPort

	uconn *net.UDPConn
	pconn net.PacketConn
	w     *worker
}

// Detach records that the handler has taken ownership of this datagram
// and will answer (or deliberately not) via Reply after ServeDatagram
// returns. Call it before returning nil for such a datagram: the nil
// return then counts toward Async instead of Dropped, so a hand-off is
// not reported as a drop.
func (p Peer) Detach() {
	if p.w != nil {
		p.w.detached.Add(1)
	}
}

// Reply sends b to the peer with a send of its own, bypassing the
// engine's transmit batch. A handler that can answer inside
// ServeDatagram should return the response instead (it batches); Reply
// exists for answers that come later, like those of the resolver's miss
// pool. It may be called from any goroutine. The transmission is counted
// in the owning worker's Writes/WriteErrs.
func (p Peer) Reply(b []byte) error {
	var err error
	switch {
	case p.uconn != nil:
		_, err = p.uconn.WriteToUDPAddrPort(b, p.Addr)
	case p.pconn != nil:
		_, err = p.pconn.WriteTo(b, net.UDPAddrFromAddrPort(p.Addr))
	default:
		return errors.New("udpengine: zero Peer")
	}
	if p.w != nil {
		if err != nil {
			p.w.writeErrs.Add(1)
		} else {
			p.w.writes.Add(1)
		}
	}
	return err
}

// Config describes an Engine.
type Config struct {
	// Addr is the UDP listen address ("host:port"). Ignored when Conns
	// is non-empty.
	Addr string

	// Conns, when non-empty, are pre-opened listeners the engine serves
	// instead of opening its own. Workers defaults to len(Conns); more
	// workers than conns share them round-robin. The engine closes them
	// when Serve's context ends.
	Conns []net.PacketConn

	// Workers is the number of serving goroutines. 0 defaults to
	// GOMAXPROCS. With 1 worker and Batch <= 1 the engine behaves
	// exactly like the classic single-loop ServeUDP.
	Workers int

	// Batch is the number of messages moved per syscall where the
	// platform supports vector I/O (Linux recvmmsg/sendmmsg). <= 1, or
	// any value on other platforms, means one ReadFrom/WriteTo per
	// datagram.
	Batch int

	// Handler serves each datagram. Required.
	Handler Handler

	// MaxPacket is the per-slot receive buffer size. 0 defaults to
	// 4096 bytes — larger than any real query; oversized datagrams are
	// truncated at the socket, exactly as a fixed ReadFrom buffer
	// would. Raise it for trusted links carrying jumbo messages.
	MaxPacket int
}

// WorkerStats is one worker's cumulative activity.
type WorkerStats struct {
	// Reads counts read syscalls; Packets counts datagrams received.
	// Packets/Reads is the realized batch amortization (1.0 without
	// vector I/O).
	Reads   int64
	Packets int64
	// Writes counts datagrams sent from the synchronous path; WriteErrs
	// counts failed transmissions.
	Writes    int64
	WriteErrs int64
	// Dropped counts datagrams the handler declined to answer (nil
	// return) — rate-limited, shed, or malformed. Nil returns preceded
	// by Peer.Detach count toward Async instead.
	Dropped int64
	// Async counts datagrams a handler detached for asynchronous reply
	// (Peer.Detach + Peer.Reply), like the questions the resolver hands
	// to its miss pool.
	Async int64
	// RxQueueDrops is the kernel's SO_RXQ_OVFL cumulative counter: how
	// many datagrams the socket's receive queue overflowed and lost.
	// Only populated on the Linux batch path.
	RxQueueDrops int64
}

// EngineStats snapshots the whole engine.
type EngineStats struct {
	Workers   int
	Batch     int
	ReusePort bool // one listener per worker (Linux SO_REUSEPORT)
	PerWorker []WorkerStats
	Total     WorkerStats
}

type worker struct {
	id   int
	conn net.PacketConn
	io   workerIO

	reads     atomic.Int64
	packets   atomic.Int64
	writes    atomic.Int64
	writeErrs atomic.Int64
	dropped   atomic.Int64
	detached  atomic.Int64
	rxqDrops  atomic.Int64
}

func (w *worker) stats() WorkerStats {
	// dropped counts every nil handler return; detached marks the nil
	// returns that were async takeovers. Detach runs before the return
	// is counted, so a snapshot between the two can transiently see
	// more detaches than nil returns — clamp instead of going negative.
	dropped := w.dropped.Load() - w.detached.Load()
	if dropped < 0 {
		dropped = 0
	}
	return WorkerStats{
		Reads:        w.reads.Load(),
		Packets:      w.packets.Load(),
		Writes:       w.writes.Load(),
		WriteErrs:    w.writeErrs.Load(),
		Dropped:      dropped,
		Async:        w.detached.Load(),
		RxQueueDrops: w.rxqDrops.Load(),
	}
}

// workerIO is one worker's transport: the portable single-datagram loop
// or the Linux recvmmsg/sendmmsg batcher.
type workerIO interface {
	// serve reads datagrams, invokes the handler, and transmits the
	// responses until the conn is closed or a fatal error occurs.
	serve(w *worker, h Handler) error
}

// Engine serves UDP datagrams across worker goroutines.
type Engine struct {
	cfg       Config
	conns     []net.PacketConn
	workers   []*worker
	reusePort bool
	ownConns  bool

	mu      sync.Mutex
	started bool
}

// New builds an engine. When cfg.Conns is empty it opens the listeners
// itself: on Linux, one SO_REUSEPORT socket per worker so the kernel
// spreads flows across them; elsewhere a single socket shared by every
// worker.
func New(cfg Config) (*Engine, error) {
	if cfg.Handler == nil {
		return nil, errors.New("udpengine: Config.Handler is required")
	}
	if cfg.Workers <= 0 {
		if len(cfg.Conns) > 0 {
			cfg.Workers = len(cfg.Conns)
		} else {
			cfg.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	if cfg.MaxPacket <= 0 {
		cfg.MaxPacket = 4096
	}

	e := &Engine{cfg: cfg}
	if len(cfg.Conns) > 0 {
		e.conns = cfg.Conns
	} else {
		if cfg.Addr == "" {
			return nil, errors.New("udpengine: Config.Addr or Config.Conns is required")
		}
		conns, reuse, err := openListeners(cfg.Addr, cfg.Workers)
		if err != nil {
			return nil, err
		}
		e.conns = conns
		e.reusePort = reuse
		e.ownConns = true
	}

	for i := 0; i < cfg.Workers; i++ {
		conn := e.conns[i%len(e.conns)]
		w := &worker{id: i, conn: conn}
		w.io = newWorkerIO(conn, cfg.Batch, cfg.MaxPacket)
		e.workers = append(e.workers, w)
	}
	return e, nil
}

// LocalAddr returns the first listener's address (all listeners share
// it under SO_REUSEPORT).
func (e *Engine) LocalAddr() net.Addr { return e.conns[0].LocalAddr() }

// ReusePort reports whether the engine opened one listener per worker.
func (e *Engine) ReusePort() bool { return e.reusePort }

// Workers returns the serving goroutine count.
func (e *Engine) Workers() int { return len(e.workers) }

// Batch returns the configured messages-per-syscall vector size.
func (e *Engine) Batch() int { return e.cfg.Batch }

// Serve runs the workers until ctx is cancelled or a listener fails.
// It closes the listeners on the way out, including pre-opened ones
// from Config.Conns (matching the classic ServeUDP contract).
func (e *Engine) Serve(ctx context.Context) error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return errors.New("udpengine: Serve called twice")
	}
	e.started = true
	e.mu.Unlock()

	// Close the sockets when ctx ends so blocked reads unwind; the
	// done channel keeps the closer from outliving Serve when workers
	// exit on their own.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		for _, c := range e.conns {
			c.Close()
		}
	}()

	errs := make(chan error, len(e.workers))
	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			err := w.io.serve(w, e.cfg.Handler)
			if err != nil && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// Stats snapshots every worker plus the engine-wide total.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Workers:   len(e.workers),
		Batch:     e.cfg.Batch,
		ReusePort: e.reusePort,
	}
	for _, w := range e.workers {
		ws := w.stats()
		st.PerWorker = append(st.PerWorker, ws)
		st.Total.Reads += ws.Reads
		st.Total.Packets += ws.Packets
		st.Total.Writes += ws.Writes
		st.Total.WriteErrs += ws.WriteErrs
		st.Total.Dropped += ws.Dropped
		st.Total.Async += ws.Async
		st.Total.RxQueueDrops += ws.RxQueueDrops
	}
	return st
}

// Collect implements obs.Collector: per-worker counters labeled by
// worker index, plus engine-shape gauges.
func (e *Engine) Collect(reg *obs.Registry) {
	st := e.Stats()
	reg.Gauge("rootless_udpengine_workers", "UDP engine worker goroutines", nil).
		Set(float64(st.Workers))
	reg.Gauge("rootless_udpengine_batch", "configured messages per recvmmsg/sendmmsg vector", nil).
		Set(float64(st.Batch))
	reuse := 0.0
	if st.ReusePort {
		reuse = 1
	}
	reg.Gauge("rootless_udpengine_reuseport", "1 when each worker owns an SO_REUSEPORT listener", nil).
		Set(reuse)
	for i, ws := range st.PerWorker {
		l := obs.Labels{"worker": strconv.Itoa(i)}
		reg.Counter("rootless_udpengine_reads_total", "read syscalls per engine worker", l).Set(ws.Reads)
		reg.Counter("rootless_udpengine_packets_total", "datagrams received per engine worker", l).Set(ws.Packets)
		reg.Counter("rootless_udpengine_writes_total", "datagrams sent per engine worker", l).Set(ws.Writes)
		reg.Counter("rootless_udpengine_write_errors_total", "failed transmissions per engine worker", l).Set(ws.WriteErrs)
		reg.Counter("rootless_udpengine_handler_drops_total", "datagrams the handler declined to answer, per engine worker", l).Set(ws.Dropped)
		reg.Counter("rootless_udpengine_async_total", "datagrams detached for asynchronous reply, per engine worker", l).Set(ws.Async)
		reg.Counter("rootless_udpengine_rxq_drops_total", "kernel receive-queue overflow drops (SO_RXQ_OVFL), per engine worker", l).Set(ws.RxQueueDrops)
	}
}

// StatusDoc returns the /statusz fields daemons merge into their status
// documents.
func (e *Engine) StatusDoc() map[string]any {
	st := e.Stats()
	doc := map[string]any{
		"udp_workers":       st.Workers,
		"udp_batch":         st.Batch,
		"udp_reuseport":     st.ReusePort,
		"udp_reads":         st.Total.Reads,
		"udp_packets":       st.Total.Packets,
		"udp_writes":        st.Total.Writes,
		"udp_write_errors":  st.Total.WriteErrs,
		"udp_handler_drops": st.Total.Dropped,
		"udp_async_replies": st.Total.Async,
		"udp_rxqueue_drops": st.Total.RxQueueDrops,
	}
	if st.Total.Reads > 0 {
		doc["udp_msgs_per_read"] = float64(st.Total.Packets) / float64(st.Total.Reads)
	}
	return doc
}

// portableIO is the fallback transport: one datagram per syscall via
// the portable net.PacketConn interface, with the *net.UDPConn
// AddrPort fast paths when available (they avoid the per-read
// net.Addr allocation).
type portableIO struct {
	uconn *net.UDPConn
	pconn net.PacketConn
	rx    []byte
	tx    []byte
}

func newPortableIO(conn net.PacketConn, maxPacket int) *portableIO {
	io := &portableIO{pconn: conn, rx: make([]byte, maxPacket), tx: make([]byte, 0, maxPacket)}
	if u, ok := conn.(*net.UDPConn); ok {
		io.uconn = u
	}
	return io
}

func (p *portableIO) serve(w *worker, h Handler) error {
	for {
		var (
			n    int
			src  netip.AddrPort
			addr net.Addr
			err  error
		)
		if p.uconn != nil {
			n, src, err = p.uconn.ReadFromUDPAddrPort(p.rx)
		} else {
			n, addr, err = p.pconn.ReadFrom(p.rx)
			if err == nil {
				src = addrPortFrom(addr)
			}
		}
		if err != nil {
			return err
		}
		w.reads.Add(1)
		w.packets.Add(1)
		peer := Peer{Addr: src, uconn: p.uconn, pconn: p.pconn, w: w}
		resp := h.ServeDatagram(p.rx[:n], peer, p.tx[:0])
		if len(resp) == 0 {
			w.dropped.Add(1)
			continue
		}
		p.tx = resp[:0] // adopt a possibly-grown buffer
		if p.uconn != nil {
			_, err = p.uconn.WriteToUDPAddrPort(resp, src)
		} else {
			_, err = p.pconn.WriteTo(resp, addr)
		}
		if err != nil {
			w.writeErrs.Add(1)
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			continue
		}
		w.writes.Add(1)
	}
}

// addrPortFrom converts a net.Addr to netip.AddrPort.
func addrPortFrom(a net.Addr) netip.AddrPort {
	switch v := a.(type) {
	case *net.UDPAddr:
		return v.AddrPort()
	default:
		if ap, err := netip.ParseAddrPort(a.String()); err == nil {
			return ap
		}
		return netip.AddrPort{}
	}
}

// openPortable is the non-reuseport listener path shared by both build
// variants: one socket, every worker reads from it concurrently.
func openPortable(addr string) ([]net.PacketConn, bool, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, false, fmt.Errorf("udpengine: listen %s: %w", addr, err)
	}
	return []net.PacketConn{conn}, false, nil
}
