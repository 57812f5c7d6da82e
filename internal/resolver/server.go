package resolver

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/obs"
	"rootless/internal/overload"
	"rootless/internal/udpengine"
)

// Server exposes a Resolver as a recursive DNS service over UDP — what a
// stub resolver (or dig) talks to.
//
// A datagram takes one of two routes. What the resolver already knows —
// a cache hit, a synthesized or cut-covered denial, junk that dies at the
// local root — is answered on the socket worker that read it, straight
// into the engine's transmit buffer, and leaves in that worker's batch.
// Everything else needs upstream round trips and must not hold the socket:
// it becomes a job (the parsed question and the reply path; the packet is
// not copied) for a bounded pool of goroutines that call Resolve and reply
// on their own. Both routes parse with dnswire.Query and write with
// writeResponse, so a question gets the same bytes whichever it takes.
//
// Nothing from the engine's request buffer outlives ServeDatagram. The
// socket worker reads the question name as a view of its Query, so a
// hit allocates nothing. A job carries the Query by value, and the pool
// copies the name once per miss: the flight key, the upstream queries
// and the cache entries all share that copy.
type Server struct {
	resolver *Resolver
	// limiter rate-limits stub clients before anything else is spent on
	// them (nil = unlimited). Install with SetClientLimit before serving.
	limiter *overload.ClientLimiter

	// The miss pool. jobs is unbuffered: a send succeeds only into the
	// hands of an idle goroutine, so nothing queues behind busy ones.
	// Goroutines are started on demand up to bound, keep their grown
	// stacks and pack buffers between jobs, and exit after idleExit
	// without one — which is also how the pool drains once the engine
	// stops: there is nothing to close.
	jobs     chan job
	bound    int32
	idleExit time.Duration
	workers  atomic.Int32

	door struct{ sync, pool, shed, malformed, limited atomic.Int64 }
}

// job is one question on its way to the miss pool, with the trace the
// socket worker began for it (nil when tracing is off). A pool goroutine
// reuses one job for every question it takes, so nothing may keep a view
// of q's name (dnswire.Query.Name): answerJob copies it.
type job struct {
	peer udpengine.Peer
	q    dnswire.Query
	tr   *obs.Trace
}

const (
	// poolPerInflight sizes the pool from Config.MaxInflight. The gate
	// admits MaxInflight resolutions to upstream work at a time; the rest
	// of the pool is room for questions queued at the gate, waiting on
	// another's flight, or answerable from the cache by the time they run.
	poolPerInflight = 4
	// defaultPoolBound applies when MaxInflight is 0 (no gate): the pool
	// is then the only bound on concurrent resolutions.
	defaultPoolBound = 1024
	poolIdleExit     = 5 * time.Second
)

// NewServer wraps a resolver.
func NewServer(r *Resolver) *Server {
	bound := defaultPoolBound
	if r.cfg.MaxInflight > 0 {
		bound = poolPerInflight * r.cfg.MaxInflight
	}
	return &Server{resolver: r, jobs: make(chan job), bound: int32(bound), idleExit: poolIdleExit}
}

// SetClientLimit token-buckets each stub client at qps queries/sec with
// the given burst (<= 0 defaults to qps). Over-rate queries are dropped
// before they are parsed, so an abusive stub cannot monopolise the
// resolver. qps <= 0 disables the limit.
func (s *Server) SetClientLimit(qps, burst float64) {
	s.limiter = overload.NewClientLimiter(qps, burst, 0)
}

// FrontDoorStats counts arriving datagrams by what became of them.
type FrontDoorStats struct {
	Sync      int64 // answered on the socket worker
	Pool      int64 // handed to the miss pool
	Shed      int64 // needed the pool while it was at its bound: dropped
	Malformed int64 // not a query this server can parse, or a response: dropped
	Limited   int64 // over the per-client rate: dropped
}

// FrontDoorStats returns a snapshot of the front-door counters.
func (s *Server) FrontDoorStats() FrontDoorStats {
	return FrontDoorStats{
		Sync:      s.door.sync.Load(),
		Pool:      s.door.pool.Load(),
		Shed:      s.door.shed.Load(),
		Malformed: s.door.malformed.Load(),
		Limited:   s.door.limited.Load(),
	}
}

// Collect implements obs.Collector.
func (s *Server) Collect(reg *obs.Registry) {
	st := s.FrontDoorStats()
	for _, c := range []struct {
		path string
		n    int64
	}{
		{"sync", st.Sync}, {"pool", st.Pool}, {"shed", st.Shed},
		{"malformed", st.Malformed}, {"limited", st.Limited},
	} {
		reg.Counter("rootless_resolver_frontdoor_total",
			"datagrams by what the front door did with them: answered on the socket worker, "+
				"handed to the miss pool, or dropped (pool full, unparseable, over the client rate)",
			obs.Labels{"path": c.path}).Set(c.n)
	}
}

// DatagramHandler adapts the server to the udpengine handler contract.
func (s *Server) DatagramHandler() udpengine.Handler {
	return udpengine.HandlerFunc(s.serveDatagram)
}

func (s *Server) serveDatagram(req []byte, src udpengine.Peer, resp []byte) []byte {
	// A response is never a query. Answering one would let a single
	// spoofed packet set two servers replying to each other for good.
	if len(req) > 2 && req[2]&(dnswire.FlagQR>>8) != 0 {
		s.door.malformed.Add(1)
		return nil
	}
	if s.limiter != nil && !s.limiter.Allow(src.Addr.Addr(), time.Now()) {
		s.door.limited.Add(1)
		return nil
	}
	if an := s.resolver.traffic; an != nil {
		an.ObserveClient(src.Addr.Addr())
	}
	var q dnswire.Query
	err := q.Parse(req)
	if err != nil && !errors.Is(err, dnswire.ErrQuestionCount) {
		s.door.malformed.Add(1)
		return nil
	}
	if rcode, refused := refusal(&q, err); refused {
		s.door.sync.Add(1)
		return writeResponse(resp, &q, rcode, false, nil)
	}
	var ans chain
	tr, ok := s.resolver.resolveKnown(q.Name(), q.Type, &ans)
	if ok {
		s.door.sync.Add(1)
		return writeResponse(resp, &q, ans.rcode, ans.secure, ans.links[:ans.n])
	}
	if !s.submit(job{peer: src, q: q, tr: tr}) {
		s.door.shed.Add(1)
		return nil
	}
	s.door.pool.Add(1)
	src.Detach() // answered from the pool, not a drop
	return nil
}

// refusal decides the questions answered without being looked up.
// parseErr is nil or dnswire.ErrQuestionCount.
func refusal(q *dnswire.Query, parseErr error) (dnswire.Rcode, bool) {
	switch {
	case q.Opcode() != dnswire.OpcodeQuery:
		return dnswire.RcodeNotImpl, true
	case parseErr != nil:
		return dnswire.RcodeFormat, true
	case q.Class != dnswire.ClassINET:
		return dnswire.RcodeRefused, true
	}
	return 0, false
}

// writeResponse packs the reply to q into buf: the question (when one was
// parsed), the answer sets in order — each record with its set's decayed
// TTL when it has one — and an OPT when the query carried one. The reply
// is bounded by the size the client advertised, 512 octets without EDNS
// and never less; an answer that does not fit goes out as header and
// question with TC set. AD claims that every record was validated Secure
// (RFC 4035 §3.2.3) — never set on unvalidated or merely-cached data.
// A record that cannot be packed yields an empty reply.
func writeResponse(buf []byte, q *dnswire.Query, rcode dnswire.Rcode, authData bool, answers []known) []byte {
	const opcodeMask = 0xF << 11
	flags := q.Flags&(opcodeMask|dnswire.FlagRD) | dnswire.FlagQR | dnswire.FlagRA | uint16(rcode)
	if authData {
		flags |= dnswire.FlagAD
	}
	var b dnswire.Builder
	b.Start(buf, q.ID, flags)
	var err error
	if q.Name() != "" {
		err = b.Question(q.Question())
	}
	for i := range answers {
		set := &answers[i]
		for _, rr := range set.rrs {
			ttl := rr.TTL
			if set.decayed {
				ttl = set.ttl
			}
			if err == nil {
				err = b.Answer(rr, ttl)
			}
		}
	}
	if q.EDNS {
		b.OPT(dnswire.DefaultEDNSSize, q.DO)
	}
	if b.Len() > max(dnswire.MaxUDPSize, int(q.UDPSize)) {
		b.Truncate()
		if q.EDNS {
			b.OPT(dnswire.DefaultEDNSSize, q.DO)
		}
	}
	out := b.Finish()
	if err != nil {
		return out[:0]
	}
	return out
}

// submit gives j to an idle pool goroutine, or to a new one while the
// pool is under its bound. It never blocks: false means the pool is
// full and the datagram is shed here, on the socket worker.
func (s *Server) submit(j job) bool {
	select {
	case s.jobs <- j:
		return true
	default:
	}
	if s.workers.Add(1) > s.bound {
		s.workers.Add(-1)
		return false
	}
	go s.work(j)
	return true
}

// work is one pool goroutine: resolve, reply, wait for the next job.
func (s *Server) work(j job) {
	defer s.workers.Add(-1)
	buf := make([]byte, 0, dnswire.DefaultEDNSSize)
	idle := time.NewTimer(s.idleExit)
	defer idle.Stop()
	for {
		if buf = s.answerJob(&j, buf); len(buf) > 0 {
			_ = j.peer.Reply(buf) // a failed send is counted by the engine
		}
		if !idle.Stop() {
			select { // fired while the job ran: drain before the reset
			case <-idle.C:
			default:
			}
		}
		idle.Reset(s.idleExit)
		select {
		case j = <-s.jobs:
		case <-idle.C:
			return
		}
	}
}

// answerJob is the pool's route to a reply: the upstream half of Resolve
// (the socket worker ran the other), then the same writer the worker
// uses, into buf. A failed resolution is answered SERVFAIL. The name the
// resolution keeps is a copy: j is overwritten by the next job.
func (s *Server) answerJob(j *job, buf []byte) []byte {
	res, err := s.resolver.resolveUpstream(j.q.Name().Clone(), j.q.Type, j.tr)
	if err != nil {
		return writeResponse(buf, &j.q, dnswire.RcodeServFail, false, nil)
	}
	answers := [1]known{{rrs: res.Answers}}
	return writeResponse(buf, &j.q, res.Rcode, res.AuthData, answers[:])
}

// ServeUDP answers stub queries on conn until ctx ends or the connection
// closes. Single-socket compatibility path: one engine worker on the
// caller's conn; multi-core serving builds the engine directly (see
// cmd/resolverd).
func (s *Server) ServeUDP(ctx context.Context, conn net.PacketConn) error {
	eng, err := udpengine.New(udpengine.Config{
		Conns:     []net.PacketConn{conn},
		Handler:   s.DatagramHandler(),
		MaxPacket: 64 * 1024,
	})
	if err != nil {
		return err
	}
	return eng.Serve(ctx)
}
