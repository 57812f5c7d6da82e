// Package driver is rootbench's load generator: one connected UDP
// socket, one sender and one receiver goroutine, and two disciplines.
//
// The closed loop keeps a fixed window of queries outstanding, so a slow
// server receives less load; it measures capacity, because open-loop
// saturation over loopback measures how the kernel drops packets and
// does not repeat. The open loop sends on a fixed schedule regardless of
// replies and times every query from the moment it was due, so a stall
// is charged to every query that waited behind it; it measures latency.
//
// internal/loadgen is not reused for timing: it stamps a query when it
// is sent rather than when it was due, and it divides by a send window
// that assumes its drain loop ran to the end.
package driver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rootless/internal/obs"
)

// Load supplies the query stream and judges the replies. Both methods
// sit on the per-packet path and must not allocate.
type Load interface {
	// Next returns the wire of the seq-th query and a tag that Check
	// gets back with the reply. The driver overwrites bytes 0-1 with
	// the message ID and sends the wire before it calls Next again.
	Next(seq uint64) (wire []byte, tag uint32)
	// Check reports whether reply is an acceptable answer to the query
	// Next produced for (tag, seq). The ID has already been matched.
	Check(tag uint32, seq uint64, reply []byte) bool
}

// Phase describes one measured interval.
type Phase struct {
	// Window is the closed-loop window: the number of queries kept
	// outstanding. Zero selects the open loop at RateQPS.
	Window int
	// RateQPS is the open-loop departure rate.
	RateQPS float64
	// Duration is how long queries are sent.
	Duration time.Duration
	// Slices is the number of equal time slices latencies are kept in
	// (default 5); reporting the median slice damps one-off stalls.
	Slices int
	// FirstSeq is the sequence number of the first query, so a load of
	// unique names never repeats one across phases.
	FirstSeq uint64
	// SampleEvery hands every n-th accepted reply to Sample (0 = none).
	// The slice is only valid during the call.
	SampleEvery int
	Sample      func(tag uint32, seq uint64, reply []byte)
	// Trace, when set, is told of every accepted reply: the query's
	// sequence number and message ID, when it was due and when the
	// reply arrived (UnixNano). Traced runs only.
	Trace func(seq uint64, id uint16, due, done int64)
}

// Timeout is how long a query may stay unanswered before it is counted
// as failed and, in the closed loop, its window slot is returned.
const Timeout = time.Second

// sweepEvery is how often the sender looks for timed-out queries.
const sweepEvery = 100 * time.Millisecond

// SocketBuffer is the receive buffer asked for on the driver's socket,
// and by rootbench on the server's: this box is a shared virtual
// machine that stops for milliseconds at a time, and with the default
// 208 KiB a stall at the paced rates drops packets that a few MiB queue.
const SocketBuffer = 4 << 20

// pauseFloor is the shortest wait worth a system call; the sender spins
// through anything shorter.
const pauseFloor = 5 * time.Microsecond

// Result is what one phase measured.
type Result struct {
	Attempted int64 // queries the schedule or window issued
	Correct   int64 // replies matched to a query and accepted by Check
	Rejected  int64 // replies matched but refused by Check
	TimedOut  int64 // queries unanswered after Timeout
	SendErrs  int64 // queries the socket refused
	Unmatched int64 // replies with no outstanding query under their ID
	// Elapsed is the length of the send interval; replies that arrive
	// in the drain after it still count.
	Elapsed time.Duration
	// NextSeq is the FirstSeq for a following phase.
	NextSeq uint64
	// Latency holds one histogram per slice, in nanoseconds from the
	// due time (open loop) or the send time (closed loop).
	Latency []*obs.HDR
	// Late is how far behind schedule each open-loop query left.
	Late *obs.HDR
	// Backlog is the number of queries outstanding at each slice end.
	Backlog []int64
}

// Failed is the number of attempted queries that did not produce a
// correct reply.
func (r Result) Failed() int64 { return r.TimedOut + r.Rejected + r.SendErrs }

// MedianQuantile returns the median over slices of the per-slice
// q-quantile, in nanoseconds. Empty slices are left out.
func (r Result) MedianQuantile(q float64) float64 {
	var vals []float64
	for _, h := range r.Latency {
		if h.Count() > 0 {
			vals = append(vals, float64(h.Quantile(q)))
		}
	}
	return Median(vals)
}

// Median returns the median of vals (0 when empty). It sorts in place.
func Median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// slot is the state of one message ID. due is zero while the ID is
// free; the sender fills tag and seq before it publishes due, and the
// receiver reads them before it clears due, so the plain fields are
// ordered by the atomic.
type slot struct {
	due atomic.Int64
	seq uint64
	tag uint32
}

// Driver owns the socket and the ID table. The table has a slot for
// each of the 65536 IDs, more than any window and more than any paced
// rate leaves outstanding unless the server has stopped answering. IDs
// are handed out in turn and the sender skips one whose query is still
// outstanding, so a reply can never be matched to a later query that
// reused its ID while it was in flight; with every ID outstanding the
// query is counted as a send error instead.
type Driver struct {
	conn  *net.UDPConn
	slots []slot
	idCtr uint32
}

// Dial connects the driver's one socket to target.
func Dial(target string) (*Driver, error) {
	raddr, err := net.ResolveUDPAddr("udp", target)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	// Best effort: the kernel caps the size at net.core.rmem_max, and a
	// smaller buffer costs drops under stalls, which the run reports.
	_ = conn.SetReadBuffer(SocketBuffer)
	return &Driver{conn: conn, slots: make([]slot, 1<<16)}, nil
}

// Close releases the socket.
func (d *Driver) Close() error { return d.conn.Close() }

// run is the state the sender and receiver share during one phase.
type run struct {
	d      *Driver
	load   Load
	p      Phase
	start  time.Time
	res    Result
	tokens chan struct{} // closed loop: one token per free window slot

	// Written by the receiver, read by the sender for backlog and drain.
	correct, rejected, unmatched atomic.Int64
}

// Run executes one phase and returns when every query it sent has been
// answered or has timed out.
func (d *Driver) Run(ctx context.Context, load Load, p Phase) (Result, error) {
	if p.Slices <= 0 {
		p.Slices = 5
	}
	if p.Duration <= 0 {
		return Result{}, errors.New("driver: phase needs a duration")
	}
	if p.Window <= 0 {
		if p.RateQPS <= 0 {
			return Result{}, errors.New("driver: phase needs a window or a rate")
		}
	}
	r := &run{d: d, load: load, p: p}
	r.res.Latency = make([]*obs.HDR, p.Slices)
	for i := range r.res.Latency {
		r.res.Latency[i] = obs.NewHDR()
	}
	r.res.Late = obs.NewHDR()
	r.res.Backlog = make([]int64, p.Slices)
	if p.Window > 0 {
		r.tokens = make(chan struct{}, p.Window)
		for i := 0; i < p.Window; i++ {
			r.tokens <- struct{}{}
		}
	}
	if err := d.conn.SetReadDeadline(time.Time{}); err != nil {
		return Result{}, err
	}

	r.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.receive()
	}()
	if p.Window > 0 {
		r.sendClosed(ctx)
	} else {
		r.sendOpen(ctx)
	}
	r.res.Elapsed = time.Since(r.start)
	r.drain()
	// The receiver is parked in Read; an expired deadline is its signal
	// to stop.
	_ = d.conn.SetReadDeadline(time.Now())
	wg.Wait()

	r.res.Correct = r.correct.Load()
	r.res.Rejected = r.rejected.Load()
	r.res.Unmatched = r.unmatched.Load()
	return r.res, ctx.Err()
}

// slice maps a time inside the phase to its latency slice.
func (r *run) slice(t int64) int {
	i := int((t - r.start.UnixNano()) * int64(r.p.Slices) / int64(r.p.Duration))
	if i < 0 {
		return 0
	}
	if i >= r.p.Slices {
		return r.p.Slices - 1
	}
	return i
}

// outstanding is the number of queries sent and neither answered nor
// timed out. Only the sender calls it.
func (r *run) outstanding() int64 {
	return r.res.Attempted - r.res.SendErrs - r.res.TimedOut - r.correct.Load() - r.rejected.Load()
}

// send issues one query stamped with due (UnixNano).
func (r *run) send(seq uint64, due int64) {
	d := r.d
	r.res.Attempted++
	var s *slot
	var id uint16
	for tries := 0; ; tries++ {
		if tries == len(d.slots) {
			r.res.SendErrs++
			return
		}
		id = uint16(d.idCtr)
		d.idCtr++
		s = &d.slots[id]
		if s.due.Load() == 0 {
			break
		}
	}
	wire, tag := r.load.Next(seq)
	binary.BigEndian.PutUint16(wire, id)
	s.seq, s.tag = seq, tag
	s.due.Store(due)
	if _, err := d.conn.Write(wire); err != nil {
		if s.due.CompareAndSwap(due, 0) {
			r.res.SendErrs++
			r.release()
		}
	}
}

// release returns a window slot (closed loop only).
func (r *run) release() {
	if r.tokens != nil {
		r.tokens <- struct{}{}
	}
}

// sweep fails every query older than Timeout. Scanning the whole table
// costs a few tens of microseconds ten times a second, and needs no
// send-order bookkeeping on the per-packet path.
func (r *run) sweep(now int64) {
	for i := range r.d.slots {
		s := &r.d.slots[i]
		if due := s.due.Load(); due != 0 && now-due > int64(Timeout) && s.due.CompareAndSwap(due, 0) {
			r.res.TimedOut++
			r.release()
		}
	}
}

// noteSlice records the backlog when the sender crosses a slice end.
func (r *run) noteSlice(cur *int, now int64) {
	for s := r.slice(now); *cur < s; *cur++ {
		r.res.Backlog[*cur] = r.outstanding()
	}
}

func (r *run) sendClosed(ctx context.Context) {
	end := r.start.Add(r.p.Duration).UnixNano()
	seq := r.p.FirstSeq
	lastSweep := r.start.UnixNano()
	cur := 0
	timer := time.NewTimer(sweepEvery)
	timer.Stop() // armed only while parked; nothing can have fired yet
	for ctx.Err() == nil {
		now := time.Now().UnixNano()
		if now >= end {
			break
		}
		if now-lastSweep > int64(sweepEvery) {
			r.sweep(now)
			lastSweep = now
		}
		select {
		case <-r.tokens:
		default:
			// Window full: park until a reply frees a slot, waking to
			// sweep so a lost query cannot hold its slot forever.
			timer.Reset(sweepEvery)
			select {
			case <-r.tokens:
				if !timer.Stop() {
					<-timer.C
				}
			case <-timer.C:
				continue
			}
			now = time.Now().UnixNano()
		}
		r.noteSlice(&cur, now)
		r.send(seq, now)
		seq++
	}
	r.res.NextSeq = seq
	r.res.Backlog[r.p.Slices-1] = r.outstanding()
}

func (r *run) sendOpen(ctx context.Context) {
	defer lockPacer()()
	startNS := r.start.UnixNano()
	interval := float64(time.Second) / r.p.RateQPS
	total := int64(r.p.RateQPS * r.p.Duration.Seconds())
	seq := r.p.FirstSeq
	lastSweep := startNS
	cur := 0
	for i := int64(0); i < total && ctx.Err() == nil; i++ {
		// Departures are fixed on the schedule: a late sender catches up
		// in a burst and the wait shows up as latency, it never shifts
		// the schedule.
		due := startNS + int64(float64(i)*interval)
		now := time.Now().UnixNano()
		for due-now > int64(pauseFloor) {
			pause(time.Duration(due - now))
			now = time.Now().UnixNano()
		}
		for due > now {
			now = time.Now().UnixNano()
		}
		r.res.Late.Record(now - due)
		r.noteSlice(&cur, now)
		if now-lastSweep > int64(sweepEvery) {
			r.sweep(now)
			lastSweep = now
		}
		r.send(seq, due)
		seq++
	}
	r.res.NextSeq = seq
	r.res.Backlog[r.p.Slices-1] = r.outstanding()
}

// drain waits for the queries still in flight after the send interval.
func (r *run) drain() {
	deadline := time.Now().Add(Timeout + sweepEvery)
	for r.outstanding() > 0 {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		r.sweep(now.UnixNano())
		time.Sleep(time.Millisecond)
	}
	r.sweep(time.Now().Add(Timeout).UnixNano()) // whatever is left has failed
}

func (r *run) receive() {
	d := r.d
	buf := make([]byte, 64<<10)
	for {
		n, err := d.conn.Read(buf)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // ICMP-induced error on a connected socket; keep reading
		}
		now := time.Now().UnixNano()
		if n < 12 {
			r.unmatched.Add(1)
			continue
		}
		id := binary.BigEndian.Uint16(buf)
		s := &d.slots[id]
		due := s.due.Load()
		if due == 0 {
			r.unmatched.Add(1)
			continue
		}
		seq, tag := s.seq, s.tag
		if !s.due.CompareAndSwap(due, 0) {
			r.unmatched.Add(1) // the sweep timed it out first
			continue
		}
		if r.load.Check(tag, seq, buf[:n]) {
			r.res.Latency[r.slice(due)].Record(now - due)
			c := r.correct.Add(1)
			if r.p.SampleEvery > 0 && c%int64(r.p.SampleEvery) == 0 {
				r.p.Sample(tag, seq, buf[:n])
			}
			if r.p.Trace != nil {
				r.p.Trace(seq, id, due, now)
			}
		} else {
			r.rejected.Add(1)
		}
		r.release()
	}
}
