package driver

import (
	"context"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer answers every datagram with itself. hook, when set, runs
// on each datagram before the echo and may return false to drop it.
type echoServer struct {
	conn *net.UDPConn
	wg   sync.WaitGroup
	hook func(n int64, pkt []byte) (echo bool, copies int)
}

func startEcho(t *testing.T, hook func(n int64, pkt []byte) (bool, int)) *echoServer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// A stalled server must queue, not drop: give the socket room.
	_ = conn.SetReadBuffer(4 << 20)
	e := &echoServer{conn: conn, hook: hook}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		buf := make([]byte, 4096)
		var n int64
		for {
			sz, from, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			n++
			copies := 1
			if e.hook != nil {
				var echo bool
				if echo, copies = e.hook(n, buf[:sz]); !echo {
					continue
				}
			}
			for i := 0; i < copies; i++ {
				_, _ = conn.WriteToUDPAddrPort(buf[:sz], from)
			}
		}
	}()
	t.Cleanup(func() { conn.Close(); e.wg.Wait() })
	return e
}

// seqLoad sends a 16-byte datagram carrying seq and accepts a reply
// that carries it back. It tracks how many queries were in flight.
type seqLoad struct {
	wire        [16]byte
	inflight    atomic.Int64
	maxInflight atomic.Int64
}

func (l *seqLoad) Next(seq uint64) ([]byte, uint32) {
	binary.BigEndian.PutUint64(l.wire[8:], seq)
	if n := l.inflight.Add(1); n > l.maxInflight.Load() {
		l.maxInflight.Store(n)
	}
	return l.wire[:], uint32(seq)
}

func (l *seqLoad) Check(tag uint32, seq uint64, reply []byte) bool {
	l.inflight.Add(-1)
	return len(reply) == 16 && binary.BigEndian.Uint64(reply[8:]) == seq && tag == uint32(seq)
}

func dial(t *testing.T, e *echoServer) *Driver {
	t.Helper()
	d, err := Dial(e.conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestClosedLoopKeepsWindow(t *testing.T) {
	d := dial(t, startEcho(t, nil))
	load := &seqLoad{}
	res, err := d.Run(context.Background(), load, Phase{Window: 8, Duration: 300 * time.Millisecond, FirstSeq: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted < 100 || res.Correct != res.Attempted || res.Failed() != 0 || res.Unmatched != 0 {
		t.Fatalf("closed loop lost queries: %+v", res)
	}
	if got := load.maxInflight.Load(); got > 8 {
		t.Fatalf("window 8 exceeded: %d in flight", got)
	}
	if res.NextSeq != 100+uint64(res.Attempted) {
		t.Fatalf("NextSeq %d after %d queries from 100", res.NextSeq, res.Attempted)
	}
	var n int64
	for _, h := range res.Latency {
		n += h.Count()
	}
	if n != res.Correct {
		t.Fatalf("%d latencies for %d correct replies", n, res.Correct)
	}
}

func TestOpenLoopFollowsSchedule(t *testing.T) {
	d := dial(t, startEcho(t, nil))
	res, err := d.Run(context.Background(), &seqLoad{}, Phase{RateQPS: 2000, Duration: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 1000 || res.Correct != 1000 {
		t.Fatalf("2000 qps for 0.5 s should be exactly 1000 queries: %+v", res)
	}
	if res.Late.Count() != 1000 {
		t.Fatalf("lateness recorded for %d of 1000 departures", res.Late.Count())
	}
}

// A server that stops reading for a while must not see less load from
// the open loop, and the wait must be charged to the queries that sat
// behind the stall, because they are timed from when they were due.
func TestStallShowsAsLatencyNotReducedLoad(t *testing.T) {
	const stall = 80 * time.Millisecond
	e := startEcho(t, func(n int64, _ []byte) (bool, int) {
		if n == 200 {
			time.Sleep(stall)
		}
		return true, 1
	})
	d := dial(t, e)
	res, err := d.Run(context.Background(), &seqLoad{}, Phase{RateQPS: 2000, Duration: time.Second, Slices: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 2000 {
		t.Fatalf("stall reduced the offered load: attempted %d of 2000", res.Attempted)
	}
	if res.Correct != 2000 {
		t.Fatalf("stalled queries were lost, not delayed: %+v", res)
	}
	// About stall*rate = 160 queries waited, on average half the stall.
	if p97 := time.Duration(res.Latency[0].Quantile(0.97)); p97 < stall/4 {
		t.Fatalf("p97 %v does not show a %v stall", p97, stall)
	}
	if p50 := time.Duration(res.Latency[0].Quantile(0.50)); p50 > stall/4 {
		t.Fatalf("p50 %v: the stall should only reach the queries behind it", p50)
	}

	// The closed loop, by contrast, stops sending while it waits.
	closed, err := d.Run(context.Background(), &seqLoad{}, Phase{Window: 4, Duration: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if closed.Failed() != 0 {
		t.Fatalf("closed loop after stall: %+v", closed)
	}
}

func TestLostQueryTimesOutAndFreesItsSlot(t *testing.T) {
	e := startEcho(t, func(n int64, _ []byte) (bool, int) { return n%50 != 0, 1 })
	d := dial(t, e)
	res, err := d.Run(context.Background(), &seqLoad{}, Phase{Window: 2, Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut == 0 || res.TimedOut != res.Attempted/50 {
		t.Fatalf("every 50th query was dropped: %+v", res)
	}
	if res.Correct+res.TimedOut != res.Attempted {
		t.Fatalf("queries unaccounted for: %+v", res)
	}
	// Both window slots were lost at some point; the loop must have
	// got them back rather than stopping at the second loss.
	if res.TimedOut < 2 {
		t.Skipf("run too short to lose both slots: %+v", res)
	}
}

func TestDuplicateReplyIsUnmatched(t *testing.T) {
	e := startEcho(t, func(n int64, _ []byte) (bool, int) {
		if n == 10 {
			return true, 2
		}
		return true, 1
	})
	d := dial(t, e)
	res, err := d.Run(context.Background(), &seqLoad{}, Phase{RateQPS: 1000, Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != 100 || res.Unmatched != 1 {
		t.Fatalf("one duplicate reply should be the one unmatched: %+v", res)
	}
}

// With the server silent every ID ends up outstanding; the sender must
// account for the queries it could not number instead of hanging.
func TestSilentServerExhaustsIDsWithoutHanging(t *testing.T) {
	e := startEcho(t, func(int64, []byte) (bool, int) { return false, 0 })
	d := dial(t, e)
	res, err := d.Run(context.Background(), &seqLoad{}, Phase{RateQPS: 140000, Duration: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 70000 || res.Correct != 0 {
		t.Fatalf("silent server: %+v", res)
	}
	if res.SendErrs == 0 || res.TimedOut+res.SendErrs != res.Attempted {
		t.Fatalf("70000 queries over 65536 IDs: %+v", res)
	}
}
