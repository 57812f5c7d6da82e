package udpengine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// echoHandler is the deterministic parity handler: response = 'R' +
// request bytes. Any lost, duplicated, or corrupted datagram shows up
// as a sequence-set mismatch.
var echoHandler = HandlerFunc(func(req []byte, src Peer, resp []byte) []byte {
	resp = append(resp, 'R')
	return append(resp, req...)
})

func startEngine(t *testing.T, workers, batch int, h Handler) (*Engine, context.CancelFunc, chan error) {
	t.Helper()
	eng, err := New(Config{Addr: "127.0.0.1:0", Workers: workers, Batch: batch, Handler: h})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	return eng, cancel, done
}

// TestParityAcrossConfigs is the engine behavioral parity suite: the
// same handler behind 1 worker, N workers, and N workers with batch
// I/O must yield identical response bytes with no datagram lost or
// duplicated at a fixed query count. The counters are read once Serve
// has returned: a worker counts its writes after sendmmsg returns, so
// the client can hold every reply before the count has moved.
func TestParityAcrossConfigs(t *testing.T) {
	const queries = 400
	configs := []struct {
		name           string
		workers, batch int
	}{
		{"1worker", 1, 1},
		{"4workers", 4, 1},
		{"1worker_batch8", 1, 8},
		{"4workers_batch8", 4, 8},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			eng, cancel, done := startEngine(t, tc.workers, tc.batch, echoHandler)
			defer cancel()

			client, err := net.Dial("udp", eng.LocalAddr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()

			// Receiver first, so early responses are not lost.
			type recv struct {
				seq  uint32
				body []byte
			}
			got := make(chan recv, queries)
			go func() {
				buf := make([]byte, 64)
				for {
					client.SetReadDeadline(time.Now().Add(3 * time.Second))
					n, err := client.Read(buf)
					if err != nil {
						close(got)
						return
					}
					if n < 5 || buf[0] != 'R' {
						continue
					}
					body := make([]byte, n)
					copy(body, buf[:n])
					got <- recv{binary.BigEndian.Uint32(buf[1:5]), body}
				}
			}()

			for i := 0; i < queries; i++ {
				var msg [12]byte
				binary.BigEndian.PutUint32(msg[0:4], uint32(i))
				copy(msg[4:], "payload!")
				if _, err := client.Write(msg[:]); err != nil {
					t.Fatal(err)
				}
				if i%64 == 63 {
					// Light pacing so the loopback rx queue never overflows:
					// the suite asserts zero loss, not max throughput.
					time.Sleep(time.Millisecond)
				}
			}

			seen := make(map[uint32]int, queries)
			for len(seen) < queries {
				r, ok := <-got
				if !ok {
					break
				}
				seen[r.seq]++
				want := append([]byte{'R'}, make([]byte, 12)...)
				binary.BigEndian.PutUint32(want[1:5], r.seq)
				copy(want[5:], "payload!")
				if !bytes.Equal(r.body, want) {
					t.Fatalf("seq %d: response %x, want %x", r.seq, r.body, want)
				}
			}
			if len(seen) != queries {
				t.Fatalf("received %d distinct responses, want %d", len(seen), queries)
			}
			for seq, n := range seen {
				if n != 1 {
					t.Fatalf("seq %d received %d times", seq, n)
				}
			}

			cancel()
			if err := <-done; err != nil {
				t.Errorf("Serve: %v", err)
			}
			st := eng.Stats()
			if st.Total.Packets < queries {
				t.Errorf("stats: %d packets received, want >= %d", st.Total.Packets, queries)
			}
			if st.Total.Writes < queries {
				t.Errorf("stats: %d writes, want >= %d", st.Total.Writes, queries)
			}
			if st.Total.Reads > st.Total.Packets {
				t.Errorf("stats: reads %d > packets %d", st.Total.Reads, st.Total.Packets)
			}
			if tc.workers > 1 && batchIOSupported && !eng.ReusePort() {
				t.Errorf("expected SO_REUSEPORT listeners on this platform")
			}
		})
	}
}

// TestServeAllocs pins the batch path's steady state at no allocation:
// a few thousand loopback datagrams through recvmmsg and sendmmsg, with
// a handler that appends a fixed reply, may allocate at most one object
// per twenty packets in the whole process. A closure handed to
// RawConn.Read or Write per batch is several.
func TestServeAllocs(t *testing.T) {
	if !batchIOSupported {
		t.Skip("no kernel vector I/O on this platform")
	}
	if raceEnabled {
		t.Skip("alloc counts not meaningful under -race")
	}
	const (
		packets = 4096
		window  = 16 // in flight at once: well inside the socket buffers
		maxPer  = 0.05
	)
	reply := []byte("fixed reply")
	h := HandlerFunc(func(req []byte, src Peer, resp []byte) []byte { return append(resp, reply...) })
	eng, cancel, done := startEngine(t, 1, 8, h)
	defer func() {
		cancel()
		<-done
	}()
	client, err := net.DialUDP("udp", nil, eng.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetReadDeadline(time.Now().Add(30 * time.Second))
	query, buf := []byte("query"), make([]byte, 64)
	exchange := func(n int) {
		for sent := 0; sent < n; sent += window {
			for i := 0; i < window; i++ {
				if _, err := client.Write(query); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < window; i++ {
				if m, err := client.Read(buf); err != nil || !bytes.Equal(buf[:m], reply) {
					t.Fatalf("reply %q, %v", buf[:m], err)
				}
			}
		}
	}
	exchange(4 * window) // the first batches set the poller up

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	exchange(packets)
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / packets
	t.Logf("allocations per packet: %.4f (%d over %d packets)", per, after.Mallocs-before.Mallocs, packets)
	if per > maxPer {
		t.Errorf("%.4f allocations per packet, want <= %v", per, maxPer)
	}
}

// TestBatchAmortization: with vector I/O available, a burst that is
// queued before the worker wakes must drain in fewer read syscalls
// than packets (the whole point of recvmmsg).
func TestBatchAmortization(t *testing.T) {
	if !batchIOSupported {
		t.Skip("no kernel vector I/O on this platform")
	}
	block := make(chan struct{})
	var once sync.Once
	h := HandlerFunc(func(req []byte, src Peer, resp []byte) []byte {
		once.Do(func() { <-block }) // hold the worker so a burst queues up
		return append(resp, req...)
	})
	eng, cancel, done := startEngine(t, 1, 16, h)
	defer func() {
		cancel()
		<-done
	}()

	client, err := net.Dial("udp", eng.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const burst = 64
	for i := 0; i < burst; i++ {
		if _, err := client.Write([]byte(fmt.Sprintf("q-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the burst reach the socket
	close(block)

	buf := make([]byte, 64)
	for i := 0; i < burst; i++ {
		client.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := client.Read(buf); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	st := eng.Stats()
	if st.Total.Reads >= st.Total.Packets {
		t.Errorf("reads %d >= packets %d: batching never amortized a syscall",
			st.Total.Reads, st.Total.Packets)
	}
}

// TestServeStopsOnCancel: cancelling the context unblocks every worker
// and Serve returns nil.
func TestServeStopsOnCancel(t *testing.T) {
	_, cancel, done := startEngine(t, 2, 4, echoHandler)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}

// TestPreopenedConn: the Conns path (the classic ServeUDP contract)
// serves from a caller-opened socket and closes it on shutdown.
func TestPreopenedConn(t *testing.T) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Conns: []net.PacketConn{conn}, Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers() != 1 {
		t.Fatalf("workers = %d, want 1 (defaults to len(Conns))", eng.Workers())
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	client.SetReadDeadline(time.Now().Add(3 * time.Second))
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "Rping" {
		t.Fatalf("read %q, %v; want Rping", buf[:n], err)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	// The engine closed the pre-opened conn on the way out.
	if _, _, err := conn.ReadFrom(buf); err == nil {
		t.Error("conn still open after Serve returned")
	}
}

// TestDropAccounting: nil handler returns count as drops, not writes.
func TestDropAccounting(t *testing.T) {
	drop := HandlerFunc(func(req []byte, src Peer, resp []byte) []byte { return nil })
	eng, cancel, done := startEngine(t, 1, 1, drop)
	defer func() {
		cancel()
		<-done
	}()
	client, err := net.Dial("udp", eng.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 10; i++ {
		client.Write([]byte("x"))
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if eng.Stats().Total.Dropped == 10 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := eng.Stats()
	if st.Total.Dropped != 10 || st.Total.Writes != 0 {
		t.Fatalf("dropped=%d writes=%d, want 10/0", st.Total.Dropped, st.Total.Writes)
	}
}

// TestAsyncReply: a handler that returns nil and answers later through
// Peer.Reply (the resolver pattern) still reaches the client.
func TestAsyncReply(t *testing.T) {
	async := HandlerFunc(func(req []byte, src Peer, resp []byte) []byte {
		pkt := append([]byte(nil), req...) // must copy: req dies at return
		src.Detach()
		go func() {
			time.Sleep(5 * time.Millisecond)
			src.Reply(append([]byte("later:"), pkt...))
		}()
		return nil
	})
	eng, cancel, done := startEngine(t, 2, 4, async)
	defer func() {
		cancel()
		<-done
	}()
	client, err := net.Dial("udp", eng.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	client.SetReadDeadline(time.Now().Add(3 * time.Second))
	n, err := client.Read(buf)
	if err != nil || string(buf[:n]) != "later:ping" {
		t.Fatalf("read %q, %v; want later:ping", buf[:n], err)
	}
	// Detach + Reply must account as an async write, not a drop.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if st := eng.Stats().Total; st.Async == 1 && st.Writes == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := eng.Stats().Total
	if st.Async != 1 || st.Writes != 1 || st.Dropped != 0 {
		t.Errorf("async stats: Async=%d Writes=%d Dropped=%d, want 1/1/0",
			st.Async, st.Writes, st.Dropped)
	}
}

// TestConcurrentClientsRace hammers a multi-worker batch engine from
// many client goroutines — under -race this checks the worker loops,
// stats, and buffer handoffs share nothing they shouldn't.
func TestConcurrentClientsRace(t *testing.T) {
	eng, cancel, done := startEngine(t, 4, 8, echoHandler)
	defer func() {
		cancel()
		<-done
	}()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := net.Dial("udp", eng.LocalAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				msg := fmt.Sprintf("c%d-%d", c, i)
				if _, err := client.Write([]byte(msg)); err != nil {
					t.Error(err)
					return
				}
				client.SetReadDeadline(time.Now().Add(3 * time.Second))
				n, err := client.Read(buf)
				if err != nil {
					t.Errorf("client %d read %d: %v", c, i, err)
					return
				}
				if string(buf[:n]) != "R"+msg {
					t.Errorf("client %d: got %q want %q", c, buf[:n], "R"+msg)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
