package overload

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestFlightCoalesces(t *testing.T) {
	f := NewFlight[string]()
	var executions atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const waiters = 16
	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		val, err, shared := f.Do("k", func() (any, error) {
			executions.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if shared || err != nil || val.(int) != 42 {
			t.Errorf("leader: val=%v err=%v shared=%v", val, err, shared)
		}
	}()
	<-started
	if f.Inflight() != 1 {
		t.Fatalf("Inflight = %d, want 1", f.Inflight())
	}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, err, shared := f.Do("k", func() (any, error) {
				executions.Add(1)
				return -1, nil
			})
			if err != nil || val.(int) != 42 {
				t.Errorf("waiter: val=%v err=%v", val, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let the waiters reach Do before the leader lands. Their fns must
	// never run, so executions stays 1 regardless of scheduling; the
	// sleep only makes the shared-count assertion meaningful.
	time.Sleep(10 * time.Millisecond)
	close(release)
	<-leaderDone
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != waiters {
		t.Fatalf("shared results = %d, want %d", got, waiters)
	}
	st := f.Stats()
	if st.Leaders != 1 || st.Waiters != waiters {
		t.Fatalf("stats = %+v, want 1 leader / %d waiters", st, waiters)
	}
	if f.Inflight() != 0 {
		t.Fatalf("Inflight = %d after landing, want 0", f.Inflight())
	}
}

func TestFlightDistinctKeysDoNotCoalesce(t *testing.T) {
	f := NewFlight[string]()
	var executions atomic.Int64
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			_, _, _ = f.Do(key, func() (any, error) {
				executions.Add(1)
				return key, nil
			})
		}(key)
	}
	wg.Wait()
	if got := executions.Load(); got != 3 {
		t.Fatalf("executions = %d, want 3", got)
	}
}

func TestFlightErrorShared(t *testing.T) {
	f := NewFlight[string]()
	sentinel := errors.New("boom")
	_, err, _ := f.Do("k", func() (any, error) { return nil, sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// The flight landed: a fresh call runs again.
	val, err, shared := f.Do("k", func() (any, error) { return 7, nil })
	if shared || err != nil || val.(int) != 7 {
		t.Fatalf("fresh flight: val=%v err=%v shared=%v", val, err, shared)
	}
}

func TestGateCapacityAndShed(t *testing.T) {
	g := NewGate(2, 0)
	if !g.Acquire() || !g.Acquire() {
		t.Fatal("first two acquisitions should succeed")
	}
	if g.Acquire() {
		t.Fatal("third acquisition should shed with no queue deadline")
	}
	if g.InUse() != 2 || g.Capacity() != 2 {
		t.Fatalf("InUse=%d Capacity=%d, want 2/2", g.InUse(), g.Capacity())
	}
	g.Release()
	if !g.Acquire() {
		t.Fatal("acquisition after release should succeed")
	}
	st := g.Stats()
	if st.Admitted != 3 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 3 admitted / 1 shed", st)
	}
}

func TestGateQueueDeadline(t *testing.T) {
	g := NewGate(1, time.Second)
	if !g.Acquire() {
		t.Fatal("first acquisition should succeed")
	}
	done := make(chan bool)
	go func() { done <- g.Acquire() }()
	time.Sleep(5 * time.Millisecond) // let the second acquire queue
	g.Release()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("queued acquisition should succeed once released")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued acquisition never completed")
	}
	if st := g.Stats(); st.Waited != 1 {
		t.Fatalf("Waited = %d, want 1", st.Waited)
	}

	// A full gate past its deadline sheds.
	short := NewGate(1, 5*time.Millisecond)
	short.Acquire()
	if short.Acquire() {
		t.Fatal("acquisition should shed after the queue deadline")
	}
	if st := short.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
}

func TestGateNilAdmitsEverything(t *testing.T) {
	var g *Gate
	if g != NewGate(0, 0) {
		t.Fatal("NewGate(0) should be nil")
	}
	for i := 0; i < 100; i++ {
		if !g.Acquire() {
			t.Fatal("nil gate must admit")
		}
	}
	g.Release()
	if g.InUse() != 0 || g.Capacity() != 0 || g.Stats() != (GateStats{}) {
		t.Fatal("nil gate accessors should be zero")
	}
}

func TestClientLimiter(t *testing.T) {
	l := NewClientLimiter(2, 2, 0)
	now := time.Unix(1000, 0)
	a := netip.MustParseAddr("192.0.2.1")
	b := netip.MustParseAddr("192.0.2.2")

	if !l.Allow(a, now) || !l.Allow(a, now) {
		t.Fatal("burst of 2 should be allowed")
	}
	if l.Allow(a, now) {
		t.Fatal("third query in the same instant should be limited")
	}
	if !l.Allow(b, now) {
		t.Fatal("a different client must not be affected")
	}
	// Half a second refills one token at 2 qps.
	if !l.Allow(a, now.Add(500*time.Millisecond)) {
		t.Fatal("refill after 500ms should allow one query")
	}
	if l.Allow(a, now.Add(500*time.Millisecond)) {
		t.Fatal("refill grants only one token")
	}
	st := l.Stats()
	if st.Limited != 2 {
		t.Fatalf("Limited = %d, want 2", st.Limited)
	}
	if !l.Allow(netip.Addr{}, now) {
		t.Fatal("invalid address must fail open")
	}
}

func TestClientLimiterFailsOpenWhenFull(t *testing.T) {
	l := NewClientLimiter(1, 1, 2)
	now := time.Unix(1000, 0)
	// Two clients that are NOT prunable (they just spent their token).
	l.Allow(netip.MustParseAddr("10.0.0.1"), now)
	l.Allow(netip.MustParseAddr("10.0.0.2"), now)
	if l.Tracked() != 2 {
		t.Fatalf("Tracked = %d, want 2", l.Tracked())
	}
	// Table full, nothing idle: the overflow client is allowed untracked.
	if !l.Allow(netip.MustParseAddr("10.0.0.3"), now) {
		t.Fatal("overflow client must fail open")
	}
	// After the buckets refill, pruning makes room again.
	later := now.Add(10 * time.Second)
	if !l.Allow(netip.MustParseAddr("10.0.0.4"), later) {
		t.Fatal("new client should be admitted after pruning")
	}
	if l.Tracked() != 1 {
		t.Fatalf("Tracked = %d after prune, want 1", l.Tracked())
	}
}

// Response codes as dnswire numbers them.
const noerror, nxdomain = 0, 3

func TestRRLSlipCadence(t *testing.T) {
	r := NewRRL(1, 3, 0)
	now := time.Unix(1000, 0)
	client := netip.MustParseAddr("198.51.100.7")
	got := make([]RRLAction, 0, 8)
	for i := 0; i < 8; i++ {
		got = append(got, r.Decide(client, nxdomain, "printer.local.", now))
	}
	want := []RRLAction{RRLSend, RRLDrop, RRLDrop, RRLSlip, RRLDrop, RRLDrop, RRLSlip, RRLDrop}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
	st := r.Stats()
	if st.Sent != 1 || st.Dropped != 5 || st.Slipped != 2 {
		t.Fatalf("stats = %+v, want 1/5/2", st)
	}
	// A different response class has its own budget: another name, or
	// the same name with another code.
	if r.Decide(client, noerror, "example.com.", now) != RRLSend {
		t.Fatal("distinct name must have its own bucket")
	}
	if r.Decide(client, noerror, "printer.local.", now) != RRLSend {
		t.Fatal("distinct rcode must have its own bucket")
	}
	// Time refills the bucket.
	if r.Decide(client, nxdomain, "printer.local.", now.Add(2*time.Second)) != RRLSend {
		t.Fatal("refilled bucket should send")
	}
}

// Decide only reads qname: the state a new response class opens keeps a
// copy, so the caller may hand in a view of a buffer it reuses, and a
// response to a class already tracked allocates nothing.
func TestRRLKeepsItsOwnName(t *testing.T) {
	r := NewRRL(1, 0, 0)
	now := time.Unix(1000, 0)
	client := netip.MustParseAddr("198.51.100.7")
	buf := []byte("printer.local.")
	view := unsafe.String(&buf[0], len(buf))
	if r.Decide(client, nxdomain, view, now) != RRLSend {
		t.Fatal("first response should send")
	}
	copy(buf, "scanner.local.")
	if r.Decide(client, nxdomain, "printer.local.", now) != RRLDrop {
		t.Fatal("the class's name changed with the caller's buffer")
	}
	if r.Decide(client, nxdomain, view, now) != RRLSend {
		t.Fatal("a new name should open a class of its own")
	}
	if got := testing.AllocsPerRun(100, func() { r.Decide(client, nxdomain, view, now) }); got != 0 {
		t.Errorf("Decide on a tracked class: %v allocs, want 0", got)
	}
}

func TestRRLAggregatesClientNetwork(t *testing.T) {
	r := NewRRL(1, 0, 0)
	now := time.Unix(1000, 0)
	a := netip.MustParseAddr("203.0.113.10")
	b := netip.MustParseAddr("203.0.113.99") // same /24
	c := netip.MustParseAddr("203.0.114.10") // different /24
	if r.Decide(a, nxdomain, "t.", now) != RRLSend {
		t.Fatal("first response should send")
	}
	if r.Decide(b, nxdomain, "t.", now) != RRLDrop {
		t.Fatal("same /24 shares the bucket (slip disabled drops)")
	}
	if r.Decide(c, nxdomain, "t.", now) != RRLSend {
		t.Fatal("different /24 has its own bucket")
	}
	if r.Tracked() != 2 {
		t.Fatalf("Tracked = %d, want 2", r.Tracked())
	}
	if r.Decide(netip.Addr{}, nxdomain, "t.", now) != RRLSend {
		t.Fatal("invalid client address must send")
	}
	var nilRRL *RRL
	if nilRRL.Decide(a, nxdomain, "t.", now) != RRLSend {
		t.Fatal("nil RRL must send")
	}
}
