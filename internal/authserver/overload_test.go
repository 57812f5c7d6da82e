package authserver

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"rootless/internal/dnswire"
)

// fakeClock is a hand-cranked clock for driving the rate limiters.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestPerClientLimiterDropsFlood: one abusive client is token-bucketed
// while an unrelated client keeps getting answers; refill restores
// service to the abuser.
func TestPerClientLimiterDropsFlood(t *testing.T) {
	s := testServer(t)
	clk := &fakeClock{t: time.Unix(1555000000, 0)}
	s.SetOverload(OverloadConfig{PerClientQPS: 5, Clock: clk.now})

	abuser := netip.MustParseAddr("203.0.113.7")
	victim := netip.MustParseAddr("198.51.100.9")

	answered := 0
	for i := 0; i < 100; i++ {
		if resp := s.Handle(query("com.", dnswire.TypeNS), abuser); resp != nil {
			answered++
		}
	}
	if answered != 5 {
		t.Errorf("abuser got %d answers from a 5 qps bucket, want 5", answered)
	}
	st := s.Stats()
	if st.RateLimited != 95 {
		t.Errorf("RateLimited = %d, want 95", st.RateLimited)
	}
	if st.Queries != 100 {
		t.Errorf("Queries = %d, want 100 (drops still count as queries)", st.Queries)
	}

	// A different client is unaffected.
	if resp := s.Handle(query("org.", dnswire.TypeNS), victim); resp == nil {
		t.Error("victim client was starved by the abuser's bucket")
	}

	// Refill: a second later the abuser gets exactly the refilled tokens.
	clk.advance(time.Second)
	refilled := 0
	for i := 0; i < 20; i++ {
		if resp := s.Handle(query("com.", dnswire.TypeNS), abuser); resp != nil {
			refilled++
		}
	}
	if refilled != 5 {
		t.Errorf("abuser got %d answers after refill, want 5", refilled)
	}
}

// TestRRLSlipsTruncated: over-rate identical responses are mostly
// dropped, but every slip-th goes out truncated with empty sections so a
// real client behind a spoofed source can retry over TCP.
func TestRRLSlipsTruncated(t *testing.T) {
	s := testServer(t)
	clk := &fakeClock{t: time.Unix(1555000000, 0)}
	s.SetOverload(OverloadConfig{RRLRate: 2, RRLSlip: 3, Clock: clk.now})

	client := netip.MustParseAddr("203.0.113.50")
	var sent, dropped, slipped int
	for i := 0; i < 20; i++ {
		resp := s.Handle(query("foo.bogustld.", dnswire.TypeA), client)
		switch {
		case resp == nil:
			dropped++
		case resp.Truncated:
			slipped++
			if len(resp.Answers)+len(resp.Authority)+len(resp.Additional) != 0 {
				t.Fatalf("slip carried records: %+v", resp)
			}
		default:
			sent++
			if resp.Rcode != dnswire.RcodeNXDomain {
				t.Fatalf("rcode = %v", resp.Rcode)
			}
		}
	}
	// Rate 2 → first 2 sent; of the 18 suppressed, every 3rd slips.
	if sent != 2 || slipped != 6 || dropped != 12 {
		t.Errorf("sent=%d slipped=%d dropped=%d, want 2/6/12", sent, slipped, dropped)
	}
	st := s.Stats()
	if st.RRLDropped != 12 || st.RRLSlipped != 6 {
		t.Errorf("stats RRLDropped=%d RRLSlipped=%d, want 12/6", st.RRLDropped, st.RRLSlipped)
	}

	// A different response class (another qname) has its own budget.
	if resp := s.Handle(query("bar.bogustld.", dnswire.TypeA), client); resp == nil || resp.Truncated {
		t.Error("distinct response class was charged to the flooded one")
	}
	// A client in a different /24 has its own budget too.
	other := netip.MustParseAddr("203.0.114.50")
	if resp := s.Handle(query("foo.bogustld.", dnswire.TypeA), other); resp == nil || resp.Truncated {
		t.Error("distinct client network was charged to the flooded one")
	}
}

// TestGateShedsWhenSaturated: with every admission slot held the server
// drops new queries (nil response) and counts them as Shed; releasing a
// slot restores service. The zero from-address (netsim, TCP) does not
// bypass the gate.
func TestGateShedsWhenSaturated(t *testing.T) {
	s := testServer(t)
	s.SetOverload(OverloadConfig{MaxInflight: 2})

	// Saturate the gate from outside Handle: grab its slots directly.
	gate := s.guard.Load().gate
	if gate == nil {
		t.Fatal("gate not installed")
	}
	if !gate.Acquire() || !gate.Acquire() {
		t.Fatal("could not saturate gate")
	}
	if resp := s.Handle(query("com.", dnswire.TypeNS), netip.Addr{}); resp != nil {
		t.Error("saturated server still answered")
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("Shed = %d, want 1", st.Shed)
	}
	gate.Release()
	if resp := s.Handle(query("com.", dnswire.TypeNS), netip.Addr{}); resp == nil {
		t.Error("server did not recover after a slot freed")
	}
	gate.Release()
}

// TestOverloadDisabledIsTransparent: the zero config removes every
// protection, and invalid source addresses bypass the per-client checks.
func TestOverloadDisabledIsTransparent(t *testing.T) {
	s := testServer(t)
	s.SetOverload(OverloadConfig{PerClientQPS: 1, RRLRate: 1, Clock: func() time.Time { return time.Unix(1555000000, 0) }})

	// The anonymous source (netsim, TCP) is never client-limited or RRLed.
	for i := 0; i < 10; i++ {
		if resp := s.Handle(query("com.", dnswire.TypeNS), netip.Addr{}); resp == nil {
			t.Fatal("anonymous source was rate-limited")
		}
	}

	// Clearing the config restores unlimited service for everyone.
	s.SetOverload(OverloadConfig{})
	client := netip.MustParseAddr("203.0.113.99")
	for i := 0; i < 10; i++ {
		if resp := s.Handle(query("com.", dnswire.TypeNS), client); resp == nil {
			t.Fatal("zero overload config still limited a client")
		}
	}
	st := s.Stats()
	if st.RateLimited != 0 || st.RRLDropped != 0 || st.RRLSlipped != 0 || st.Shed != 0 {
		t.Errorf("protection fired while disabled: %+v", st)
	}
}
