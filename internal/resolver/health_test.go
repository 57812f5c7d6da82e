package resolver

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"rootless/internal/dnswire"
	"rootless/internal/faults"
	"rootless/internal/netsim"
	"rootless/internal/obs"
)

// resolveFail runs a resolution that is expected to fail and returns the
// error.
func resolveFail(t *testing.T, r *Resolver, name dnswire.Name) error {
	t.Helper()
	_, err := r.Resolve(name, dnswire.TypeA)
	if err == nil {
		t.Fatalf("resolving %s unexpectedly succeeded", name)
	}
	return err
}

func TestTypedErrorTimeout(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetAddrDown(rootV4, true)
	tp.net.SetAddrDown(root2V4, true)
	r := tp.resolver(t, RootModeHints)
	err := resolveFail(t, r, "www.example.com.")
	if !errors.Is(err, ErrAllServersFail) {
		t.Errorf("err = %v, want ErrAllServersFail", err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want wrapped ErrTimeout", err)
	}
	if errors.Is(err, ErrLame) {
		t.Errorf("err = %v, should not be ErrLame", err)
	}
}

func TestTypedErrorLame(t *testing.T) {
	tp := newTopo(t)
	in := faults.NewInjector(1)
	in.Add(faults.Rule{Target: faults.Target{Addr: rootV4}, Kind: faults.ServFail})
	in.Add(faults.Rule{Target: faults.Target{Addr: root2V4}, Kind: faults.Refused})
	tp.net.SetFaultPolicy(in)
	r := tp.resolver(t, RootModeHints)
	err := resolveFail(t, r, "www.example.com.")
	if !errors.Is(err, ErrAllServersFail) {
		t.Errorf("err = %v, want ErrAllServersFail", err)
	}
	if !errors.Is(err, ErrLame) {
		t.Errorf("err = %v, want wrapped ErrLame", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, should not be ErrTimeout", err)
	}
	if st := r.Stats(); st.LameResponses < 2 {
		t.Errorf("LameResponses = %d, want >= 2", st.LameResponses)
	}
}

func TestHoldDownTripsAndSkips(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetAddrDown(rootV4, true)
	tp.net.SetAddrDown(root2V4, true)
	tr := obs.NewTracer(16, 0)
	tr.SetEnabled(true)
	r := tp.resolver(t, RootModeHints)
	r.SetTracer(tr)

	// Three failed resolutions bring both roots to the default threshold.
	for i := 0; i < 3; i++ {
		resolveFail(t, r, "www.example.com.")
	}
	st := r.Stats()
	if st.HoldDowns != 2 {
		t.Fatalf("HoldDowns = %d, want 2 (both roots tripped)", st.HoldDowns)
	}
	if held, _ := r.HealthCounts(); held != 2 {
		t.Fatalf("held = %d, want 2", held)
	}

	// With every server held, the next resolution force-probes exactly one
	// instead of burning a timeout per server.
	before := r.Stats().TotalQueries
	resolveFail(t, r, "www.example.com.")
	st = r.Stats()
	if got := st.TotalQueries - before; got != 1 {
		t.Errorf("all-held resolution sent %d queries, want 1 (the probe)", got)
	}
	if st.Probes == 0 {
		t.Error("Probes not counted")
	}
	if st.HeldDownSkips == 0 {
		t.Error("HeldDownSkips not counted")
	}

	// The hold-down and probe decisions must be visible in the trace.
	kinds := map[string]bool{}
	for _, trace := range tr.Recent() {
		for _, ev := range trace.Events {
			kinds[ev.Kind] = true
		}
	}
	for _, want := range []string{"hold-down", "probe", "backoff"} {
		if !kinds[want] {
			t.Errorf("trace missing %q event", want)
		}
	}
}

func TestHoldDownProbeReadmitsRecoveredServer(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetAddrDown(rootV4, true)
	tp.net.SetAddrDown(root2V4, true)
	r := tp.resolver(t, RootModeHints)
	for i := 0; i < 3; i++ {
		resolveFail(t, r, "www.example.com.")
	}
	if held, _ := r.HealthCounts(); held != 2 {
		t.Fatalf("held = %d, want 2", held)
	}

	// The servers recover; once the hold-down lapses a probe re-admits
	// them and resolution works again.
	tp.net.SetAddrDown(rootV4, false)
	tp.net.SetAddrDown(root2V4, false)
	tp.net.Advance(10 * time.Minute)
	res, err := r.Resolve("www.example.com.", dnswire.TypeA)
	if err != nil {
		t.Fatalf("post-recovery resolution failed: %v", err)
	}
	if res.Rcode != dnswire.RcodeSuccess {
		t.Fatalf("rcode = %v", res.Rcode)
	}
	if r.Stats().Probes == 0 {
		t.Error("recovery did not go through a probe")
	}
	if held, backing := r.HealthCounts(); held != 0 || backing != 0 {
		t.Errorf("health not reset after success: held=%d backing=%d", held, backing)
	}
}

func TestFailedProbeDoublesHoldDown(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetAddrDown(rootV4, true)
	tp.net.SetAddrDown(root2V4, true)
	r := tp.resolver(t, RootModeHints, func(c *Config) {
		c.HoldDown = 30 * time.Second
	})
	for i := 0; i < 3; i++ {
		resolveFail(t, r, "www.example.com.")
	}
	// Let the first hold-down lapse; the probe fails (still down), so the
	// breaker re-trips for a doubled period.
	tp.net.Advance(time.Minute)
	resolveFail(t, r, "www.example.com.")
	r.mu.Lock()
	h := r.health[rootV4]
	var period time.Duration
	if h != nil {
		period = h.holdPeriod
	}
	r.mu.Unlock()
	if h == nil {
		// The force-probe may have picked the other root; check it instead.
		r.mu.Lock()
		if h2 := r.health[root2V4]; h2 != nil {
			period = h2.holdPeriod
		}
		r.mu.Unlock()
	}
	if period < 60*time.Second {
		t.Errorf("hold period after failed probe = %v, want >= 60s", period)
	}
}

func TestRetryBudgetStopsResolution(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetLossRate(1.0)
	r := tp.resolver(t, RootModeHints, func(c *Config) {
		c.RetryBudget = 2
		c.MaxQueries = 64
	})
	err := resolveFail(t, r, "www.example.com.")
	if !errors.Is(err, ErrRetryBudget) {
		t.Errorf("err = %v, want ErrRetryBudget", err)
	}
	st := r.Stats()
	if st.TotalQueries != 2 {
		t.Errorf("TotalQueries = %d, want exactly the 2 budgeted attempts", st.TotalQueries)
	}
	if st.RetryBudgetStops != 1 {
		t.Errorf("RetryBudgetStops = %d, want 1", st.RetryBudgetStops)
	}
}

func TestBackoffDemotesFlakyServer(t *testing.T) {
	tp := newTopo(t)
	// Root a answers SERVFAIL (lame), root b is healthy: after the first
	// failure, a is in backoff and b is preferred, before any hold-down.
	in := faults.NewInjector(1)
	in.Add(faults.Rule{Target: faults.Target{Addr: rootV4}, Kind: faults.ServFail})
	tp.net.SetFaultPolicy(in)
	r := tp.resolver(t, RootModeHints)

	if _, err := r.Resolve("www.example.com.", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if _, backing := r.HealthCounts(); backing != 1 {
		t.Errorf("backing = %d, want 1 (the lame root)", backing)
	}
	if st := r.Stats(); st.LameResponses == 0 {
		t.Error("lame root answer not counted")
	}
}

func TestHealthDisabled(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetAddrDown(rootV4, true)
	tp.net.SetAddrDown(root2V4, true)
	r := tp.resolver(t, RootModeHints, func(c *Config) {
		c.HoldDownAfter = -1
	})
	for i := 0; i < 5; i++ {
		resolveFail(t, r, "www.example.com.")
	}
	st := r.Stats()
	if st.HoldDowns != 0 || st.Probes != 0 || st.HeldDownSkips != 0 {
		t.Errorf("health tracking ran while disabled: %+v", st)
	}
	if held, backing := r.HealthCounts(); held != 0 || backing != 0 {
		t.Errorf("health state accumulated while disabled: held=%d backing=%d", held, backing)
	}
}

func TestHealthMetricsExposed(t *testing.T) {
	tp := newTopo(t)
	tp.net.SetAddrDown(rootV4, true)
	tp.net.SetAddrDown(root2V4, true)
	r := tp.resolver(t, RootModeHints)
	for i := 0; i < 3; i++ {
		resolveFail(t, r, "www.example.com.")
	}
	reg := obs.NewRegistry()
	r.Collect(reg)
	got := map[string]float64{}
	for _, s := range reg.Snapshot() {
		got[s.Name] = s.Value
	}
	if got["rootless_resolver_held_down_servers"] != 2 {
		t.Errorf("held_down_servers gauge = %v, want 2", got["rootless_resolver_held_down_servers"])
	}
	for _, name := range []string{
		"rootless_resolver_hold_downs_total",
		"rootless_resolver_probes_total",
		"rootless_resolver_held_down_skips_total",
		"rootless_resolver_lame_responses_total",
		"rootless_resolver_retry_budget_stops_total",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("scrape missing %s", name)
		}
	}
}

// Guard the netsim import: the fault injector must satisfy the network's
// policy interface from outside the netsim package.
var _ netsim.FaultPolicy = (*faults.Injector)(nil)

// Delegations can point at endless unresponsive addresses, and only a
// success deletes a health entry: the table must stay within the same
// bound as the SRTT table, and a full table must still admit.
func TestHealthTableBounded(t *testing.T) {
	r := newTopo(t).resolver(t, RootModeHints)
	now := r.cfg.Clock()
	var last netip.Addr
	for i := 0; i < maxSRTTEntries+1000; i++ {
		last = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
		r.noteFailure(last, now)
	}
	r.mu.Lock()
	n, newest := len(r.health), r.health[last]
	r.mu.Unlock()
	if n > maxSRTTEntries {
		t.Errorf("health table holds %d entries, want at most %d", n, maxSRTTEntries)
	}
	if newest == nil || newest.fails != 1 {
		t.Errorf("newest failing server's entry = %+v, want one failure", newest)
	}
}
