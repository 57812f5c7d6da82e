package obs

import (
	"strings"
	"time"
)

// Phase classifies where a span's time is attributed in the per-trace
// latency breakdown. The taxonomy mirrors the paper's cost model: cache
// work, productive network exchanges, authoritative-side processing,
// wasted time on failed attempts (timeouts, lame servers — the price of
// retry/backoff), and time spent queued behind overload controls.
type Phase uint8

const (
	PhaseOther        Phase = iota // uninstrumented resolver compute
	PhaseCache                     // cache probes (positive, negative, NXDOMAIN cut)
	PhaseNet                       // productive upstream exchanges (charged virtual RTT)
	PhaseAuth                      // authoritative handling: local-root consults, authserver work
	PhaseBackoff                   // failed attempts: timeouts, lame servers, bad referrals
	PhaseOverloadWait              // admission-gate queueing and coalesced-flight waits
	PhaseValidate                  // DNSSEC validation: chain walks, RRSIG checks, denial proofs
	numPhases
)

var phaseNames = [numPhases]string{
	"other", "cache", "net", "auth", "backoff", "overload_wait", "validate",
}

// String returns the snake_case phase label used in summary labels and
// JSON exports.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "other"
}

// Phases lists every phase in attribution order.
func Phases() []Phase {
	ps := make([]Phase, numPhases)
	for i := range ps {
		ps[i] = Phase(i)
	}
	return ps
}

// Attribution is a per-phase latency breakdown in nanoseconds for one
// trace (or, summed, for a whole trial). Each span contributes its
// self-time — duration minus the duration of its children — to its
// phase, so nested spans never double-count. Because network spans may
// be charged virtual RTTs larger than real elapsed time, the total can
// exceed the trace's wall time; it equals the trace's reported latency
// plus real compute.
type Attribution struct {
	CacheNS        int64 `json:"cache_ns"`
	NetNS          int64 `json:"net_ns"`
	AuthNS         int64 `json:"auth_ns"`
	BackoffNS      int64 `json:"backoff_ns"`
	OverloadWaitNS int64 `json:"overload_wait_ns"`
	ValidateNS     int64 `json:"validate_ns"`
	OtherNS        int64 `json:"other_ns"`
}

func (a *Attribution) add(p Phase, ns int64) {
	if ns <= 0 {
		return
	}
	switch p {
	case PhaseCache:
		a.CacheNS += ns
	case PhaseNet:
		a.NetNS += ns
	case PhaseAuth:
		a.AuthNS += ns
	case PhaseBackoff:
		a.BackoffNS += ns
	case PhaseOverloadWait:
		a.OverloadWaitNS += ns
	case PhaseValidate:
		a.ValidateNS += ns
	default:
		a.OtherNS += ns
	}
}

// ByPhase returns the nanoseconds attributed to one phase.
func (a Attribution) ByPhase(p Phase) int64 {
	switch p {
	case PhaseCache:
		return a.CacheNS
	case PhaseNet:
		return a.NetNS
	case PhaseAuth:
		return a.AuthNS
	case PhaseBackoff:
		return a.BackoffNS
	case PhaseOverloadWait:
		return a.OverloadWaitNS
	case PhaseValidate:
		return a.ValidateNS
	default:
		return a.OtherNS
	}
}

// Total sums all phases.
func (a Attribution) Total() int64 {
	return a.CacheNS + a.NetNS + a.AuthNS + a.BackoffNS + a.OverloadWaitNS + a.ValidateNS + a.OtherNS
}

// Add returns a + b, phase by phase.
func (a Attribution) Add(b Attribution) Attribution {
	a.CacheNS += b.CacheNS
	a.NetNS += b.NetNS
	a.AuthNS += b.AuthNS
	a.BackoffNS += b.BackoffNS
	a.OverloadWaitNS += b.OverloadWaitNS
	a.ValidateNS += b.ValidateNS
	a.OtherNS += b.OtherNS
	return a
}

// Sub returns a - b, phase by phase (for before/after trial snapshots).
func (a Attribution) Sub(b Attribution) Attribution {
	a.CacheNS -= b.CacheNS
	a.NetNS -= b.NetNS
	a.AuthNS -= b.AuthNS
	a.BackoffNS -= b.BackoffNS
	a.OverloadWaitNS -= b.OverloadWaitNS
	a.ValidateNS -= b.ValidateNS
	a.OtherNS -= b.OtherNS
	return a
}

// Span is one timed, phase-tagged step of a trace. Spans form a tree
// under the trace; a trace on one goroutine keeps a cursor so StartSpan
// nests under the most recently started unfinished span. A span costs
// one allocation when tracing is enabled and nothing at all (nil
// receiver no-ops) when it is not.
type Span struct {
	tr     *Trace
	parent *Span

	Name   string
	phase  Phase
	detail string

	start    time.Duration // offset from trace start
	dur      time.Duration // set by End/EndWithDuration, or at Finish
	ended    bool
	id       uint64 // lazily assigned by SpanID (wire propagation)
	remote   bool   // grafted from a far daemon's span payload
	children []*Span
}

// StartSpan opens a child of the current span (or a top-level span) and
// makes it current. Nil-safe: on a nil trace it returns nil, and every
// Span method no-ops on a nil receiver.
func (tr *Trace) StartSpan(p Phase, name string) *Span {
	if tr == nil {
		return nil
	}
	s := &Span{tr: tr, Name: name, phase: p, start: time.Since(tr.Start)}
	tr.mu.Lock()
	s.parent = tr.cur
	if s.parent != nil {
		s.parent.children = append(s.parent.children, s)
	} else {
		tr.spans = append(tr.spans, s)
	}
	tr.cur = s
	tr.mu.Unlock()
	return s
}

// SetPhase reclassifies the span (e.g. a network attempt that turned out
// to be a timeout becomes backoff time). Nil-safe.
func (s *Span) SetPhase(p Phase) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.phase = p
	s.tr.mu.Unlock()
}

// SetDetail attaches a short annotation (server address, decision).
// Nil-safe; callers should guard any allocation needed to build the
// string with a nil check on the span.
func (s *Span) SetDetail(d string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.detail = d
	s.tr.mu.Unlock()
}

// End closes the span with its wall duration. Ending out of order is
// tolerated: the cursor pops to the span's parent, and any still-open
// children are closed when the trace finishes. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endWith(time.Since(s.tr.Start) - s.start)
}

// EndWithDuration closes the span charging an explicit duration instead
// of wall time — used for virtual network RTTs from the simulator, and
// for charging a measured wait to a span created after the fact.
func (s *Span) EndWithDuration(d time.Duration) {
	if s == nil {
		return
	}
	s.endWith(d)
}

func (s *Span) endWith(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = d
		if s.tr.cur == s {
			s.tr.cur = s.parent
		}
	}
	s.tr.mu.Unlock()
}

// closeOpenSpans assigns wall durations to spans left open at Finish.
// Caller holds tr.mu.
func closeOpenSpans(spans []*Span, wall time.Duration) {
	for _, s := range spans {
		if !s.ended {
			s.ended = true
			if d := wall - s.start; d > 0 {
				s.dur = d
			}
		}
		closeOpenSpans(s.children, wall)
	}
}

// attribute walks the span tree adding each span's self-time to its
// phase; returns the subtree's root duration. Caller holds tr.mu.
func attribute(s *Span, a *Attribution) time.Duration {
	var children time.Duration
	for _, c := range s.children {
		children += attribute(c, a)
	}
	if self := s.dur - children; self > 0 {
		a.add(s.phase, int64(self))
	}
	return s.dur
}

// computeAttribution closes open spans, tallies per-phase self-times,
// and charges the trace's remaining wall time to "other". Caller holds
// tr.mu.
func (tr *Trace) computeAttribution(wall time.Duration) Attribution {
	closeOpenSpans(tr.spans, wall)
	var a Attribution
	var spans time.Duration
	for _, s := range tr.spans {
		spans += attribute(s, &a)
	}
	if rest := wall - spans; rest > 0 {
		a.add(PhaseOther, int64(rest))
	}
	return a
}

// SpanJSON is the export form of one span in the /tracez JSON schema.
type SpanJSON struct {
	Name     string      `json:"name"`
	Phase    string      `json:"phase"`
	StartNS  int64       `json:"start_ns"`
	DurNS    int64       `json:"dur_ns"`
	Detail   string      `json:"detail,omitempty"`
	Remote   bool        `json:"remote,omitempty"`
	Children []*SpanJSON `json:"children,omitempty"`
}

// export converts a span subtree to its JSON form. Caller holds tr.mu.
func (s *Span) export() *SpanJSON {
	out := &SpanJSON{
		Name:    s.Name,
		Phase:   s.phase.String(),
		StartNS: int64(s.start),
		DurNS:   int64(s.dur),
		Detail:  s.detail,
		Remote:  s.remote,
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.export())
	}
	return out
}

// writeTree renders a span subtree into the /tracez text view. Caller
// holds tr.mu.
func (s *Span) writeTree(sb *strings.Builder, indent int) {
	sb.WriteString("  ")
	sb.WriteString(strings.Repeat("  ", indent))
	sb.WriteString("• ")
	sb.WriteString(s.Name)
	sb.WriteString(" [")
	sb.WriteString(s.phase.String())
	sb.WriteString("] ")
	sb.WriteString(s.dur.Round(time.Microsecond).String())
	if s.detail != "" {
		sb.WriteString(" (")
		sb.WriteString(s.detail)
		sb.WriteString(")")
	}
	sb.WriteByte('\n')
	for _, c := range s.children {
		c.writeTree(sb, indent+1)
	}
}
