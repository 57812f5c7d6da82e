package authserver

import (
	"rootless/internal/dnswire"
	"rootless/internal/obs"
)

// Cross-process trace propagation, authoritative side. A resolver with
// TracePropagate on stamps a sampled EDNS0 trace option on its queries;
// the UDP serve loop joins a local trace to that ID (so this daemon's
// /tracez?traceid= finds the auth-side share) and ships the finished
// span tree back inside the response's trace option for the resolver to
// graft. Everything here is opt-in: without SetTracer, or for queries
// without a sampled option, the hot path is untouched.

// joinRemoteTrace begins a trace joined to the querier's trace when the
// arriving query carries a sampled trace option and a tracer is
// installed. Returns nil otherwise.
func (s *Server) joinRemoteTrace(q *dnswire.Query) *obs.Trace {
	t := s.tracer.Load()
	if t == nil || !q.Trace.Sampled {
		return nil
	}
	var qname, qtype string
	if name := q.Name(); name != "" {
		qname = string(name.Clone()) // the trace outlives q
		qtype = q.Type.String()
	}
	return t.BeginRemote(qname, qtype, q.Trace.TraceID, q.Trace.SpanID)
}

// attachTrace finishes a joined trace (recording it on this daemon's
// ring) and ships its span tree back in the response's trace option.
// Attaching a payload turns the reply into a message of its own to be
// re-packed, its Additional section deep-copied first so the
// packed-answer template's shared slices are never mutated. Dropped
// queries still finish the trace — the drop verdict is exactly what the
// far side wants to see on this daemon's /tracez.
func (s *Server) attachTrace(tr *obs.Trace, q *dnswire.Query, r reply) reply {
	if r.dropped() {
		tr.Finish("DROPPED", 0, 1, nil)
		return r
	}
	payload := tr.SpanPayload()
	tr.Finish(r.rcode().String(), 0, 1, nil)
	if payload == nil {
		return r
	}
	resp := r.message(q)
	resp.Additional = append([]dnswire.RR(nil), resp.Additional...)
	resp.SetTraceOption(dnswire.TraceContext{TraceID: q.Trace.TraceID, SpanID: q.Trace.SpanID}, payload)
	return reply{msg: resp}
}
