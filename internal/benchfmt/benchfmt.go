// Package benchfmt turns `go test -bench` output into a schema-stable
// JSON report, validates such reports, and diffs two of them — the
// perf-trajectory pipeline behind `make bench`. Each PR commits a
// BENCH_<pr>.json snapshot; because the schema is fixed and benchmark
// names are machine-independent (the -GOMAXPROCS suffix is stripped),
// successive snapshots diff cleanly and the repo accumulates a latency
// trajectory alongside the code.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the report layout. Bump only with a migration path:
// committed snapshots from earlier PRs must keep validating or Diff
// loses the trajectory.
const Schema = "rootless-bench/v1"

// Entry is one benchmark result. Extra carries custom units emitted via
// testing.B.ReportMetric (e.g. upstream-queries/op), which is how
// experiment-derived figures travel through the standard bench format.
type Entry struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the committed artifact.
type Report struct {
	Schema    string `json:"schema"`
	Label     string `json:"label"`
	GoVersion string `json:"go_version"`
	// Benchmarks are sorted by name so snapshots diff cleanly in git.
	Benchmarks []Entry `json:"benchmarks"`
	// Derived holds headline figures computed from the raw entries
	// (throughputs, overhead deltas) — see Derive.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// Parse reads `go test -bench` text output and returns the benchmark
// entries, sorted by name. Non-benchmark lines (PASS, ok, goos: ...)
// are ignored, so the output of several packages can be concatenated.
func Parse(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmarking..." chatter, not a result line
		}
		e := Entry{Name: stripProcSuffix(fields[0]), Iterations: iters}
		// The rest of the line is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value %q on line %q", fields[i], sc.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				if e.Extra == nil {
					e.Extra = make(map[string]float64)
				}
				e.Extra[unit] = v
			}
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// stripProcSuffix removes the trailing -GOMAXPROCS from a benchmark
// name (BenchmarkResolve/NoTracer-8 → BenchmarkResolve/NoTracer) so
// names are stable across machines.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Validate checks a report's structural invariants: the schema tag, a
// non-empty label, and well-formed deduplicated entries. min is the
// smallest acceptable benchmark count (0 to skip the check).
func Validate(rep *Report, min int) error {
	if rep.Schema != Schema {
		return fmt.Errorf("benchfmt: schema %q, want %q", rep.Schema, Schema)
	}
	if rep.Label == "" {
		return fmt.Errorf("benchfmt: empty label")
	}
	if len(rep.Benchmarks) < min {
		return fmt.Errorf("benchfmt: %d benchmarks, want at least %d", len(rep.Benchmarks), min)
	}
	seen := make(map[string]bool, len(rep.Benchmarks))
	for _, e := range rep.Benchmarks {
		switch {
		case e.Name == "" || !strings.HasPrefix(e.Name, "Benchmark"):
			return fmt.Errorf("benchfmt: bad benchmark name %q", e.Name)
		case seen[e.Name]:
			return fmt.Errorf("benchfmt: duplicate benchmark %q (use -count=1)", e.Name)
		case e.Iterations <= 0:
			return fmt.Errorf("benchfmt: %s: iterations %d", e.Name, e.Iterations)
		case e.NsPerOp < 0 || e.BytesPerOp < 0 || e.AllocsPerOp < 0:
			return fmt.Errorf("benchfmt: %s: negative metric", e.Name)
		}
		seen[e.Name] = true
	}
	return nil
}

// NoiseBandFrac is the fraction of the baseline ns/op below which a
// derived overhead delta is considered measurement noise. Two runs of
// the same code routinely differ by a few percent; without the clamp a
// lucky run yields nonsense like a negative tracing overhead.
const NoiseBandFrac = 0.05

// NoiseFloorNs is the absolute ns/op delta below which a cross-snapshot
// comparison is timer-granularity noise, whatever the ratio says.
// Snapshots are taken on whatever host the PR ran on; for single-digit-ns
// micro-ops (an 8 ns disabled-tracer check) a 2 ns host-to-host drift
// reads as a 25% "regression" while the code is byte-identical. The
// relative band alone cannot express that, so the regression gate also
// requires the absolute delta to clear this floor.
const NoiseFloorNs = 3.0

// Derive computes the headline figures a snapshot is read for: hot-path
// resolution throughput, the cost of enabling tracing, and the
// coalescing shield factor. Missing benchmarks simply yield no figure,
// so Derive works on partial runs too.
//
// Overhead deltas smaller than NoiseBandFrac of their baseline are
// clamped to zero and flagged with a companion <key>_within_noise=1
// entry, so a snapshot never reports a spurious (possibly negative)
// overhead that a reader might mistake for a real speedup.
func Derive(entries []Entry) map[string]float64 {
	byName := make(map[string]Entry, len(entries))
	for _, e := range entries {
		byName[e.Name] = e
	}
	d := make(map[string]float64)
	overhead := func(key string, base, with float64) {
		delta := with - base
		// A negative overhead is physically impossible — the measured
		// path strictly includes the baseline's work — so any delta
		// below the band is noise, not just small-magnitude ones.
		if delta < NoiseBandFrac*base {
			d[key] = 0
			d[key+"_within_noise"] = 1
			return
		}
		d[key] = delta
	}
	if e, ok := byName["BenchmarkResolve/NoTracer"]; ok && e.NsPerOp > 0 {
		d["resolve_ops_per_sec"] = 1e9 / e.NsPerOp
		if t, ok := byName["BenchmarkResolve/TracerEnabled"]; ok {
			overhead("tracing_enabled_overhead_ns_per_op", e.NsPerOp, t.NsPerOp)
		}
		if t, ok := byName["BenchmarkResolve/TracerDisabled"]; ok {
			overhead("tracing_disabled_overhead_ns_per_op", e.NsPerOp, t.NsPerOp)
		}
	}
	if e, ok := byName["BenchmarkResolveConcurrent/Coalesce"]; ok && e.NsPerOp > 0 {
		d["resolve_concurrent_ops_per_sec"] = 1e9 / e.NsPerOp
		if q, ok := e.Extra["upstream-queries/op"]; ok {
			d["coalesce_upstream_queries_per_op"] = q
		}
	}
	// PR 5 hot-path memory figures: codec allocation counts, the sharded
	// cache's contention ratio, and the packed-answer cache payoff.
	if e, ok := byName["BenchmarkMessagePack"]; ok {
		d["wire_pack_allocs_per_op"] = e.AllocsPerOp
	}
	if e, ok := byName["BenchmarkMessageUnpack"]; ok {
		d["wire_unpack_allocs_per_op"] = e.AllocsPerOp
	}
	if e, ok := byName["BenchmarkCache/Get"]; ok {
		d["cache_get_allocs_per_op"] = e.AllocsPerOp
	}
	if par, ok := byName["BenchmarkCache/GetParallel"]; ok && par.NsPerOp > 0 {
		if single, ok := byName["BenchmarkCache/GetParallelSingleShard"]; ok {
			// >1 means sharding beats the single-lock design under the
			// same parallel load. Both source benchmarks are in
			// wallClockUnreliable: on a runner without real parallelism
			// the ratio can dip below 1 (BENCH_PR5 recorded 0.76), which
			// says nothing about the sharding design. The companion flag
			// marks the figure so snapshot readers and the regression
			// gate treat it as wall-clock-unreliable too.
			d["cache_shard_speedup"] = single.NsPerOp / par.NsPerOp
			d["cache_shard_speedup_wall_clock_unreliable"] = 1
		}
	}
	// PR 6 traffic-analytics figures: the streaming classifier rides the
	// resolve/handle hot paths, so its per-observation cost is a headline
	// number (the acceptance bound is ~20 ns and zero allocations).
	if e, ok := byName["BenchmarkTrafficClassify"]; ok {
		d["traffic_classify_ns_per_op"] = e.NsPerOp
	}
	if e, ok := byName["BenchmarkTrafficObserve"]; ok {
		d["traffic_observe_ns_per_op"] = e.NsPerOp
		d["traffic_observe_allocs_per_op"] = e.AllocsPerOp
	}
	if e, ok := byName["BenchmarkTrafficTopKHit"]; ok {
		d["traffic_topk_hit_ns_per_op"] = e.NsPerOp
	}
	// PR 7 validation figures: the full DNSSEC chain-walk cost per
	// validated answer, and the cost of synthesizing a denial from the
	// aggressive NSEC cache — the price of absorbing a junk query without
	// any upstream traffic, so it must stay far below a network RTT.
	if e, ok := byName["BenchmarkValidate"]; ok {
		d["dnssec_validate_ns_per_op"] = e.NsPerOp
		d["dnssec_validate_allocs_per_op"] = e.AllocsPerOp
	}
	if e, ok := byName["BenchmarkNSECSynthesize"]; ok {
		d["nsec_synthesize_ns_per_op"] = e.NsPerOp
		d["nsec_synthesize_allocs_per_op"] = e.AllocsPerOp
	}
	// PR 8 distribution figures: catching up via a signed daily delta
	// must beat re-verifying a full bundle — the O(delta) vs O(zone)
	// claim of the self-healing distribution channel, in wall time. The
	// speedup is bounded by the zone-copy cost Apply shares with full
	// verification, so it is smaller than the sig-check ratio t_dist
	// reports; >1 is the requirement.
	if ap, ok := byName["BenchmarkDeltaApply"]; ok {
		d["delta_verify_ns_per_op"] = ap.NsPerOp
		d["delta_verify_allocs_per_op"] = ap.AllocsPerOp
		if full, ok := byName["BenchmarkFullBundleVerify"]; ok && ap.NsPerOp > 0 {
			d["delta_verify_speedup"] = full.NsPerOp / ap.NsPerOp
		}
	}
	// PR 9 observability figures: the HDR histogram rides every hot-path
	// latency observation (acceptance: ≤20 ns, zero allocations), and
	// stamping + grafting the EDNS0 trace option must stay within 5% of a
	// traced resolution — the _frac figure is what the acceptance gate
	// reads.
	if e, ok := byName["BenchmarkHDRRecord"]; ok {
		d["hdr_record_ns_per_op"] = e.NsPerOp
		d["hdr_record_allocs_per_op"] = e.AllocsPerOp
	}
	if e, ok := byName["BenchmarkHDRQuantile"]; ok {
		d["hdr_quantile_ns_per_op"] = e.NsPerOp
		if re, ok := e.Extra["p999-rel-err"]; ok {
			d["hdr_p999_relative_error"] = re
		}
	}
	if base, ok := byName["BenchmarkResolve/TracerEnabled"]; ok && base.NsPerOp > 0 {
		if p, ok := byName["BenchmarkResolve/TracePropagate"]; ok {
			overhead("trace_propagation_overhead_ns_per_op", base.NsPerOp, p.NsPerOp)
			frac := (p.NsPerOp - base.NsPerOp) / base.NsPerOp
			if frac < 0 {
				frac = 0
			}
			d["trace_propagation_overhead_frac"] = frac
		}
	}
	if hit, ok := byName["BenchmarkHandle/PackedHit"]; ok && hit.NsPerOp > 0 {
		if p, ok := hit.Extra["packs/op"]; ok {
			d["authserver_packed_hit_packs_per_op"] = p
		}
		if cold, ok := byName["BenchmarkHandle/ColdBuild"]; ok {
			d["authserver_packed_hit_speedup"] = cold.NsPerOp / hit.NsPerOp
		}
	}
	// PR 10 multi-core serving figures, measured by the real-socket
	// loadgen in saturation mode. served_qps_* is achieved rate x
	// response rate — the serving capacity bound of the in-process authd.
	// Every figure here shares the generator's core(s) with the server,
	// so all carry the wall-clock-unreliable companion: on a single-core
	// runner the 4-worker ratio cannot exceed ~1 (there is no second core
	// to win — the same physics as cache_shard_speedup's 0.76 in
	// BENCH_PR5), while udpengine_batch_msgs_per_read is a syscall count
	// ratio and stays meaningful on any host.
	if w1, ok := byName["BenchmarkServedQPS/Workers1"]; ok {
		if q1, ok := w1.Extra["served-qps"]; ok && q1 > 0 {
			peak := q1
			d["served_qps_1w"] = q1
			if w4, ok := byName["BenchmarkServedQPS/Workers4"]; ok {
				if q4, ok := w4.Extra["served-qps"]; ok {
					d["udpengine_scaling_4w"] = q4 / q1
					d["udpengine_scaling_4w_wall_clock_unreliable"] = 1
					if q4 > peak {
						peak = q4
					}
				}
			}
			if wb, ok := byName["BenchmarkServedQPS/Workers4Batch8"]; ok {
				if qb, ok := wb.Extra["served-qps"]; ok && qb > peak {
					peak = qb
				}
				if m, ok := wb.Extra["msgs-per-read"]; ok {
					d["udpengine_batch_msgs_per_read"] = m
				}
				if p, ok := wb.Extra["p999-ms"]; ok {
					d["served_p999_ms"] = p
				}
			}
			d["served_qps_peak"] = peak
			d["served_qps_peak_wall_clock_unreliable"] = 1
		}
	}
	// PR 15 resolver front-door figures: what a cache hit costs from
	// datagram to reply bytes on a socket worker (with one engine worker
	// the handler is the worker's critical path, so this bounds served
	// qps), and hot-path resolution throughput from GOMAXPROCS goroutines
	// at once — the counterpart resolve_ops_per_sec never had while every
	// counter write met at one mutex. The parallel figure needs cores the
	// runner may not have, hence the companion flag.
	if e, ok := byName["BenchmarkResolverServe/Hit"]; ok {
		d["resolver_serve_hit_ns"] = e.NsPerOp
		d["resolver_serve_hit_allocs_per_op"] = e.AllocsPerOp
	}
	if e, ok := byName["BenchmarkResolveParallel"]; ok && e.NsPerOp > 0 {
		d["resolve_parallel_ops_per_sec"] = 1e9 / e.NsPerOp
		d["resolve_parallel_ops_per_sec_wall_clock_unreliable"] = 1
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

// Delta is one benchmark's movement between two reports.
type Delta struct {
	Name     string
	OldNs    float64
	NewNs    float64
	Ratio    float64 // NewNs/OldNs; 1.0 = unchanged, >1 = slower
	OldAlloc float64
	NewAlloc float64
}

// DiffResult pairs up two reports benchmark by benchmark.
type DiffResult struct {
	Common  []Delta
	Added   []string // in new only
	Removed []string // in old only
}

// Diff compares two reports. Benchmarks are matched by name; the result
// is ordered by name within each category.
func Diff(old, cur *Report) DiffResult {
	oldBy := make(map[string]Entry, len(old.Benchmarks))
	for _, e := range old.Benchmarks {
		oldBy[e.Name] = e
	}
	var res DiffResult
	seen := make(map[string]bool, len(cur.Benchmarks))
	for _, e := range cur.Benchmarks {
		seen[e.Name] = true
		o, ok := oldBy[e.Name]
		if !ok {
			res.Added = append(res.Added, e.Name)
			continue
		}
		d := Delta{Name: e.Name, OldNs: o.NsPerOp, NewNs: e.NsPerOp,
			OldAlloc: o.AllocsPerOp, NewAlloc: e.AllocsPerOp}
		if o.NsPerOp > 0 {
			d.Ratio = e.NsPerOp / o.NsPerOp
		}
		res.Common = append(res.Common, d)
	}
	for _, e := range old.Benchmarks {
		if !seen[e.Name] {
			res.Removed = append(res.Removed, e.Name)
		}
	}
	sort.Slice(res.Common, func(i, j int) bool { return res.Common[i].Name < res.Common[j].Name })
	sort.Strings(res.Added)
	sort.Strings(res.Removed)
	return res
}

// wallClockUnreliable lists benchmarks whose ns/op is a scheduler
// artifact: parallel herds whose wall time depends on core count and
// timer granularity, not on the code under test (their own comments say
// to trust the Extra metrics — upstream-queries/op, the shard-speedup
// ratio — instead). The regression gate skips their ns/op.
var wallClockUnreliable = map[string]bool{
	"BenchmarkResolveConcurrent/Coalesce":   true,
	"BenchmarkResolveConcurrent/NoCoalesce": true,
	"BenchmarkCache/GetParallel":            true,
	"BenchmarkCache/GetParallelSingleShard": true,
	"BenchmarkResolveParallel":              true,
	// The loadgen saturation benches time-slice the generator against
	// the server on whatever cores the runner has; their ns/op includes
	// the drain window too. Read the served-qps / msgs-per-read Extra
	// metrics instead.
	"BenchmarkServedQPS/Workers1":       true,
	"BenchmarkServedQPS/Workers4":       true,
	"BenchmarkServedQPS/Workers4Batch8": true,
}

// Regressions returns the benchmarks common to both reports whose ns/op
// grew by more than frac (0.15 = fail anything >15% slower). Added and
// removed benchmarks are never regressions — new code legitimately
// reshapes the suite — deltas inside NoiseBandFrac are ignored even
// when frac is set tighter than the noise band, absolute deltas under
// NoiseFloorNs are cross-host timer noise, and benchmarks in
// wallClockUnreliable are exempt.
func Regressions(old, cur *Report, frac float64) []Delta {
	if frac < NoiseBandFrac {
		frac = NoiseBandFrac
	}
	var out []Delta
	for _, d := range Diff(old, cur).Common {
		if d.Ratio > 1+frac && d.NewNs-d.OldNs >= NoiseFloorNs && !wallClockUnreliable[d.Name] {
			out = append(out, d)
		}
	}
	return out
}

// Render writes a human-readable diff table.
func (r DiffResult) Render(w io.Writer, oldLabel, newLabel string) {
	fmt.Fprintf(w, "bench diff: %s → %s\n", oldLabel, newLabel)
	for _, d := range r.Common {
		marker := ""
		switch {
		case d.Ratio > 1.10:
			marker = "  (slower)"
		case d.Ratio != 0 && d.Ratio < 0.90:
			marker = "  (faster)"
		}
		fmt.Fprintf(w, "  %-55s %12.1f → %12.1f ns/op  %5.2fx%s\n",
			d.Name, d.OldNs, d.NewNs, d.Ratio, marker)
	}
	for _, n := range r.Added {
		fmt.Fprintf(w, "  %-55s new\n", n)
	}
	for _, n := range r.Removed {
		fmt.Fprintf(w, "  %-55s removed\n", n)
	}
}
