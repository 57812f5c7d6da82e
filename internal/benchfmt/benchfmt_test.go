package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: rootless/internal/resolver
cpu: Some CPU @ 2.00GHz
BenchmarkResolve/NoTracer-8         	  500000	      2050 ns/op	     120 B/op	       3 allocs/op
BenchmarkResolve/TracerEnabled-8    	  400000	      3100 ns/op	     600 B/op	       9 allocs/op
BenchmarkResolveConcurrent/Coalesce-8 	     100	     65000 ns/op	         0.131 upstream-queries/op	    2100 B/op	      40 allocs/op
PASS
ok  	rootless/internal/resolver	3.210s
BenchmarkSpan/Disabled-8 	100000000	        12.01 ns/op	       0 B/op	       0 allocs/op
ok  	rootless/internal/obs	1.402s
`

func parseSample(t *testing.T) []Entry {
	t.Helper()
	entries, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestParse(t *testing.T) {
	entries := parseSample(t)
	if len(entries) != 4 {
		t.Fatalf("got %d entries, want 4: %+v", len(entries), entries)
	}
	byName := make(map[string]Entry)
	for i, e := range entries {
		if i > 0 && entries[i-1].Name > e.Name {
			t.Errorf("entries not sorted: %q after %q", e.Name, entries[i-1].Name)
		}
		byName[e.Name] = e
	}
	r := byName["BenchmarkResolve/NoTracer"]
	if r.Iterations != 500000 || r.NsPerOp != 2050 || r.BytesPerOp != 120 || r.AllocsPerOp != 3 {
		t.Errorf("NoTracer entry wrong: %+v", r)
	}
	c := byName["BenchmarkResolveConcurrent/Coalesce"]
	if got := c.Extra["upstream-queries/op"]; got != 0.131 {
		t.Errorf("custom unit: got %v, want 0.131", got)
	}
	if s := byName["BenchmarkSpan/Disabled"]; s.NsPerOp != 12.01 {
		t.Errorf("fractional ns/op: got %v", s.NsPerOp)
	}
}

func TestValidate(t *testing.T) {
	good := &Report{Schema: Schema, Label: "PR4", GoVersion: "go1.22",
		Benchmarks: []Entry{{Name: "BenchmarkX", Iterations: 1, NsPerOp: 10}}}
	if err := Validate(good, 1); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = "other/v9" }},
		{"empty label", func(r *Report) { r.Label = "" }},
		{"bad name", func(r *Report) { r.Benchmarks[0].Name = "TestX" }},
		{"zero iterations", func(r *Report) { r.Benchmarks[0].Iterations = 0 }},
		{"negative metric", func(r *Report) { r.Benchmarks[0].NsPerOp = -1 }},
		{"duplicate", func(r *Report) { r.Benchmarks = append(r.Benchmarks, r.Benchmarks[0]) }},
	}
	for _, tc := range bad {
		rep := &Report{Schema: Schema, Label: "PR4", GoVersion: "go1.22",
			Benchmarks: []Entry{{Name: "BenchmarkX", Iterations: 1, NsPerOp: 10}}}
		tc.mutate(rep)
		if err := Validate(rep, 1); err == nil {
			t.Errorf("%s: validated but should not", tc.name)
		}
	}
	if err := Validate(good, 5); err == nil {
		t.Error("min-count check did not fire")
	}
}

func TestDerive(t *testing.T) {
	d := Derive(parseSample(t))
	if d["resolve_ops_per_sec"] == 0 {
		t.Error("missing resolve_ops_per_sec")
	}
	if got := d["tracing_enabled_overhead_ns_per_op"]; got != 3100-2050 {
		t.Errorf("tracing overhead: got %v, want %v", got, 3100-2050)
	}
	if got := d["coalesce_upstream_queries_per_op"]; got != 0.131 {
		t.Errorf("coalesce figure: got %v, want 0.131", got)
	}
	if Derive(nil) != nil {
		t.Error("Derive(nil) should be nil")
	}
}

func TestDeriveResolverFrontDoor(t *testing.T) {
	d := Derive([]Entry{
		{Name: "BenchmarkResolverServe/Hit", Iterations: 1, NsPerOp: 680, AllocsPerOp: 1},
		{Name: "BenchmarkResolveParallel", Iterations: 1, NsPerOp: 200},
	})
	if d["resolver_serve_hit_ns"] != 680 || d["resolver_serve_hit_allocs_per_op"] != 1 {
		t.Errorf("front-door hit figures: %v", d)
	}
	if d["resolve_parallel_ops_per_sec"] != 5e6 || d["resolve_parallel_ops_per_sec_wall_clock_unreliable"] != 1 {
		t.Errorf("parallel figure: %v", d)
	}
}

func TestDeriveTrafficAndShardFlag(t *testing.T) {
	entries := []Entry{
		{Name: "BenchmarkTrafficClassify", Iterations: 1, NsPerOp: 28},
		{Name: "BenchmarkTrafficObserve", Iterations: 1, NsPerOp: 50, AllocsPerOp: 0},
		{Name: "BenchmarkTrafficTopKHit", Iterations: 1, NsPerOp: 13},
		{Name: "BenchmarkCache/GetParallel", Iterations: 1, NsPerOp: 100},
		{Name: "BenchmarkCache/GetParallelSingleShard", Iterations: 1, NsPerOp: 76},
	}
	d := Derive(entries)
	if d["traffic_classify_ns_per_op"] != 28 || d["traffic_observe_ns_per_op"] != 50 ||
		d["traffic_topk_hit_ns_per_op"] != 13 {
		t.Errorf("traffic figures: %+v", d)
	}
	if _, ok := d["traffic_observe_allocs_per_op"]; !ok {
		t.Error("missing traffic_observe_allocs_per_op")
	}
	// The shard-speedup ratio comes from two wall-clock-unreliable
	// benchmarks, so it must always carry the companion flag — a sub-1.0
	// value on a core-starved runner is an artifact, not a regression.
	if d["cache_shard_speedup"] != 0.76 {
		t.Errorf("cache_shard_speedup = %v, want 0.76", d["cache_shard_speedup"])
	}
	if d["cache_shard_speedup_wall_clock_unreliable"] != 1 {
		t.Error("cache_shard_speedup not flagged wall-clock-unreliable")
	}
}

func TestDeriveObservability(t *testing.T) {
	entries := []Entry{
		{Name: "BenchmarkHDRRecord", Iterations: 1, NsPerOp: 17.4, AllocsPerOp: 0},
		{Name: "BenchmarkHDRQuantile", Iterations: 1, NsPerOp: 900,
			Extra: map[string]float64{"p999-rel-err": 0.0004}},
		{Name: "BenchmarkResolve/TracerEnabled", Iterations: 1, NsPerOp: 3000},
		{Name: "BenchmarkResolve/TracePropagate", Iterations: 1, NsPerOp: 3090},
	}
	d := Derive(entries)
	if d["hdr_record_ns_per_op"] != 17.4 {
		t.Errorf("hdr_record_ns_per_op = %v", d["hdr_record_ns_per_op"])
	}
	if _, ok := d["hdr_record_allocs_per_op"]; !ok {
		t.Error("missing hdr_record_allocs_per_op")
	}
	if d["hdr_quantile_ns_per_op"] != 900 || d["hdr_p999_relative_error"] != 0.0004 {
		t.Errorf("hdr quantile figures = %v / %v",
			d["hdr_quantile_ns_per_op"], d["hdr_p999_relative_error"])
	}
	// 3% propagation overhead: inside the 5% noise band, so the ns figure
	// clamps — but the _frac acceptance figure keeps the raw ratio.
	if got := d["trace_propagation_overhead_ns_per_op"]; got != 0 {
		t.Errorf("within-noise propagation overhead = %v, want 0", got)
	}
	if got := d["trace_propagation_overhead_frac"]; got < 0.029 || got > 0.031 {
		t.Errorf("trace_propagation_overhead_frac = %v, want 0.03", got)
	}
	// A regressed propagation path reports through both figures.
	entries[3].NsPerOp = 3600
	d = Derive(entries)
	if got := d["trace_propagation_overhead_ns_per_op"]; got != 600 {
		t.Errorf("real propagation overhead = %v, want 600", got)
	}
	if got := d["trace_propagation_overhead_frac"]; got != 0.2 {
		t.Errorf("trace_propagation_overhead_frac = %v, want 0.2", got)
	}
}

func TestDeriveNoiseClamp(t *testing.T) {
	// A "negative overhead" smaller than the noise band is a measurement
	// artifact and must come out as exactly zero, flagged as noise.
	entries := []Entry{
		{Name: "BenchmarkResolve/NoTracer", Iterations: 1, NsPerOp: 385},
		{Name: "BenchmarkResolve/TracerDisabled", Iterations: 1, NsPerOp: 380},
	}
	d := Derive(entries)
	if got := d["tracing_disabled_overhead_ns_per_op"]; got != 0 {
		t.Errorf("within-noise overhead = %v, want 0", got)
	}
	if d["tracing_disabled_overhead_ns_per_op_within_noise"] != 1 {
		t.Error("noise flag not set")
	}
	// A delta beyond the band passes through un-clamped and un-flagged.
	entries[1].NsPerOp = 500
	d = Derive(entries)
	if got := d["tracing_disabled_overhead_ns_per_op"]; got != 115 {
		t.Errorf("real overhead = %v, want 115", got)
	}
	if _, flagged := d["tracing_disabled_overhead_ns_per_op_within_noise"]; flagged {
		t.Error("noise flag set on a real overhead")
	}
}

func TestRegressions(t *testing.T) {
	old := &Report{Schema: Schema, Label: "PR4", Benchmarks: []Entry{
		{Name: "BenchmarkSteady", Iterations: 1, NsPerOp: 100},
		{Name: "BenchmarkSlower", Iterations: 1, NsPerOp: 100},
		{Name: "BenchmarkGone", Iterations: 1, NsPerOp: 100},
	}}
	cur := &Report{Schema: Schema, Label: "PR5", Benchmarks: []Entry{
		{Name: "BenchmarkSteady", Iterations: 1, NsPerOp: 110},  // +10%: allowed
		{Name: "BenchmarkSlower", Iterations: 1, NsPerOp: 140},  // +40%: regression
		{Name: "BenchmarkBrandNew", Iterations: 1, NsPerOp: 50}, // added: never a regression
	}}
	regs := Regressions(old, cur, 0.15)
	if len(regs) != 1 || regs[0].Name != "BenchmarkSlower" {
		t.Fatalf("regressions: %+v", regs)
	}
	// A threshold tighter than the noise band is widened to the band, so
	// +10% still passes under frac=0.01.
	if regs := Regressions(old, cur, 0.01); len(regs) != 2 {
		t.Errorf("frac below noise band: %+v", regs)
	}
}

func TestDiff(t *testing.T) {
	old := &Report{Schema: Schema, Label: "PR3", Benchmarks: []Entry{
		{Name: "BenchmarkA", Iterations: 1, NsPerOp: 100},
		{Name: "BenchmarkGone", Iterations: 1, NsPerOp: 5},
	}}
	cur := &Report{Schema: Schema, Label: "PR4", Benchmarks: []Entry{
		{Name: "BenchmarkA", Iterations: 1, NsPerOp: 150},
		{Name: "BenchmarkNew", Iterations: 1, NsPerOp: 7},
	}}
	res := Diff(old, cur)
	if len(res.Common) != 1 || res.Common[0].Ratio != 1.5 {
		t.Errorf("common: %+v", res.Common)
	}
	if len(res.Added) != 1 || res.Added[0] != "BenchmarkNew" {
		t.Errorf("added: %v", res.Added)
	}
	if len(res.Removed) != 1 || res.Removed[0] != "BenchmarkGone" {
		t.Errorf("removed: %v", res.Removed)
	}
	var sb strings.Builder
	res.Render(&sb, old.Label, cur.Label)
	for _, want := range []string{"PR3 → PR4", "BenchmarkA", "1.50x", "(slower)", "new", "removed"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered diff missing %q:\n%s", want, sb.String())
		}
	}
}

// TestCommittedSnapshot is the schema smoke in `make verify`: every
// snapshot committed at the repo root must parse, validate against the
// current schema, and carry enough benchmarks to be a useful
// trajectory point.
func TestCommittedSnapshot(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed snapshots (run `make bench`)")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := Validate(&rep, 8); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(rep.Derived) == 0 {
			t.Errorf("%s: snapshot has no derived figures", path)
		}
	}
}
