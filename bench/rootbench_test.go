package bench

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"
)

// benchmarkJSON is the manifest at the repository root.
type benchmarkJSON struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The manifest and the program must name the same workloads and the
// same metrics, with the same unit and direction: the driver reads the
// manifest, the program prints from its catalogue.
func TestManifestMatchesCatalogue(t *testing.T) {
	b := readBenchmarkJSON(t)
	var workloads []string
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		if _, ok := RateQPS[w.Name]; !ok {
			t.Errorf("workload %q has no paced rate", w.Name)
		}
	}
	if !sameStrings(workloads, WorkloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", workloads, WorkloadNames)
	}
	check := func(kind string, listed []manifestMetric, want []string, bounded bool) {
		var names []string
		for _, m := range listed {
			names = append(names, m.Name)
			def, ok := catalogue[m.Name]
			switch {
			case !nameRE.MatchString(m.Name):
				t.Errorf("%s %q: bad name", kind, m.Name)
			case !ok:
				t.Errorf("%s %q is not in the catalogue", kind, m.Name)
			case def.Unit != m.Unit || def.Better != m.Better:
				t.Errorf("%s %q: manifest says %s/%s, catalogue %s/%s", kind, m.Name, m.Unit, m.Better, def.Unit, def.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %q: bound present = %v", kind, m.Name, m.Bound != nil)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
		if !sameStrings(names, want) {
			t.Errorf("%s metrics differ:\n manifest %v\n program  %v", kind, names, want)
		}
	}
	check("end_to_end", b.EndToEnd, EndToEnd, true)
	check("per_layer", b.PerLayer, PerLayer, false)
	if len(catalogue) != len(EndToEnd)+len(PerLayer) {
		t.Errorf("catalogue has %d metrics, the two lists %d", len(catalogue), len(EndToEnd)+len(PerLayer))
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

func sameStrings(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	sort.Strings(a)
	sort.Strings(b)
	return slices.Equal(a, b)
}

// checkReport asserts what every run must deliver: exactly the listed
// metrics, each with a unit, a direction and a sample count, and no
// failed operation.
func checkReport(t *testing.T, rep *Report, want []string) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v, %d of %d failed; notes %v", rep.Workload, rep.Correct, rep.Failed, rep.Attempted, rep.Notes)
	}
	var names []string
	for _, m := range rep.Metrics {
		names = append(names, m.Name)
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q", rep.Workload, m.Name)
		}
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") || m.Samples < 0 {
			t.Errorf("%s: %s has unit %q, direction %q, %d samples", rep.Workload, m.Name, m.Unit, m.Better, m.Samples)
		}
	}
	if !sameStrings(names, want) {
		t.Errorf("%s: reported %v, want %v", rep.Workload, names, want)
	}
}

// The quick end-to-end runs: sub-second phases over real loopback
// sockets, every answer checked. They cover the authoritative path both
// ways, the write side beside readers with its cycles taken apart, and
// the resolver's traced run with all its replays; the other
// combinations take the same code with another load, and running all
// ten (rootbench -quick does) would not fit in ten seconds.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("binds sockets and runs for several seconds")
	}
	for _, c := range []struct {
		workload string
		trace    bool
	}{
		{AuthHot, false},
		{AuthHot, true},
		{ZoneRefresh, true},
		{ResolverCold, true},
	} {
		opts := Quick(c.workload, c.trace)
		opts.OutDir = t.TempDir()
		rep, err := Run(opts)
		if err != nil {
			t.Fatalf("%s trace=%v: %v", c.workload, c.trace, err)
		}
		want := EndToEnd
		if c.trace {
			want = PerLayer
		}
		checkReport(t, rep, want)
		if !c.trace {
			for _, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; the contract wants them never 0", c.workload, m.Name, m.Value)
				}
			}
			continue
		}
		if _, err := os.Stat(opts.OutDir + "/trace-" + c.workload + ".json"); err != nil {
			t.Errorf("traced run wrote no trace file: %v", err)
		}
		// The path guards: each workload must still exercise the path it
		// was chosen for.
		switch c.workload {
		case AuthHot:
			// A full-length run must reach 0.99 (rootbench -selfcheck holds
			// it to that). A sub-second one, ten times slower again under
			// the race detector, serves so few queries that the misses
			// which first fill the cache are a visible share: 0.978 seen.
			if v := rep.Metric("authserver.packed_hit_frac"); v < 0.9 {
				t.Errorf("auth_hot packed_hit_frac %v, want >= 0.9 even in a quick run", v)
			}
		case ZoneRefresh:
			for _, name := range []string{"refresh_full_ms", "refresh_delta_ms", "dist.delta_apply_ms", "dist.bundle_verify_ms", "authserver.setzone_ms"} {
				if v := rep.Metric(name); v <= 0 {
					t.Errorf("zone_refresh: %s is %v; the cycles did not run", name, v)
				}
			}
		case ResolverCold:
			if v := rep.Metric("resolver.root_queries_per_query"); v != 0 {
				t.Errorf("resolver_cold sent %v root queries per query; the paper's claim is 0", v)
			}
			if v := rep.Metric("resolver.upstream_queries_per_query"); v <= 0 {
				t.Errorf("resolver_cold sent no upstream queries: the load is not cold")
			}
		}
	}
}

// Two set-ups from one seed must ask the same questions: the contract
// wants the same seed to give the same inputs. And a unique-name load
// must never repeat a name, or the cache it is meant to miss would
// start to hit.
func TestSameSeedSameInputs(t *testing.T) {
	setup := func(w string, seed int64) *Instance {
		in, err := Setup(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	stream := func(in *Instance) []string {
		var out []string
		for seq := uint64(0); seq < 50000; seq++ {
			wire, _ := in.Load.Next(seq)
			out = append(out, string(wire[12:])) // past the header: the ID is the driver's
		}
		return out
	}
	for _, w := range []string{AuthHot, AuthJunkDO} {
		a := stream(setup(w, 7))
		if !slices.Equal(a, stream(setup(w, 7))) {
			t.Errorf("%s: seed 7 gave two different query streams", w)
		}
		if w == AuthHot {
			if slices.Equal(a, stream(setup(w, 8))) {
				t.Errorf("%s: seeds 7 and 8 gave the same query stream", w)
			}
			continue
		}
		seen := make(map[string]bool)
		for seq, q := range a {
			if seen[q] {
				t.Fatalf("%s: query %d repeats an earlier question", w, seq)
			}
			seen[q] = true
		}
	}
}
