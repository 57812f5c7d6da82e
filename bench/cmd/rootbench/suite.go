package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"rootless/bench"
	"rootless/bench/driver"
)

// runChild runs one workload in a fresh process of this same binary and
// returns the contract line it printed.
func runChild(opts bench.Options, quick bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opts.Trace {
		trace = "1"
	}
	args := []string{
		"--workload", opts.Workload, "--seed", strconv.FormatInt(opts.Seed, 10),
		"--seconds", strconv.FormatFloat(opts.Seconds, 'g', -1, 64), "--trace", trace, "--out", opts.OutDir,
	}
	if quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", opts.Workload, err)
		}
		return nil, fmt.Errorf("%s: no result line: %w", opts.Workload, jerr)
	}
	return &res, nil // a failing child still says why in its result
}

// set holds metric values by workload and metric name.
type set map[string]map[string]metricJSON

// pass runs every workload once, traced or untraced, each in a child
// process. With show it prints each metric as it goes.
func pass(opts bench.Options, quick, traced, show bool) (set, bool) {
	out := make(set)
	ok := true
	names := bench.EndToEnd
	if traced {
		names = bench.PerLayer
	}
	for _, w := range bench.WorkloadNames {
		out[w] = make(map[string]metricJSON)
		o := opts
		o.Workload, o.Trace = w, traced
		res, err := runChild(o, quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rootbench:", err)
			ok = false
			continue
		}
		if !res.Correct {
			fmt.Printf("%s: INCORRECT, %d of %d operations failed\n", w, res.Failed, res.Attempted)
			ok = false
		}
		for _, name := range names {
			m := res.Metrics[name]
			out[w][name] = m
			if show {
				fmt.Printf("%-14s %-40s %16.4f %s\n", w, name, m.Value, m.Unit)
			}
		}
	}
	return out, ok
}

// suite runs every workload untraced and traced and prints every metric.
func suite(opts bench.Options, quick bool) bool {
	_, ok1 := pass(opts, quick, false, true)
	_, ok2 := pass(opts, quick, true, true)
	return ok1 && ok2
}

// medians folds several passes into one set: each metric's median.
func medians(passes []set) set {
	out := make(set)
	for _, w := range bench.WorkloadNames {
		out[w] = make(map[string]metricJSON)
		for name, m := range passes[0][w] {
			var vals []float64
			for _, p := range passes {
				vals = append(vals, p[w][name].Value)
			}
			out[w][name] = metricJSON{Value: driver.Median(vals), Unit: m.Unit}
		}
	}
	return out
}

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readManifest() (*manifest, error) {
	// The command runs from the repository root, or from bench/ under
	// go run -C bench.
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// guard is the range a path-guard metric must stay in for a workload to
// still exercise the path it was chosen for.
type guard struct {
	workload, metric string
	min, max         float64
}

var guards = []guard{
	{bench.AuthHot, "authserver.packed_hit_frac", 0.99, 1},
	{bench.AuthJunkDO, "authserver.packed_hit_frac", 0, 0.01},
	{bench.ResolverWarm, "resolver.cache_answer_frac", 0.99, 1},
	{bench.ResolverWarm, "resolver.root_queries_per_query", 0, 0},
	{bench.ResolverCold, "resolver.root_queries_per_query", 0, 0},
}

func checkGuards(s set) bool {
	ok := true
	for _, g := range guards {
		v := s[g.workload][g.metric].Value
		verdict := "ok"
		if v < g.min || v > g.max {
			verdict, ok = "OUT OF RANGE", false
		}
		fmt.Printf("guard %-14s %-36s %8.4f in [%g, %g]: %s\n", g.workload, g.metric, v, g.min, g.max, verdict)
	}
	return ok
}

// row is one end-to-end metric of one workload as two sets measured it.
type row struct {
	workload, metric string
	first, second    float64
	// differ is |second - first| / first: a second set that is much
	// better repeats as badly as one that is much worse.
	differ, bound float64
}

func (r row) over() bool { return !(r.differ <= r.bound) }

// compare lines up the end-to-end metrics of two sets of runs of the
// same code. A metric missing from either set, or 0, is over any bound.
func compare(man *manifest, first, second set) []row {
	var rows []row
	for _, w := range bench.WorkloadNames {
		for _, m := range man.EndToEnd {
			r := row{workload: w, metric: m.Name, first: first[w][m.Name].Value, second: second[w][m.Name].Value, bound: m.Bound}
			r.differ = math.Inf(1)
			if r.first != 0 && r.second != 0 {
				r.differ = math.Abs(r.second-r.first) / math.Abs(r.first)
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// setRuns is how many untraced passes make one of the self-check's two
// sets. A set's figure is the median of its passes, as the driver's is
// the median of its ten runs.
const setRuns = 3

// selfCheck measures the end-to-end metrics as two independent sets of
// setRuns passes each and fails if any differs between the sets by more
// than its BENCHMARK.json bound. The passes of the two sets alternate,
// so that a machine that slows down for ten minutes slows both. Then it
// makes a traced pass on this seed and on the next and fails if a path
// guard leaves its range. It returns the exit code. A quick run
// measures nothing, so there one pass makes a set and a difference is
// printed and not held against the run.
func selfCheck(opts bench.Options, quick bool) int {
	man, err := readManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rootbench:", err)
		return 2
	}
	ok := true
	runs := setRuns
	if quick {
		runs = 1
	}
	var firsts, seconds []set
	for i := 0; i < runs; i++ {
		a, okA := pass(opts, quick, false, false)
		b, okB := pass(opts, quick, false, false)
		firsts, seconds = append(firsts, a), append(seconds, b)
		ok = ok && okA && okB
	}
	fmt.Printf("end-to-end metrics, two sets of %d runs, medians:\n", runs)
	fmt.Printf("%-14s %-20s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "differ", "bound")
	for _, r := range compare(man, medians(firsts), medians(seconds)) {
		verdict := ""
		if r.over() {
			verdict = "  OVER BOUND"
			ok = ok && quick
		}
		fmt.Printf("%-14s %-20s %14.4f %14.4f %8.3f %8.3f%s\n", r.workload, r.metric, r.first, r.second, r.differ, r.bound, verdict)
	}
	for _, seed := range []int64{opts.Seed, opts.Seed + 1} {
		opts.Seed = seed
		layers, okT := pass(opts, quick, true, false)
		fmt.Printf("per-layer metrics and path guards on seed %d:\n", seed)
		for _, w := range bench.WorkloadNames {
			for _, name := range bench.PerLayer {
				fmt.Printf("%-14s %-40s %14.4f\n", w, name, layers[w][name].Value)
			}
		}
		ok = checkGuards(layers) && okT && ok
	}
	if !ok {
		return 1
	}
	return 0
}
