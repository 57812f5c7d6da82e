// Command rootbench runs the repository's benchmark; ../../README.md is
// the catalogue of what it measures.
//
//	rootbench --workload auth_hot --seed 1 --seconds 15 --trace 0
//
// runs one workload once and prints its metrics, the last line of
// standard output being the JSON object the benchmark contract asks
// for. Without --workload it runs every workload, traced and untraced,
// each in a child process of its own so that peak_rss_mb is per
// workload; -selfcheck measures two sets of runs and compares them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rootless/bench"
)

// result is the contract's last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var opts bench.Options
	flag.StringVar(&opts.Workload, "workload", "", "workload to run: "+fmt.Sprint(bench.WorkloadNames)+" (default: all, each in a child process)")
	flag.Int64Var(&opts.Seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&opts.Seconds, "seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = the traced run, which reports the per-layer metrics")
	flag.StringVar(&opts.OutDir, "out", "bench/out", "directory for trace-<workload>.json")
	quick := flag.Bool("quick", false, "sub-second phases: exercises every path, measures nothing")
	selfcheck := flag.Bool("selfcheck", false, "measure the end-to-end metrics as two sets of runs and fail if the sets disagree by more than BENCHMARK.json allows; then check the path guards on this seed and the next")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "rootbench: unexpected argument", flag.Arg(0))
		os.Exit(2)
	}
	opts.Trace = *trace == 1
	opts.WarmUp = time.Second
	if *quick {
		q := bench.Quick(opts.Workload, opts.Trace)
		q.Seed, q.OutDir = opts.Seed, opts.OutDir
		opts = q
	}

	switch {
	case *selfcheck:
		os.Exit(selfCheck(opts, *quick))
	case opts.Workload == "":
		if !suite(opts, *quick) {
			os.Exit(1)
		}
	default:
		rep, err := bench.Run(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rootbench:", err)
			os.Exit(2)
		}
		printReport(rep)
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

// printReport prints every metric by name with its unit, direction and
// sample count, then the contract's JSON line.
func printReport(rep *bench.Report) {
	mode := "untraced"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Printf("# %s seed %d, %s run: %s; %s; nproc %d, GOMAXPROCS %d, %s, kernel %s",
		rep.Workload, rep.Seed, mode, rep.Env.Network, rep.Env.Loop,
		rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Kernel)
	if rep.Trace {
		fmt.Printf("; rate_qps %.0f", rep.Env.RateQPS)
	}
	fmt.Println()
	out := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]metricJSON)}
	for _, m := range rep.Metrics {
		fmt.Printf("%-40s %16.4f %-6s %s is better, %d samples\n", m.Name, m.Value, m.Unit, m.Better, m.Samples)
		out.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	for _, n := range rep.Notes {
		fmt.Println("# note:", n)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rootbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}
