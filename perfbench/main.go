// Command perfbench is mfsynth's benchmark: it runs one named workload per
// process and prints, as the last line of its standard output, one JSON
// object with the run's correctness verdict, how many operations it
// attempted and how many failed, and every metric by name with its unit.
//
//	perfbench --workload table1-ilp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics and writes the run's spans to
// .bench_build/perfbench/trace-<workload>-<seed>.json. See README.md for
// the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_cpu_s", "s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
	{"vs_max1_sum", "actuations"},
	{"vs_max2_sum", "actuations"},
	{"valves_sum", "valves"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"schedule.s", "s"},
	{"place.s", "s"},
	{"place.alloc_mb", "MB"},
	{"place.greedy_runs", "count"},
	{"place.ilp_solves", "count"},
	{"place.repairs", "count"},
	{"place.no_incumbent", "count"},
	{"place.ilp_nodes", "count"},
	{"lp.pivots", "count"},
	{"lp.solves", "count"},
	{"milp.nodes", "count"},
	{"milp.warm_resolves", "count"},
	{"milp.incumbents", "count"},
	{"route.s", "s"},
	{"route.pops", "count"},
	{"route.ripups", "count"},
	{"route.failed", "count"},
	{"route.alloc_mb", "MB"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.run_ms_p99", "ms"},
	{"serve.submit_us_p50", "us"},
	{"serve.wall_ms_p50", "ms"},
	{"serve.wall_ms_p99", "ms"},
	{"serve.fresh", "count"},
	{"serve.coalesced", "count"},
	{"serve.cache_hits", "count"},
	{"gen.late_ms_max", "ms"},
	{"gc.count", "count"},
	{"gc.pause_ms", "ms"},
	{"alloc_mb", "MB"},
	{"pass_wall_s", "s"},
	{"trace.pass_cpu_s", "s"},
	{"trace.latency_ms_p50", "ms"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rate overrides serve-open's arrival rate (requests per second) for
	// the rate sweep reported in README.md; 0 means the workload's rate.
	rate float64
}

// outcome is what a workload run reports: the operation tally, every
// metric it measured and the correctness problems it found.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	tracer            *tracer
}

func (o *outcome) problem(p ...string) { o.problems = append(o.problems, p...) }

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"table1-ilp":      runTable1ILP,
	"sweep-heuristic": runSweep,
	"serve-open":      runServe,
}

func main() {
	var cfg runConfig
	var trace int
	screen := flag.Bool("screen", false, "synthesize every random-pool key and print the ones that degrade (the excluded.txt format), then exit")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: table1-ilp, sweep-heuristic or serve-open")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: print per-layer metrics and write the trace")
	flag.Float64Var(&cfg.rate, "rate", 0, "serve-open arrival rate in requests per second (0 = the workload's rate)")
	flag.Parse()
	if *screen {
		if err := runScreen(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := out.tracer.write(path, out.metrics); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
	}
	rep := report{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", cfg.workload, d.name)
			os.Exit(1)
		}
		rep.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	sort.Strings(out.problems)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	fmt.Println(strings.TrimSpace(string(line)))
}
