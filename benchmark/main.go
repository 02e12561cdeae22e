// Command benchmark is the repository's benchmark of record. It runs
// one closed-loop workload — one client, one unit of work after
// another — and prints every metric by name with its unit, sample count
// and regression bound, then one JSON result line. Every unit's outputs
// are checked; a unit that fails a check counts as failed, and any
// failure makes the command exit non-zero.
//
// Run it from the repository root, through the wrapper that builds it:
//
//	bash benchmark/run.sh --workload smoke-1k --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs every workload in turn, each in a child
// process. With --trace 0 the run measures the end-to-end metrics with
// tracing off. With --trace 1 it runs each input twice, untraced and
// with host-clock spans around every call the benchmark makes into a
// layer, prints the per-layer metrics, and writes the spans to
// <trace-dir>/<workload>.trace.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// workload is one named input set.
type workload struct {
	name string
	// inputs generates the program's inputs from the seed; untimed.
	inputs func(seed int64) (inputs, error)
}

var workloads = []workload{
	{"smoke-1k", newSmokeInputs},
	{"chaos-10k-observed", newChaosInputs},
	{"control-plane-16", newControlPlaneInputs},
	{"interference-16", newInterferenceInputs},
}

// metricDef declares one reported metric. bound, for end-to-end
// metrics, is the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are reported with tracing off, per workload. Timings are host
// time. Each bound is at least three times the widest run-to-run spread
// measured on the 2-core host, except peak_rss_mb's, which stays below
// setup_s's; README.md records the spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"unit_s_p50", "s", "lower", 0.20},
	{"unit_s_p90", "s", "lower", 0.20},
	{"sim_days_per_s", "simday/s", "higher", 0.20},
	{"alloc_mb_per_unit", "MB", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.24},
}

// perLayer come from the traced run. Times are host seconds per unit of
// work (per set-up for setup.*); a layer the workload never calls
// reports 0. Model statistics are exact for a seed.
var perLayer = []metricDef{
	{name: "setup.parse_s", unit: "s/setup", better: "lower"},
	{name: "setup.derive_s", unit: "s/setup", better: "lower"},
	{name: "setup.compile_s", unit: "s/setup", better: "lower"},
	{name: "derive.hits", unit: "count/setup", better: "higher"},
	{name: "derive.misses", unit: "count/setup", better: "lower"},
	{name: "failure.schedule_s", unit: "s/unit", better: "lower"},
	{name: "failure.events", unit: "count/unit", better: "lower"},
	{name: "runsim.walk_s", unit: "s/unit", better: "lower"},
	{name: "runsim.observed_walk_s", unit: "s/unit", better: "lower"},
	{name: "runsim.runs", unit: "count/unit", better: "higher"},
	{name: "runsim.recoveries", unit: "count/unit", better: "lower"},
	{name: "runsim.in_memory_frac", unit: "frac", better: "higher"},
	{name: "runsim.effective_ratio_mean", unit: "frac", better: "higher"},
	{name: "metrics.merge_s", unit: "s/unit", better: "lower"},
	{name: "metrics.merges", unit: "count/unit", better: "lower"},
	{name: "scenario.campaign_s", unit: "s/unit", better: "lower"},
	{name: "scenario.reduce_s", unit: "s/unit", better: "lower"},
	{name: "scenario.json_s", unit: "s/unit", better: "lower"},
	{name: "scenario.html_s", unit: "s/unit", better: "lower"},
	{name: "scenario.prom_s", unit: "s/unit", better: "lower"},
	{name: "scenario.hash_s", unit: "s/unit", better: "lower"},
	{name: "scenario.outliers_s", unit: "s/unit", better: "lower"},
	{name: "scenario.replay_s", unit: "s/unit", better: "lower"},
	{name: "scenario.report_bytes", unit: "B/unit", better: "lower"},
	{name: "trace.events", unit: "count/unit", better: "lower"},
	{name: "parallel.speedup", unit: "x", better: "higher"},
	{name: "core.recovery_system_s", unit: "s/unit", better: "lower"},
	{name: "agent.run_s", unit: "s/unit", better: "lower"},
	{name: "agent.run_s.gemini", unit: "s/unit", better: "lower"},
	{name: "agent.run_s.tiered", unit: "s/unit", better: "lower"},
	{name: "agent.run_s.sparse", unit: "s/unit", better: "lower"},
	{name: "agent.run_s.adaptive", unit: "s/unit", better: "lower"},
	{name: "simclock.events", unit: "count/unit", better: "lower"},
	{name: "simclock.events_per_s", unit: "1/s", better: "higher"},
	{name: "agent.iterations", unit: "count/unit", better: "higher"},
	{name: "agent.recoveries", unit: "count/unit", better: "lower"},
	{name: "agent.from_local", unit: "count/unit", better: "higher"},
	{name: "agent.from_peer", unit: "count/unit", better: "higher"},
	{name: "agent.from_remote", unit: "count/unit", better: "lower"},
	{name: "agent.wasted_sim_s", unit: "sim_s/unit", better: "lower"},
	{name: "kvstore.revisions", unit: "count/unit", better: "lower"},
	{name: "ckpt.replication_gb", unit: "GB/unit", better: "lower"},
	{name: "ckpt.retrieval_gb", unit: "GB/unit", better: "lower"},
	{name: "ckpt.remote_gb", unit: "GB/unit", better: "lower"},
	{name: "strategy.switches", unit: "count/unit", better: "lower"},
	{name: "training.execute_s.baseline", unit: "s/unit", better: "lower"},
	{name: "training.execute_s.blocking", unit: "s/unit", better: "lower"},
	{name: "training.execute_s.naive", unit: "s/unit", better: "lower"},
	{name: "training.execute_s.gemini", unit: "s/unit", better: "lower"},
	{name: "netsim.flows", unit: "count/unit", better: "lower"},
	{name: "netsim.settles", unit: "count/unit", better: "lower"},
	{name: "netsim.recomputes", unit: "count/unit", better: "lower"},
	{name: "netsim.waterfill_rounds", unit: "count/unit", better: "lower"},
	{name: "netsim.peak_flows", unit: "count", better: "lower"},
	{name: "training.overhead.gemini", unit: "frac", better: "lower"},
	{name: "training.overhead.blocking", unit: "frac", better: "lower"},
	{name: "training.idle_utilization.gemini", unit: "frac", better: "higher"},
	{name: "training.oom", unit: "count/unit", better: "lower"},
	{name: "runtime.gc_cycles", unit: "count/unit", better: "lower"},
	{name: "runtime.gc_pause_s", unit: "s/unit", better: "lower"},
	{name: "runtime.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "bench.coverage", unit: "frac", better: "higher"},
	{name: "bench.trace_overhead", unit: "frac", better: "lower"},
}

// metricJSON and result are the final output line's schema.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	cfg := config{setups: 21, setupSeconds: 1}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run, one of "+workloadNames()+"; empty runs each in turn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "timed budget in host seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "directory the traced run writes <workload>.trace.json to")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	if cfg.seconds <= 0 || math.IsInf(cfg.seconds, 0) || math.IsNaN(cfg.seconds) {
		fatalf("-seconds must be positive, got %v", cfg.seconds)
	}
	if cfg.workload == "" {
		os.Exit(runAll())
	}
	w, ok := lookup(cfg.workload)
	if !ok {
		fatalf("unknown workload %q (have %s)", cfg.workload, workloadNames())
	}
	o, err := run(cfg, w)
	if err != nil {
		fatalf("%v", err)
	}
	res := report(os.Stdout, cfg, w, o)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the human-readable table and the digest, and returns the
// result line's contents.
func report(out io.Writer, cfg config, w workload, o *outcome) result {
	defs, mode := endToEnd, "end-to-end, tracing off"
	if cfg.trace {
		defs, mode = perLayer, "per-layer, traced"
	}
	res := result{Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	fmt.Fprintf(out, "workload %s seed %d: %d units attempted, %d failed (%s)\n", w.name, cfg.seed, o.attempted, o.failed, mode)
	fmt.Fprintf(out, "%-34s %16s %-12s %8s %6s %16s\n", "metric", "value", "unit", "samples", "bound", "unscaled")
	for _, d := range defs {
		m := o.metrics[d.name]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			o.errs = append(o.errs, fmt.Sprintf("metric %s is not finite", d.name))
			res.Correct = false
			m.value = 0
		}
		bound := "-"
		if d.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.bound*100)
		}
		raw := ""
		if v, ok := o.raw[d.name]; ok {
			raw = fmt.Sprintf("%.6g", v)
		}
		fmt.Fprintf(out, "%-34s %16.6g %-12s %8d %6s %16s\n", d.name, m.value, d.unit, m.samples, bound, raw)
		res.Metrics[d.name] = metricJSON{Value: m.value, Unit: d.unit}
	}
	failedFrac := 0.0
	if o.attempted > 0 {
		failedFrac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(out, "%-34s %16.6g %-12s %8d %6s\n", "failed_frac", failedFrac, "frac", o.attempted, "0")
	fmt.Fprintf(out, "result_digest %s %s\n", w.name, o.digest)
	for i, e := range o.errs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... and %d more failures\n", len(o.errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	return res
}

// runAll runs every workload with the command's own flags, each in a
// child process of its own, so each starts with a cold derivation
// cache, empty pools and a fresh heap. It returns the exit code:
// non-zero when any workload failed.
func runAll() int {
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], append(os.Args[1:], "--workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
