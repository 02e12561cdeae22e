// Command geminisim runs a configurable GEMINI training-with-failures
// simulation and prints a full report: job sizing, checkpoint plan,
// recovery probabilities, the live recovery trace, the run-health
// metrics, and the long-run effective-training-time comparison against
// the baselines.
//
// Example:
//
//	geminisim -model "GPT-2 100B" -instance p4d.24xlarge -machines 16 \
//	          -replicas 2 -days 10 -failures-per-day 4 -hardware 0.5 \
//	          -metrics out.prom -timeline out.csv
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"gemini"
	"gemini/internal/scenario"
	"gemini/internal/simclock"
	"gemini/internal/training"
)

func main() {
	longRun := longRunFlags(flag.CommandLine)
	var (
		stratName = flag.String("strategy", "gemini",
			"checkpoint strategy for the monitored control-plane run (one of: "+strings.Join(gemini.StrategyNames(), ", ")+")")
		renderTL    = flag.Bool("render-timeline", false, "render the iteration timeline with the checkpoint plan")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) of a small traced run to this file")
		metricsOut  = flag.String("metrics", "", "write the run's metrics in Prometheus text exposition format to this file")
		timelineOut = flag.String("timeline", "", "write the sampled health-gauge timeline as CSV to this file")
	)
	flag.Parse()

	// The long-run inputs are checked before anything prints, against
	// the scenario's field names and size limits.
	sc := longRun()
	if err := sc.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	job, err := gemini.NewJob(gemini.JobSpec{
		Model: sc.Job.Model, Instance: sc.Job.Instance, Machines: sc.Job.Machines, Replicas: sc.Job.Replicas,
		Strategy: *stratName,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("job: %s on %d× %s, m=%d replicas, %s checkpoint strategy\n",
		sc.Job.Model, sc.Job.Machines, sc.Job.Instance, sc.Job.Replicas, *stratName)
	fmt.Printf("  checkpoint: %.1f GB total, %.1f GB/machine shard\n",
		job.Config.Model.CheckpointBytes()/1e9, job.Config.ShardBytesPerMachine()/1e9)
	fmt.Printf("  iteration: %.1f s (%.1f s network idle)\n",
		job.Timeline.Iteration.Seconds(), job.Timeline.IdleTime().Seconds())
	fmt.Printf("  plan: %d chunks, fits in idle spans: %v\n", len(job.Plan.Chunks), job.Plan.Fits)
	for k := 1; k <= 4 && k <= sc.Job.Machines; k++ {
		fmt.Printf("  P(recover from CPU memory | %d simultaneous failures) = %.3f\n",
			k, job.RecoveryProbability(k))
	}
	if *renderTL {
		fmt.Println()
		fmt.Print(training.RenderTimeline(job.Timeline, job.Plan, 100))
	}

	// One registry spans both runs: the executor fills training.*, the
	// monitored control-plane run below fills health.*. With -trace the
	// same two runs also carry a tracer each; tracer and registry only
	// observe, so neither changes what the other records. The key is
	// warm, so the executor's job shares the sized job's derivation.
	reg := gemini.NewMetricsRegistry()
	var execTr, ctlTr *gemini.Tracer
	if *traceOut != "" {
		execTr, ctlTr = gemini.NewTracer(), gemini.NewTracer()
	}
	execSpec := job.Spec
	execSpec.Metrics, execSpec.Tracer = reg, execTr
	execJob, err := gemini.NewJob(execSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	res, execErr := execJob.ExecuteScheme(gemini.SchemeGemini)
	if execErr == nil && !res.OOM {
		fmt.Printf("\nfluid executor (GEMINI schedule): iteration %.2f s, overhead %.1f%%\n",
			res.IterationTime.Seconds(), res.Overhead()*100)
		fmt.Printf("  idle utilization: %.3f of checkpoint bytes inside idle spans\n", res.IdleUtilization)
		fmt.Printf("  fabric: %s\n", res.FabricCounters)
	}
	if execErr == nil && res.OOM {
		execTr = nil // nothing ran; the trace holds the control plane alone
	}

	if err := runHealth(job, reg, ctlTr, *metricsOut, *timelineOut); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := writeLongRun(os.Stdout, sc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *traceOut != "" {
		if execErr == nil {
			execErr = writeTrace(*traceOut, execTr, ctlTr)
		}
		if execErr != nil {
			fmt.Fprintln(os.Stderr, execErr)
			os.Exit(1)
		}
	}

	// Every job above (the sized job, the executor run, the monitored
	// control-plane run, the long-run scenario's compile)
	// resolved through the shared derivation cache; one spec means one
	// miss and the rest hits.
	cs := gemini.DerivationCacheStats()
	fmt.Printf("\nderivation cache: %d hits, %d misses, %d evictions, %d entries (hit rate %.2f)\n",
		cs.Hits, cs.Misses, cs.Evictions, cs.Entries, cs.HitRate())
}

// longRunFlags registers the job and long-run flags on fs. After
// parsing, the returned function builds the one-variation scenario
// behind the long-run table: the flags' job, horizon and failure model,
// with all three solutions.
func longRunFlags(fs *flag.FlagSet) func() *scenario.Scenario {
	s := &scenario.Scenario{Name: "geminisim", Variations: 1}
	s.Run.Specs = []string{"gemini", "highfreq", "strawman"}
	fs.StringVar(&s.Job.Model, "model", "GPT-2 100B", "Table 2 model name")
	fs.StringVar(&s.Job.Instance, "instance", "p4d.24xlarge", "Table 1 instance type")
	fs.IntVar(&s.Job.Machines, "machines", 16, "number of training machines")
	fs.IntVar(&s.Job.Replicas, "replicas", 2, "checkpoint replicas m")
	days := fs.Float64("days", 10, "simulated horizon in days")
	perDay := fs.Float64("failures-per-day", 4, "cluster failure rate")
	fs.Float64Var(&s.Failures.HardwareFraction, "hardware", 0.5, "fraction of failures needing replacement")
	fs.Int64Var(&s.Seed, "seed", 1, "failure-schedule seed (Poisson mode)")
	poisson := fs.Bool("poisson", false, "Poisson failure arrivals instead of fixed spacing")
	replacement := fs.Duration("replacement", 0, "machine replacement delay (0 = standby machines)")
	return func() *scenario.Scenario {
		s.Horizon = simclock.Duration(*days) * simclock.Day
		s.Run.ReplacementDelay = simclock.Duration(replacement.Seconds())
		s.Failures.Kind, s.Failures.PerDay = "fixed", *perDay
		if *poisson {
			s.Failures.Kind, s.Failures.PerDay = "poisson", 0
			s.Failures.PerInstancePerDay = *perDay / float64(s.Job.Machines)
		}
		return s
	}
}

// writeLongRun runs a validated one-variation scenario as a campaign
// and writes the long-run table: each solution's ratio, mean and total
// wasted time, and recoveries by source.
func writeLongRun(w io.Writer, s *scenario.Scenario) error {
	c, err := s.Compile()
	if err != nil {
		return err
	}
	rep, err := scenario.RunCampaign(context.Background(), c, scenario.CampaignOptions{Workers: 1, RecordRuns: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfailure schedule: %d failures over %.0f days\n", rep.Runs[0].Failures, rep.HorizonDays)
	fmt.Fprintf(w, "\n%-10s %-10s %-12s %-12s %-22s\n", "solution", "ratio", "mean wasted", "total wasted", "recoveries (l/p/r)")
	for _, r := range rep.Runs {
		wasted := simclock.Duration(r.WastedSeconds)
		var mean simclock.Duration
		if n := r.FromLocal + r.FromPeer + r.FromRemote; n > 0 {
			mean = wasted / simclock.Duration(n)
		}
		fmt.Fprintf(w, "%-10s %-10.3f %-12s %-12s %d/%d/%d\n",
			r.Spec, r.EffectiveRatio, mean, wasted, r.FromLocal, r.FromPeer, r.FromRemote)
	}
	return nil
}

// runHealth runs a small deterministic monitored control-plane
// simulation — a seeded software + hardware failure — with the run
// health monitor attached: the agent system fills the health.* gauges
// in reg, a recorder samples them once per iteration into a sim-time
// timeline, and every recovery leaves an Eq. 1 wasted-time record. A
// non-nil tr also traces the run for -trace (chaos injection, kvstore
// election, recovery phases). The health report section always prints;
// -metrics and -timeline additionally export the registry as Prometheus
// text and the sampled timeline as CSV.
func runHealth(job *gemini.Job, reg *gemini.MetricsRegistry, tr *gemini.Tracer, promPath, csvPath string) error {
	iter := gemini.Duration(job.Timeline.Iteration)
	sched, err := crashSchedule(job)
	if err != nil {
		return err
	}
	spec := job.Spec
	spec.Faults, spec.Metrics, spec.Tracer = sched, reg, tr
	monitored, err := gemini.NewJob(spec)
	if err != nil {
		return err
	}
	engine, sys, err := monitored.RecoverySystem(gemini.DefaultCloudConfig())
	if err != nil {
		return err
	}
	sys.SetRemoteEvery(10)
	rec := gemini.NewMetricsRecorder(reg, 4096)
	rec.Watch("health.iteration", "health.replica_coverage", "health.min_replicas",
		"health.ckpt_staleness_local", "health.ckpt_staleness_remote", "health.recoveries")
	rec.Start(engine, iter)
	sys.Start()
	engine.Run(gemini.Time(25 * iter))
	rec.Stop()

	fmt.Printf("\nhealth: monitored run (%s strategy, active policy %s), %d failures injected, %d samples at %.1f s cadence\n",
		sys.Strategy().Name(), sys.Strategy().Active(), len(sched), rec.Samples(), iter.Seconds())
	for _, ev := range sys.WastedEvents() {
		fmt.Printf("  failure ranks %v: recovered from %s ckpt v%d, lost %d iters, wasted %s (T_lost %s + T_recovery %s)\n",
			ev.Ranks, ev.Source, ev.Version, ev.LostIterations,
			ev.Wasted(), ev.TLost, ev.TRecovery)
	}
	for _, c := range reg.Snapshot() {
		fmt.Printf("  %s = %g\n", c.Name, c.Value)
	}

	if promPath != "" {
		gemini.ExportDerivationCacheMetrics(reg)
		var buf bytes.Buffer
		if err := gemini.WriteMetricsProm(&buf, reg); err != nil {
			return err
		}
		if err := os.WriteFile(promPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s (Prometheus text exposition)\n", promPath)
	}
	if csvPath != "" {
		var buf bytes.Buffer
		if err := gemini.WriteTimelineCSV(&buf, rec); err != nil {
			return err
		}
		if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote %s (sampled health timeline)\n", csvPath)
	}
	return nil
}

// writeTrace writes the executor run's and the monitored control-plane
// run's tracers as one Chrome trace-event JSON file and prints its
// stats.
func writeTrace(path string, execTr, ctlTr *gemini.Tracer) error {
	var buf bytes.Buffer
	if err := gemini.WriteTrace(&buf, execTr, ctlTr); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	st, err := gemini.TraceStatsFromJSON(buf.Bytes())
	if err != nil {
		return err
	}
	fmt.Printf("\ntrace: wrote %s (%d events, %d processes, categories:", path, st.Events, len(st.Processes))
	cats := make([]string, 0, len(st.Categories))
	for c := range st.Categories {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		fmt.Printf(" %s=%d", c, st.Categories[c])
	}
	fmt.Println(")")
	fmt.Println("  load it at ui.perfetto.dev or chrome://tracing")
	return nil
}

// crashSchedule is the seeded fault pair the monitored run injects: a
// software and a hardware crash halfway through iteration 4.
func crashSchedule(job *gemini.Job) (gemini.FaultSchedule, error) {
	iter := gemini.Duration(job.Timeline.Iteration)
	at := gemini.Time(3*iter + iter/2)
	return gemini.Faults().
		Crash(at, 1, gemini.SoftwareFailure).
		Crash(at, 2%job.Spec.Machines, gemini.HardwareFailure).
		Build(job.Spec.Machines)
}
