// Command campaign runs a declarative scenario file as a seeded
// simulation campaign: the scenario names a training job, a fleet, a
// failure model, a chaos schedule and the solutions to compare; the
// runner expands it into N seeded variations, fans them across worker
// goroutines, and writes aggregate JSON and HTML reports. For a fixed
// scenario seed the reports are byte-identical at any -workers value.
//
// Observability:
//
//   - -progress prints live run counts, failure totals and an ETA to
//     stderr while the campaign runs.
//   - -serve addr exposes /metrics (Prometheus), /progress (JSON) and
//     /debug/pprof/ over HTTP for the campaign's duration.
//   - -aggregate merges every run's health registry into per-solution
//     and campaign-wide rollups, landed in the JSON/HTML reports;
//     -prom additionally writes the campaign-wide rollup as a
//     Prometheus text-exposition file.
//   - -flight K re-executes the K worst runs (by -flight-key) with
//     full tracing after the campaign and writes
//     outlier-<k>.{trace.json,timeline.csv,prom} files, asserting each
//     replay reproduces the campaign-recorded outcome exactly.
//
// Examples:
//
//	campaign examples/scenarios/smoke-1k.yaml
//	campaign -validate examples/scenarios/chaos-10k.yaml
//	campaign -workers 8 -json out.json -html out.html examples/scenarios/chaos-10k.yaml
//	campaign -progress -aggregate -prom out.prom examples/scenarios/chaos-10k.yaml
//	campaign -flight 3 -flight-key ratio -flight-dir /tmp examples/scenarios/smoke-1k.yaml
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gemini"
	"gemini/internal/baselines"
	"gemini/internal/obs"
	"gemini/internal/scenario"
)

// options collects the flag values run needs.
type options struct {
	validate   bool
	workers    int
	seed       int64
	variations int
	jsonOut    string
	htmlOut    string
	quiet      bool

	progress  bool
	serveAddr string
	aggregate bool
	promOut   string
	flight    int
	flightKey string
	flightDir string
}

func main() {
	var o options
	flag.BoolVar(&o.validate, "validate", false, "parse, validate and compile the scenario, then exit")
	flag.IntVar(&o.workers, "workers", 0, "fan-out concurrency (0 = GOMAXPROCS); never affects results")
	flag.Int64Var(&o.seed, "seed", 0, "override the scenario's base seed (0 = keep)")
	flag.IntVar(&o.variations, "variations", 0, "override the scenario's variation count (0 = keep)")
	flag.StringVar(&o.jsonOut, "json", "", "JSON report path (overrides the scenario's report.json)")
	flag.StringVar(&o.htmlOut, "html", "", "HTML report path (overrides the scenario's report.html)")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress the stdout summary (reports still written)")
	flag.BoolVar(&o.progress, "progress", false, "print live progress lines to stderr while the campaign runs")
	flag.StringVar(&o.serveAddr, "serve", "", "serve /metrics, /progress and /debug/pprof on this host:port for the campaign's duration")
	flag.BoolVar(&o.aggregate, "aggregate", false, "merge per-run metric registries into the reports' distribution rollups")
	flag.StringVar(&o.promOut, "prom", "", "write the aggregated campaign registry as Prometheus text exposition (implies -aggregate)")
	flag.IntVar(&o.flight, "flight", 0, "after the campaign, replay the K worst runs with full tracing")
	flag.StringVar(&o.flightKey, "flight-key", "wasted",
		fmt.Sprintf("outlier ranking for -flight, one of %v", scenario.FlightKeys))
	flag.StringVar(&o.flightDir, "flight-dir", ".", "directory for the -flight outlier-<k>.* artifacts")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: campaign [flags] scenario.{yaml,json}")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(path string, o options) error {
	s, err := scenario.Load(path)
	if err != nil {
		return err
	}
	if o.seed != 0 {
		s.Seed = o.seed
	}
	c, err := s.Compile()
	if err != nil {
		return err
	}
	if o.validate {
		printValidation(os.Stdout, path, c)
		return nil
	}

	copts := scenario.CampaignOptions{
		Workers:    o.workers,
		Variations: o.variations,
		Aggregate:  o.aggregate || o.promOut != "",
		RecordRuns: o.flight > 0,
	}
	if o.progress || o.serveAddr != "" {
		copts.Progress = obs.NewProgress()
	}
	var server *obs.Server
	if o.serveAddr != "" {
		live := obs.NewSyncRegistry()
		copts.Live = live
		server, err = obs.NewServer(o.serveAddr, copts.Progress, live)
		if err != nil {
			return err
		}
		defer server.Close()
		fmt.Fprintf(os.Stderr, "serving /metrics /progress /debug/pprof on http://%s\n", server.Addr())
	}
	stopProgress := func() {}
	if o.progress {
		stopProgress = streamProgress(copts.Progress)
	}

	start := time.Now()
	rep, err := scenario.RunCampaign(context.Background(), c, copts)
	stopProgress()
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if o.progress {
		fmt.Fprintln(os.Stderr, copts.Progress.Snapshot().String())
	}

	if !o.quiet {
		printSummary(rep, elapsed)
	}
	if err := writeReports(s, rep, o); err != nil {
		return err
	}
	if o.flight > 0 {
		if err := flightRecord(c, rep, o); err != nil {
			return err
		}
	}
	return nil
}

// printValidation writes what -validate reports about a compiled
// scenario: its shape, then the scale model behind its results — the
// derived iteration time, the share of it that is ring-collective
// startup latency, and each spec's checkpoint interval and completion
// lag, plus the remote tier's for a CPU-memory spec, which rolls back to
// it when a whole replica group is lost.
func printValidation(w io.Writer, path string, c *scenario.Compiled) {
	s, job := c.Scenario, c.Job
	fmt.Fprintf(w, "%s: ok (%d machines, %d variations, %d chaos events, specs %s)\n",
		path, s.Job.Machines, s.Variations, len(c.Chaos), strings.Join(s.Run.Specs, ","))
	fmt.Fprintf(w, "iteration: %.1f s (%s, %d × %s), %.1f%% ring-collective startup latency\n",
		job.Timeline.Iteration.Seconds(), job.Spec.Parallelism, job.Spec.Machines, job.Spec.Instance,
		100*job.RingLatencyShare())
	for _, spec := range c.Specs {
		fmt.Fprintf(w, "  %-10s checkpoint interval %.1f s, completion lag %.1f s\n",
			spec.Name, spec.Interval.Seconds(), spec.CompletionLag.Seconds())
		if spec.UsesCPUMemory {
			m := spec.WastedModel(baselines.FromRemote)
			fmt.Fprintf(w, "  %-10s remote tier interval %.1f s, completion lag %.1f s\n",
				"", m.Interval.Seconds(), m.CheckpointTime.Seconds())
		}
	}
}

// streamProgress prints one stderr line per second until stopped.
func streamProgress(p *obs.Progress) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fmt.Fprintln(os.Stderr, p.Snapshot().String())
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

func writeReports(s *scenario.Scenario, rep *scenario.Report, o options) error {
	jsonOut, htmlOut := o.jsonOut, o.htmlOut
	if jsonOut == "" {
		jsonOut = s.Report.JSON
	}
	if htmlOut == "" {
		htmlOut = s.Report.HTML
	}
	var outs []output
	if jsonOut != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		// JSON returns an exact-size slice, so appending the newline
		// would copy the whole report; write the two instead.
		outs = append(outs, output{jsonOut, 0o644, func(w io.Writer) error {
			if _, err := w.Write(data); err != nil {
				return err
			}
			_, err := io.WriteString(w, "\n")
			return err
		}})
	}
	if htmlOut != "" {
		outs = append(outs, output{htmlOut, 0o666, func(w io.Writer) error { return scenario.WriteHTML(w, rep) }})
	}
	if o.promOut != "" {
		outs = append(outs, output{o.promOut, 0o666, rep.WriteAggregatedProm})
	}
	for _, out := range outs {
		if err := out.create(); err != nil {
			return err
		}
		if !o.quiet {
			fmt.Printf("wrote %s\n", out.path)
		}
	}
	return nil
}

// output is a file, the permissions it is created with (before the
// umask), and the function that writes its contents.
type output struct {
	path  string
	perm  os.FileMode
	write func(w io.Writer) error
}

// create creates (or truncates) the file and writes it.
func (out output) create() error {
	f, err := os.OpenFile(out.path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, out.perm)
	if err != nil {
		return err
	}
	if err := out.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flightRecord replays the worst runs with full observability and lands
// one trace/timeline/prom triple per outlier. Replay errors (including
// a re-run that diverges from the campaign-recorded outcome) abort.
func flightRecord(c *scenario.Compiled, rep *scenario.Report, o options) error {
	worst, err := scenario.Outliers(rep, o.flightKey, o.flight)
	if err != nil {
		return err
	}
	for k, rec := range worst {
		fr, err := c.Replay(rec)
		if err != nil {
			return err
		}
		base := filepath.Join(o.flightDir, fmt.Sprintf("outlier-%d", k))
		for _, out := range []output{
			{base + ".trace.json", 0o666, fr.WriteTrace},
			{base + ".timeline.csv", 0o666, fr.WriteTimeline},
			{base + ".prom", 0o666, fr.WriteProm},
		} {
			if err := out.create(); err != nil {
				return err
			}
		}
		if !o.quiet {
			fmt.Printf("flight %d: variation %d spec %s (%s): wasted %.0fs ratio %.4f → %s.{trace.json,timeline.csv,prom}\n",
				k, rec.Variation, rec.Spec, o.flightKey, rec.WastedSeconds, rec.EffectiveRatio, base)
		}
	}
	return nil
}

// printSummary writes the human summary. Wall-clock throughput goes to
// stdout only — never into the reports, which must stay deterministic.
func printSummary(rep *scenario.Report, elapsed time.Duration) {
	fmt.Printf("campaign %q: %s on %d× %s, %.3g-day horizon × %d variations (seed %d)\n",
		rep.Scenario, rep.Model, rep.Machines, rep.Instance, rep.HorizonDays, rep.Variations, rep.Seed)
	fmt.Printf("background failures: %.4g/day; chaos events: %d\n", rep.FailuresPerDay, rep.ChaosEvents)
	fmt.Printf("\n%-10s %-22s %-14s %-10s %-20s\n", "solution", "ratio mean [min,max]", "wasted h", "failures", "recoveries (l/p/r)")
	for _, sp := range rep.Specs {
		er := sp.EffectiveRatio
		fmt.Printf("%-10s %.4f [%.4f,%.4f] %-14.2f %-10d %d/%d/%d (%.1f%% in-memory)\n",
			sp.Name, er.Mean, er.Min, er.Max, sp.WastedHours.Mean, sp.Failures,
			sp.FromLocal, sp.FromPeer, sp.FromRemote, sp.InMemoryFraction*100)
	}
	cs := gemini.DerivationCacheStats()
	fmt.Printf("\nreport hash: %s\n", rep.Hash)
	fmt.Printf("elapsed: %s (%.1f variations/s); derivation cache hit rate %.2f\n",
		elapsed.Round(time.Millisecond),
		float64(rep.Variations)/elapsed.Seconds(), cs.HitRate())
}
