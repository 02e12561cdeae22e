// Command benchtables regenerates the paper's evaluation tables and
// figures from the simulator. Experiments run concurrently (they are
// independent), so the full sweep is bounded by the slowest experiment;
// output is still printed in paper order.
//
// Usage:
//
//	benchtables              # run everything
//	benchtables -only fig9   # one experiment
//	benchtables -list        # list experiment IDs
//	benchtables -workers 1   # serial run
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gemini/internal/experiments"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

func main() {
	only := flag.String("only", "", "run a single experiment by ID (e.g. fig9, table1, ablation-gamma)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	workers := flag.Int("workers", 0, "number of concurrent experiments (0 = GOMAXPROCS)")
	traceOut := flag.String("trace", "", "write a wall-clock Chrome trace of the experiment sweep to this file")
	flag.Parse()

	if *list {
		for _, e := range append(experiments.All(), experiments.Ablations()...) {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return
	}
	run := experiments.All()
	if *ablations {
		run = append(run, experiments.Ablations()...)
	}
	if *only != "" {
		e, err := experiments.ByID(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run = []experiments.Experiment{e}
	}
	// With -trace, each experiment gets its own tracer (experiments run
	// concurrently; tracers are per-run sinks) recording a wall-clock span
	// per experiment; the sinks merge into one timeline at export.
	var tracers []*trace.Tracer
	if *traceOut != "" {
		epoch := time.Now()
		now := func() simclock.Time { return simclock.Time(time.Since(epoch).Seconds()) }
		for i := range run {
			tr := trace.NewTracer(now)
			tracers = append(tracers, tr)
			tk := tr.Track("benchtables", run[i].ID)
			inner := run[i].Run
			id := run[i].ID
			run[i].Run = func() (string, error) {
				tk.Begin(trace.CatExperiments, id)
				defer tk.End()
				return inner()
			}
		}
	}

	failed := render(os.Stdout, os.Stderr, run, *workers)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		werr := trace.WriteJSON(f, tracers...)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Printf("trace: wrote %s (%d experiments); load it at ui.perfetto.dev\n", *traceOut, len(tracers))
	}
	if failed {
		os.Exit(1)
	}
}

// render runs the experiments on up to workers at once and prints each
// one's header and output to out in the order given, its error to errw
// instead. It reports whether any experiment failed.
func render(out, errw io.Writer, run []experiments.Experiment, workers int) (failed bool) {
	for _, r := range experiments.RunAll(context.Background(), run, workers) {
		fmt.Fprintf(out, "== %s — %s ==\n", r.ID, r.Title)
		if r.Err != nil {
			fmt.Fprintf(errw, "%s: %v\n", r.ID, r.Err)
			failed = true
			continue
		}
		fmt.Fprintln(out, r.Output)
	}
	return failed
}
