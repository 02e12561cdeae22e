// Observability: render one simulated GEMINI run as a Chrome trace-event
// file you can open at ui.perfetto.dev (or chrome://tracing). Two
// independently traced runs merge into one timeline:
//
//   - the fluid interference executor, whose tracks show each machine's
//     forward/backward compute, the collectives, and the checkpoint
//     chunks and GPU→CPU copies stealing the network-idle spans;
//   - the recovery control plane, where a seeded correlated failure
//     drives the §6.2 workflow — the chaos injection, the kvstore
//     re-election, and the serialize → replace → retrieve → warmup
//     recovery phases nested inside one recovery span.
//
// The same control-plane run also carries the run health monitor: a
// metrics registry fills with health.* gauges (replica coverage,
// checkpoint staleness, Eq. 1 wasted time per failure), a recorder
// samples them once per iteration, and the run ends with a Prometheus
// text exposition plus a CSV timeline next to the trace.
//
// Both surfaces are pure observers: a monitored run replays
// bit-identically to an unmonitored one, and with nothing attached the
// instrumentation allocates nothing.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"gemini"
)

func main() {
	spec := gemini.JobSpec{
		Model:    "GPT-2 40B",
		Instance: "p3dn.24xlarge",
		Machines: 16,
	}

	// Run 1: the executor with a tracer attached. Same simulation as an
	// untraced ExecuteScheme — the tracer only watches.
	execTr := gemini.NewTracer()
	execSpec := spec
	execSpec.Tracer = execTr
	job, err := gemini.NewJob(execSpec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := job.ExecuteScheme(gemini.SchemeGemini)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executor: iteration %.2f s, overhead %.1f%%\n",
		res.IterationTime.Seconds(), res.Overhead()*100)

	// Run 2: the control plane under a correlated failure. Machines 2
	// and 3 share a placement group, so killing both forces the root
	// agent past local and peer retrieval down to the remote tier.
	iter := gemini.Duration(job.Timeline.Iteration)
	sched, err := gemini.Faults().
		CrashGroup(gemini.Time(5*iter+iter/2), gemini.HardwareFailure, 2, 3).
		Build(spec.Machines)
	if err != nil {
		log.Fatal(err)
	}
	// The control-plane tracer and the health monitor's registry attach
	// at job construction; RecoverySystem wires them into the run.
	ctl := gemini.NewTracer()
	reg := gemini.NewMetricsRegistry()
	faultySpec := spec
	faultySpec.Faults, faultySpec.Tracer, faultySpec.Metrics = sched, ctl, reg
	faulty, err := gemini.NewJob(faultySpec)
	if err != nil {
		log.Fatal(err)
	}
	engine, sys, err := faulty.RecoverySystem(gemini.DefaultCloudConfig())
	if err != nil {
		log.Fatal(err)
	}
	sys.SetRemoteEvery(10)

	// The recorder snapshots the registry's gauges every iteration.
	rec := gemini.NewMetricsRecorder(reg, 1024)
	rec.Watch("health.iteration", "health.replica_coverage",
		"health.ckpt_staleness_local", "health.recoveries")
	rec.Start(engine, iter)

	sys.Start()
	engine.Run(gemini.Time(30 * iter))
	fmt.Printf("control plane: %d recovery, resumed at iteration %d\n",
		sys.Recoveries(), sys.Iteration())
	for _, ev := range sys.WastedEvents() {
		fmt.Printf("  wasted %s on ranks %v: T_lost %s + T_recovery %s, recovered from %s\n",
			ev.Wasted(), ev.Ranks, ev.TLost, ev.TRecovery, ev.Source)
	}

	// Merge both sinks into one Perfetto-loadable document.
	var buf bytes.Buffer
	if err := gemini.WriteTrace(&buf, execTr, ctl); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("gemini-trace.json", buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}

	st, err := gemini.TraceStatsFromJSON(buf.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwrote gemini-trace.json: %d events across %d process tracks\n",
		st.Events, len(st.Processes))
	for _, cat := range []string{"training", "netsim", "agent", "chaos", "kvstore"} {
		fmt.Printf("  %-9s %6d events\n", cat, st.Categories[cat])
		if st.Categories[cat] == 0 {
			log.Fatalf("subsystem %q emitted nothing — its tracing came unwired", cat)
		}
	}
	// Export the health monitor's two views of the same run: current
	// values for a Prometheus scrape, the sampled series as a timeline.
	var prom bytes.Buffer
	if err := gemini.WriteMetricsProm(&prom, reg); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("gemini-metrics.prom", prom.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	var csv bytes.Buffer
	if err := gemini.WriteTimelineCSV(&csv, rec); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("gemini-timeline.csv", csv.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote gemini-metrics.prom (%d instruments) and gemini-timeline.csv (%d samples)\n",
		len(reg.Snapshot()), rec.Samples())

	fmt.Println("\nopen the trace at ui.perfetto.dev or chrome://tracing")
}
