// Package gemini is a simulation-grade reproduction of "GEMINI: Fast
// Failure Recovery in Distributed Training with In-Memory Checkpoints"
// (SOSP 2023): checkpoint large-model training state into the CPU memory
// of the training machines themselves — placed by a provably
// near-optimal replica strategy and transmitted inside the network's
// idle timespans — so failure recovery takes seconds instead of tens of
// minutes.
//
// The module reproduces the whole system the paper describes; this
// package is the surface its examples and commands use:
//
//   - Placement (Algorithm 1): group/mixed and rack-aware checkpoint
//     placement with exact recovery probabilities.
//   - Traffic scheduling (Algorithm 2): partition checkpoints into the
//     profiled idle spans of the ZeRO-3 iteration timeline and pipeline
//     them through GPU sub-buffers.
//   - A deterministic discrete-event substrate (virtual clock, max-min
//     fair network fabric, GPU→CPU copy channels) standing in for the
//     paper's A100/V100 testbed.
//   - The failure-recovery control plane: worker/root agents, an
//     etcd-like lease/watch/election store, cloud-operator machine
//     replacement, and the three recovery paths (local, peer, remote).
//   - The evaluation harness reproducing every table and figure of §7.
//
// # Quickstart
//
//	job, err := gemini.NewJob(gemini.JobSpec{
//		Model:    "GPT-2 100B",
//		Instance: "p4d.24xlarge",
//		Machines: 16,
//	})
//	if err != nil { ... }
//	fmt.Println(job.Timeline.Iteration)        // ≈62 s
//	fmt.Println(job.RecoveryProbability(2))    // 0.933
//	res, _ := job.ExecuteScheme(gemini.SchemeGemini)
//	fmt.Println(res.Overhead())                // ≈0
//
// See the examples/ directory for runnable end-to-end scenarios and
// cmd/benchtables for the paper's tables and figures.
package gemini

import (
	"context"
	"io"

	"gemini/internal/baselines"
	"gemini/internal/chaos"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/core"
	"gemini/internal/derive"
	"gemini/internal/metrics"
	"gemini/internal/obs"
	"gemini/internal/placement"
	"gemini/internal/scenario"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
	"gemini/internal/trace"
)

// Core job API.
type (
	// JobSpec names a training job: a Table 2 model, a Table 1 instance
	// type, the machine count, and the checkpoint replica count. Its
	// other fields are the one place to attach a fault schedule
	// (Faults), pick a checkpoint strategy (Strategy) and attach the
	// observability sinks (Tracer, Metrics); a zero field means the
	// default, or off.
	JobSpec = core.JobSpec
	// Job is a fully derived GEMINI deployment: placement, profiled
	// timeline, checkpoint plan, and solution specs.
	Job = core.Job
)

// StrategyNames returns the registered checkpoint strategy names,
// sorted — the valid values of JobSpec.Strategy: "gemini" (the paper's
// scheme, the default), "tiered" (GPU-buffer → CPU → remote ladder),
// "sparse" (delta/changed-shards-only commits), or "adaptive" (switches
// among them at runtime from the observed failure stream).
func StrategyNames() []string { return strategy.Names() }

// NewJob derives a GEMINI deployment from a job spec, validating GPU and
// CPU memory budgets, the replica count, the strategy name, and any
// attached fault schedule.
func NewJob(spec JobSpec) (*Job, error) { return core.NewJob(spec) }

// Virtual time.
type (
	// Time is virtual seconds since simulation start.
	Time = simclock.Time
	// Duration is a span of virtual time in seconds.
	Duration = simclock.Duration
)

// Duration units.
const (
	Millisecond = simclock.Millisecond
	Second      = simclock.Second
	Minute      = simclock.Minute
	Hour        = simclock.Hour
	Day         = simclock.Day
)

// Checkpoint placement (Algorithm 1 and its analysis).
type Placement = placement.Placement

// NewPlacement is Algorithm 1: group placement when m | N, otherwise
// group + trailing ring.
func NewPlacement(n, m int) (*Placement, error) { return placement.Mixed(n, m) }

// NewRackAwarePlacement spreads every replica group across m racks of
// rackSize machines each, so no single-rack failure can wipe a whole
// group. Requires rackSize | n and m | (n / rackSize).
func NewRackAwarePlacement(n, m, rackSize int) (*Placement, error) {
	return placement.RackAware(n, m, rackSize)
}

// Racks partitions ranks 0..n-1 into racks of rackSize consecutive
// machines — the correlated failure domains for
// CorrelatedRecoveryProbability.
func Racks(n, rackSize int) ([][]int, error) { return placement.Racks(n, rackSize) }

// RecoveryProbabilityExact enumerates a placement's recovery probability
// under k simultaneous independent failures (N ≤ 31). It panics on k
// outside [0, N].
func RecoveryProbabilityExact(p *Placement, k int) float64 {
	return placement.BitmaskProbability(p, k)
}

// CorrelatedRecoveryProbability is the rack-level analogue of
// RecoveryProbabilityExact: the probability that a placement survives k
// whole racks failing together, over all equally likely k-subsets of
// racks.
func CorrelatedRecoveryProbability(p *Placement, racks [][]int, k int) (float64, error) {
	return placement.CorrelatedProbability(p, racks, k)
}

// Interleaving schemes of §7.4 (Figure 16).
type Scheme = schedule.Scheme

// Scheme values.
const (
	SchemeBaseline   = schedule.SchemeBaseline
	SchemeBlocking   = schedule.SchemeBlocking
	SchemeNaive      = schedule.SchemeNaive
	SchemeNoPipeline = schedule.SchemeNoPipeline
	SchemeGemini     = schedule.SchemeGemini
)

// Failure kinds (§6.1).
const (
	SoftwareFailure = cluster.SoftwareFailed
	HardwareFailure = cluster.HardwareFailed
)

// RecoverySource says which storage tier a recovery reads from.
type RecoverySource = baselines.RecoverySource

// Recovery sources, fastest first (§3.1's hierarchy).
const (
	FromLocalCPU         RecoverySource = baselines.FromLocal
	FromPeerCPU          RecoverySource = baselines.FromPeer
	FromPersistentRemote RecoverySource = baselines.FromRemote
)

// CloudConfig configures the machine-replacement operator.
type CloudConfig = cloud.Config

// DefaultCloudConfig is the EC2-ASG behavior measured in §7.3
// (4–7 minute provisioning).
func DefaultCloudConfig() CloudConfig { return cloud.DefaultConfig() }

// Fault injection (the chaos engine). A FaultSchedule is a declarative,
// deterministic list of faults — crashes, correlated rack failures,
// network partitions, stragglers, key-value store outages, lease jitter
// — validated at job construction and armed automatically by
// Job.RecoverySystem:
//
//	sched := gemini.Faults().
//		Partition(190*gemini.Second, 4*gemini.Minute, 3, 5).
//		CrashGroup(190*gemini.Second, gemini.HardwareFailure, 2, 4).
//		MustBuild(16)
//	spec.Faults = sched
//	job, _ := gemini.NewJob(spec)
//	engine, sys, _ := job.RecoverySystem(gemini.DefaultCloudConfig())
//	sys.Start()
//	engine.Run(2 * gemini.Hour)
//	_ = sys.Log() // one instant per injection and recovery step
type (
	// FaultSchedule is a sorted, validated chaos schedule.
	FaultSchedule = chaos.Schedule
	// FaultBuilder composes fault schedules fluently.
	FaultBuilder = chaos.Builder
)

// Faults starts a fluent fault-schedule builder.
func Faults() *FaultBuilder { return chaos.NewBuilder() }

// Structured observability: span tracing with Chrome trace-event
// (Perfetto-loadable) export.
type (
	// Tracer collects one run's spans, instants, and counter samples on
	// named tracks. Nil = disabled and free. Not concurrency-safe: give
	// each run its own tracer and merge them at export.
	Tracer = trace.Tracer
	// TraceStats summarizes an exported trace document.
	TraceStats = trace.JSONStats
)

// NewTracer creates an empty tracer. The simulation installs its clock
// when a run attaches the tracer (set JobSpec.Tracer).
func NewTracer() *Tracer { return trace.NewTracer(nil) }

// WriteTrace renders the tracers as one Chrome trace-event JSON document,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteTrace(w io.Writer, tracers ...*Tracer) error { return trace.WriteJSON(w, tracers...) }

// TraceStatsFromJSON parses an exported trace and summarizes its event
// and category counts.
func TraceStatsFromJSON(data []byte) (*TraceStats, error) { return trace.StatsFromJSON(data) }

// Run health monitoring: live metric instruments, a sim-time series
// recorder, and Prometheus / CSV export. Attach a registry to a job
// with JobSpec.Metrics (training.* from the executor; health.* gauges
// and the Eq. 1 wasted-time histograms from the control plane); a
// Recorder samples watched instruments on a sim-time cadence for
// timeline export. Monitoring is a pure observer — a monitored run
// replays bit-identically.
type (
	// MetricsRegistry holds one run's named live instruments.
	MetricsRegistry = metrics.Registry
	// MetricsRecorder samples watched instruments into sim-time series.
	MetricsRecorder = metrics.Recorder
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewMetricsRecorder creates a recorder over reg keeping the newest
// capacity samples per watched instrument. Call Watch with instrument
// names, then Start it on the run's engine.
func NewMetricsRecorder(reg *MetricsRegistry, capacity int) *MetricsRecorder {
	return metrics.NewRecorder(reg, capacity)
}

// WriteMetricsProm renders the registry's instruments in Prometheus text
// exposition format: counters, gauges, and native histograms with
// cumulative `le` buckets (the +Inf bucket always equals _count, as
// cmd/promcheck enforces).
func WriteMetricsProm(w io.Writer, reg *MetricsRegistry) error { return metrics.WriteProm(w, reg) }

// WriteTimelineCSV renders the recorder's sampled series as a CSV
// timeline: a time column plus one column per watched instrument.
func WriteTimelineCSV(w io.Writer, rec *MetricsRecorder) error { return metrics.WriteCSV(w, rec) }

// CacheStats is a point-in-time snapshot of the shared derivation
// cache's counters (hits, misses, evictions, resident entries).
type CacheStats = derive.Stats

// DerivationCacheStats snapshots the shared derivation cache that
// NewJob resolves artifacts through. A campaign over few distinct specs
// should show a hit rate near 1; see DESIGN.md §12.
func DerivationCacheStats() CacheStats { return derive.Shared().Stats() }

// ExportDerivationCacheMetrics writes the shared derivation cache's
// counters into reg as derive.cache.* instruments (a snapshot copy —
// the registry stays single-threaded). Call it again to refresh.
func ExportDerivationCacheMetrics(reg *MetricsRegistry) { derive.Shared().Export(reg) }

// Scenario aliases expose the declarative front door: a YAML/JSON file
// describing a job, fleet, failure model, chaos schedule and solutions,
// compiled onto the simulator and expanded into a seeded campaign. See
// examples/scenarios and DESIGN.md §13.
type (
	// Scenario is one parsed scenario file.
	Scenario = scenario.Scenario
	// CompiledScenario is a scenario lowered onto the simulator.
	CompiledScenario = scenario.Compiled
	// CampaignOptions tunes a campaign run (workers, variation override).
	CampaignOptions = scenario.CampaignOptions
	// CampaignReport is a campaign's deterministic aggregate result.
	CampaignReport = scenario.Report
)

// ParseScenario decodes and validates scenario bytes (YAML or JSON,
// sniffed by content).
func ParseScenario(data []byte) (*Scenario, error) { return scenario.Parse(data) }

// RunCampaign expands a compiled scenario (Scenario.Compile) into its
// seeded variations and aggregates them; the report is byte-identical
// for a fixed seed at any worker count.
func RunCampaign(ctx context.Context, c *CompiledScenario, opts CampaignOptions) (*CampaignReport, error) {
	return scenario.RunCampaign(ctx, c, opts)
}

// Campaign observability: a concurrent-safe progress sink and live
// registry that workers update while a campaign runs, an HTTP server
// exposing both, and the post-campaign flight recorder. See DESIGN.md
// §14 and examples/campaignobs.
type (
	// CampaignProgress counts campaign work live; safe for any number of
	// concurrent writers and readers, nil-disabled.
	CampaignProgress = obs.Progress
	// LiveRegistry is a mutex-guarded registry workers merge per-run
	// results into, for serving while a campaign runs. Arrival-order —
	// use the report's deterministic rollup for goldens.
	LiveRegistry = obs.SyncRegistry
	// ObsServer serves /metrics, /progress and /debug/pprof over HTTP.
	ObsServer = obs.Server
	// RunRecord is one (variation, spec) outcome kept for the flight
	// recorder (CampaignOptions.RecordRuns).
	RunRecord = scenario.RunRecord
	// FlightRun is one outlier re-executed with full observability
	// attached; it carries the trace, registry and timeline writers.
	FlightRun = scenario.FlightRun
	// TraceLintIssue is one structural defect trace linting found.
	TraceLintIssue = trace.LintIssue
)

// NewCampaignProgress returns an enabled campaign progress sink for
// CampaignOptions.Progress.
func NewCampaignProgress() *CampaignProgress { return obs.NewProgress() }

// NewLiveRegistry returns an enabled live registry for
// CampaignOptions.Live.
func NewLiveRegistry() *LiveRegistry { return obs.NewSyncRegistry() }

// ServeObservability starts the campaign observability HTTP server on
// addr (":0" picks a free port; read it back with Addr). Either
// argument may be nil.
func ServeObservability(addr string, prog *CampaignProgress, live *LiveRegistry) (*ObsServer, error) {
	return obs.NewServer(addr, prog, live)
}

// CampaignOutliers ranks a report's recorded runs (RecordRuns must have
// been set) by the given key ("wasted", "ratio" or "wasted-vs-spec")
// and returns the worst k. It errors on a negative k, an unknown key and
// a report without records.
func CampaignOutliers(rep *CampaignReport, key string, k int) ([]RunRecord, error) {
	return scenario.Outliers(rep, key, k)
}

// ReplayRun deterministically re-executes a recorded run with tracer,
// metrics and timeline taps attached, erroring if the re-run's outcome
// differs from the record in any bit.
func ReplayRun(c *CompiledScenario, rec RunRecord) (*FlightRun, error) { return c.Replay(rec) }

// LintTrace checks an exported trace JSON document for structural
// defects: unbalanced begin/end span nesting and counter samples on
// unnamed tracks. Traces written by WriteTrace always lint clean.
func LintTrace(data []byte) ([]TraceLintIssue, error) { return trace.Lint(data) }
