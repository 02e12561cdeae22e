// Package core assembles the GEMINI system out of its parts: given a
// training job (model × instance type × machine count) and a replica
// count, it derives the checkpoint placement (Algorithm 1), profiles the
// iteration timeline, partitions checkpoint traffic (Algorithm 2), and
// exposes the solution specs, the interference executor, the long-run
// failure simulator, and the live agent-based recovery system. The public
// gemini package is a thin veneer over this one.
package core

import (
	"fmt"

	"gemini/internal/agent"
	"gemini/internal/baselines"
	"gemini/internal/chaos"
	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/derive"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/netsim"
	"gemini/internal/placement"
	"gemini/internal/profile"
	"gemini/internal/runsim"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
	"gemini/internal/trace"
	"gemini/internal/training"
)

// JobSpec names a training job in user terms.
type JobSpec struct {
	// Model is a Table 2 name, e.g. "GPT-2 100B".
	Model string
	// Instance is a Table 1 name, e.g. "p4d.24xlarge".
	Instance string
	// Machines is the cluster size N.
	Machines int
	// Replicas is the checkpoint replica count m (default 2).
	Replicas int
	// RemoteBandwidth is the persistent store's aggregate bandwidth
	// (default 20 Gbps, the paper's FSx setup).
	RemoteBandwidth float64
	// Parallelism selects the distribution strategy (default ZeRO-3, the
	// paper's setting; data-parallel and pipeline-parallel are the §9
	// future-work extensions).
	Parallelism training.Parallelism
	// Faults is an optional chaos schedule armed against the recovery
	// system: crashes, correlated failures, partitions, stragglers, store
	// outages. Build one with chaos.NewBuilder.
	Faults chaos.Schedule
	// Strategy names the checkpoint strategy the recovery system runs
	// ("gemini", "tiered", "sparse", "adaptive"; default gemini). The
	// name is resolved against the strategy registry at job construction
	// and instantiated fresh per RecoverySystem call.
	Strategy string
	// Tracer, when set, is attached to every run the job starts: the
	// interference executor's tracks and the recovery control plane's
	// spans both land on it. Nil leaves tracing disabled and free.
	Tracer *trace.Tracer
	// Metrics, when set, receives every run's instruments: training.*
	// from the executor, health.* and strategy.* from the control plane.
	// Nil leaves monitoring disabled and free.
	Metrics *metrics.Registry
}

func (j JobSpec) withDefaults() JobSpec {
	if j.Replicas == 0 {
		j.Replicas = 2
	}
	if j.RemoteBandwidth == 0 {
		j.RemoteBandwidth = baselines.DefaultRemoteBandwidth
	}
	return j
}

// Job is a fully derived GEMINI deployment for one training job.
type Job struct {
	Spec      JobSpec
	Config    training.Config
	Placement *placement.Placement
	Timeline  *training.Timeline
	Profile   *profile.Profile
	Plan      *schedule.Plan

	specGemini, specStrawman, specHighFreq baselines.Spec
}

// CacheKey returns the derivation-cache key for a spec: exactly the
// fields the derivation pipeline reads. Faults, strategy and
// observability sinks configure runs, not derivations, so they do not
// appear.
func (j JobSpec) CacheKey() derive.Key {
	j = j.withDefaults()
	return derive.Key{
		Model:           j.Model,
		Instance:        j.Instance,
		Machines:        j.Machines,
		Replicas:        j.Replicas,
		RemoteBandwidth: j.RemoteBandwidth,
		Parallelism:     j.Parallelism,
	}
}

// NewJob derives everything from a job spec. The derivation pipeline
// (placement, timeline, profile, plan, cost model, baseline specs) is a
// pure function of the spec's CacheKey fields and is resolved through
// the shared content-keyed cache: a warm key does zero derivation work
// and the resulting artifacts are shared read-only across jobs.
func NewJob(spec JobSpec) (*Job, error) {
	spec = spec.withDefaults()
	if err := spec.Faults.Validate(spec.Machines); err != nil {
		return nil, err
	}
	if spec.Strategy != "" {
		if _, err := strategy.New(spec.Strategy); err != nil {
			return nil, err
		}
	}
	art, err := derive.Shared().Get(spec.CacheKey())
	if err != nil {
		return nil, err
	}
	return newJob(spec, art), nil
}

// newJob wraps derived artifacts for a defaulted, validated spec.
func newJob(spec JobSpec, art *derive.Artifacts) *Job {
	return &Job{
		Spec:         spec,
		Config:       art.Config,
		Placement:    art.Placement,
		Timeline:     art.Timeline,
		Profile:      art.Profile,
		Plan:         art.Plan,
		specGemini:   art.Gemini,
		specStrawman: art.Strawman,
		specHighFreq: art.HighFreq,
	}
}

// MustNewJob is NewJob for known-good specs.
func MustNewJob(spec JobSpec) *Job {
	j, err := NewJob(spec)
	if err != nil {
		panic(err)
	}
	return j
}

// GeminiSpec returns GEMINI's checkpointing behavior for the job.
func (j *Job) GeminiSpec() baselines.Spec { return j.specGemini }

// StrawmanSpec returns the three-hourly remote baseline.
func (j *Job) StrawmanSpec() baselines.Spec { return j.specStrawman }

// HighFreqSpec returns the saturate-the-remote-store baseline.
func (j *Job) HighFreqSpec() baselines.Spec { return j.specHighFreq }

// RingLatencyShare is the share of one iteration that is ring-collective
// startup latency. Each ring collective over N machines pays (N − 1)·α
// of it: once for a ZeRO-3 all-gather or reduce-scatter, twice for a
// data-parallel all-reduce. Pipeline stages exchange their boundaries
// point to point, with no ring, so the share is 0 there.
func (j *Job) RingLatencyShare() float64 {
	kind := netsim.AllGather
	switch j.Spec.Parallelism {
	case training.DataParallel:
		kind = netsim.AllReduce
	case training.PipelineParallel:
		return 0
	}
	tl := j.Timeline
	collectives := 0
	for _, op := range tl.Ops {
		if op.Kind == training.OpAllGather || op.Kind == training.OpReduceScatter {
			collectives++
		}
	}
	// A zero-byte ring collective costs exactly its startup steps.
	ring := netsim.CollectiveTime(kind, tl.Config.Machines, 0, 1, tl.Config.Calib.CollectiveAlpha)
	return float64(collectives) * ring.Seconds() / tl.Iteration.Seconds()
}

// RecoveryProbability returns the probability that GEMINI recovers from
// CPU memory when k machines fail simultaneously, by exact enumeration
// for small clusters and Monte Carlo beyond.
func (j *Job) RecoveryProbability(k int) float64 {
	if j.Placement.N <= 31 {
		return placement.BitmaskProbability(j.Placement, k)
	}
	return placement.MonteCarlo(j.Placement, k, 200_000, 1)
}

// ExecuteScheme runs the interference executor with one of the §7.4
// schemes, attaching the job's observability surface (JobSpec.Tracer,
// JobSpec.Metrics) when present. The fluid executor models the ZeRO-3
// traffic pattern; for the other parallelisms use the analytic plan
// (Job.Plan) instead.
func (j *Job) ExecuteScheme(s schedule.Scheme) (*training.ExecResult, error) {
	opts, err := j.execOptions(s)
	if err != nil {
		return nil, err
	}
	return training.Execute(j.Timeline, j.Profile, opts)
}

// ExecuteSchemeWithBuffers is ExecuteScheme with an explicit reserved
// GPU buffer size R and sub-buffer count p — the pipeline-depth ablation.
func (j *Job) ExecuteSchemeWithBuffers(s schedule.Scheme, bufferBytes float64, parts int) (*training.ExecResult, error) {
	opts, err := j.execOptions(s)
	if err != nil {
		return nil, err
	}
	opts.BufferBytes = bufferBytes
	opts.BufferParts = parts
	return training.Execute(j.Timeline, j.Profile, opts)
}

// execOptions is the one path into the executor: the ZeRO-3 guard and
// the spec's sinks. The executor runs the job's cached timeline and
// profile.
func (j *Job) execOptions(s schedule.Scheme) (training.ExecOptions, error) {
	if j.Spec.Parallelism != training.ZeRO3 {
		return training.ExecOptions{}, fmt.Errorf("core: the interference executor supports ZeRO-3 only, job uses %v", j.Spec.Parallelism)
	}
	opts := training.DefaultExecOptions(j.Placement, s)
	opts.Tracer = j.Spec.Tracer
	opts.Metrics = j.Spec.Metrics
	return opts, nil
}

// RunConfig is the one way a (job, spec, failure schedule) becomes a
// long-run simulation. Only CPU-memory specs get a placement: the job's
// own at the job's size, or one rebuilt over the given size otherwise —
// the Fig. 15b methodology, where the testbed's measured overheads are
// kept while the failure frequency scales with N. A zero window groups
// failures by the recovery downtime.
func (j *Job) RunConfig(spec baselines.Spec, machines int, fs failure.Schedule,
	horizon, replacementDelay, window simclock.Duration) (runsim.Config, error) {
	cfg := runsim.Config{
		Spec:               spec,
		Machines:           machines,
		Failures:           fs,
		Horizon:            horizon,
		ReplacementDelay:   replacementDelay,
		SimultaneityWindow: window,
	}
	switch {
	case !spec.UsesCPUMemory:
	case machines == j.Spec.Machines:
		cfg.Placement = j.Placement
	default:
		var err error
		cfg.Placement, err = placement.Mixed(machines, j.Spec.Replicas)
		return cfg, err
	}
	return cfg, nil
}

// RecoverySystem assembles the live agent-based control plane for the
// job on a fresh simulation engine, its recoveries priced from the
// job's GEMINI spec. The spec's checkpoint strategy is
// instantiated fresh and installed, its tracer and metrics registry are
// attached, and if the spec carries a fault schedule it is armed
// against the system before the engine runs.
func (j *Job) RecoverySystem(cloudCfg cloud.Config) (*simclock.Engine, *agent.System, error) {
	engine := simclock.NewEngine()
	clus, err := cluster.New(j.Spec.Machines, j.Config.Instance)
	if err != nil {
		return nil, nil, err
	}
	ck, err := ckpt.NewEngine(j.Placement, j.Config.ShardBytesPerMachine())
	if err != nil {
		return nil, nil, err
	}
	op, err := cloud.NewOperator(engine, cloudCfg)
	if err != nil {
		return nil, nil, err
	}
	sys, err := agent.NewSystem(engine, clus, ck, j.GeminiSpec(), op, agent.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	if name := j.Spec.Strategy; name != "" {
		st, err := strategy.New(name)
		if err != nil {
			return nil, nil, err
		}
		sys.SetStrategy(st)
	}
	if j.Spec.Tracer != nil {
		sys.SetTracer(j.Spec.Tracer)
	}
	if j.Spec.Metrics != nil {
		sys.SetMetrics(j.Spec.Metrics)
	}
	if len(j.Spec.Faults) > 0 {
		sys.Arm(j.Spec.Faults)
	}
	return engine, sys, nil
}
