package core

import (
	"math"
	"strings"
	"testing"

	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/metrics"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/trace"
	"gemini/internal/training"
)

func paperJob(t *testing.T) *Job {
	t.Helper()
	j, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	return j
}

func TestNewJobDerivesEverything(t *testing.T) {
	j := paperJob(t)
	if j.Spec.Replicas != 2 {
		t.Fatalf("default replicas %d, want 2", j.Spec.Replicas)
	}
	if j.Placement.N != 16 || j.Placement.M != 2 {
		t.Fatalf("placement %dx%d", j.Placement.N, j.Placement.M)
	}
	if j.Timeline.Iteration <= 0 || len(j.Profile.Spans) == 0 {
		t.Fatal("timeline/profile empty")
	}
	if !j.Plan.Fits {
		t.Fatal("checkpoint plan does not fit the idle spans for the paper's flagship config")
	}
	if j.GeminiSpec().Name != "GEMINI" || j.StrawmanSpec().Name != "Strawman" || j.HighFreqSpec().Name != "HighFreq" {
		t.Fatal("spec names wrong")
	}
}

func TestNewJobValidatesResources(t *testing.T) {
	if _, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p3dn.24xlarge", Machines: 16}); err == nil {
		t.Error("100B on p3dn should fail GPU memory validation")
	}
	if _, err := NewJob(JobSpec{Model: "Nonexistent 1B", Instance: "p4d.24xlarge", Machines: 16}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "z9.metal", Machines: 16}); err == nil {
		t.Error("unknown instance accepted")
	}
	if _, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 0}); err == nil {
		t.Error("zero machines accepted")
	}
	// CPU-memory budget: m huge enough to exceed 1152 GB of host memory.
	// Shard on 2 machines = 600 GB; two buffers × m=2 replicas = 2.4 TB.
	if _, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 2, Replicas: 2}); err == nil {
		t.Error("CPU-memory over-budget accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewJob did not panic on bad spec")
		}
	}()
	MustNewJob(JobSpec{Model: "nope", Instance: "p4d.24xlarge", Machines: 16})
}

// A remote bandwidth that is not positive fails job construction; the
// range check is negated so NaN fails it too. Zero means the default.
func TestNewJobRejectsBadRemoteBandwidth(t *testing.T) {
	for _, bw := range []float64{math.NaN(), -1e9} {
		_, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16, RemoteBandwidth: bw})
		if err == nil || !strings.Contains(err.Error(), "remote bandwidth") {
			t.Errorf("RemoteBandwidth %v: error %v, want a remote bandwidth error", bw, err)
		}
	}
}

func TestRecoveryProbabilityMatchesCorollary(t *testing.T) {
	j := paperJob(t)
	if got := j.RecoveryProbability(2); math.Abs(got-0.9333) > 1e-3 {
		t.Fatalf("P(recover | k=2) = %v, want 0.933", got)
	}
	if got := j.RecoveryProbability(3); math.Abs(got-0.8) > 1e-3 {
		t.Fatalf("P(recover | k=3) = %v, want 0.8", got)
	}
	// Large clusters switch to Monte Carlo.
	big := MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 64})
	if got := big.RecoveryProbability(2); got < 0.97 || got > 1 {
		t.Fatalf("P(recover | N=64, k=2) = %v, want ≈0.984", got)
	}
}

func TestExecuteSchemeThroughJob(t *testing.T) {
	j := paperJob(t)
	res, err := j.ExecuteScheme(schedule.SchemeGemini)
	if err != nil {
		t.Fatal(err)
	}
	if ov := res.Overhead(); ov > 0.02 {
		t.Fatalf("GEMINI overhead %.2f%%", ov*100)
	}
}

func TestExecuteSchemeWithBuffers(t *testing.T) {
	j := MustNewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16})
	single, err := j.ExecuteSchemeWithBuffers(schedule.SchemeGemini, 8*128e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := j.ExecuteSchemeWithBuffers(schedule.SchemeGemini, 8*128e6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if single.IterationTime <= piped.IterationTime {
		t.Fatalf("p=1 (%v) should be slower than p=4 (%v)", single.IterationTime, piped.IterationTime)
	}
}

func TestSimulateRunScaled(t *testing.T) {
	j := paperJob(t)
	horizon := 3 * simclock.Day
	fs, err := failure.FixedRate(100, 10, 0, horizon) // ranks up to 29 over 3 days
	if err != nil {
		t.Fatal(err)
	}
	res, err := j.SimulateRunScaled(j.GeminiSpec(), 100, fs, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveRatio <= 0.5 || res.EffectiveRatio >= 1 {
		t.Fatalf("scaled ratio %.3f implausible", res.EffectiveRatio)
	}
	// A failure rank ≥ the job's own 16 machines proves the placement
	// really was rebuilt at the scaled size.
	if _, err := j.SimulateRun(j.GeminiSpec(), fs, horizon, 0); err == nil {
		t.Fatal("unscaled run should reject ranks beyond the testbed size")
	}
}

func TestSimulateRunThroughJob(t *testing.T) {
	j := paperJob(t)
	horizon := 5 * simclock.Day
	fs, err := failure.FixedRate(16, 4, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	gem, err := j.SimulateRun(j.GeminiSpec(), fs, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	straw, err := j.SimulateRun(j.StrawmanSpec(), fs, horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gem.EffectiveRatio <= straw.EffectiveRatio {
		t.Fatalf("GEMINI %.3f should beat Strawman %.3f", gem.EffectiveRatio, straw.EffectiveRatio)
	}
}

func TestRecoverySystemEndToEnd(t *testing.T) {
	j := MustNewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16})
	engine, sys, err := j.RecoverySystem(cloud.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	iter := j.Timeline.Iteration
	engine.At(simclock.Time(3*iter+1), func() {
		sys.InjectFailure(5, cluster.HardwareFailed)
	})
	engine.Run(simclock.Time(40 * iter))
	if sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", sys.Recoveries())
	}
	if !sys.Training() {
		t.Fatal("training did not resume")
	}
}

// A job carrying both sinks in its spec attaches them to the executor:
// the tracer records the run's spans, the registry fills with training.*
// instruments, and the measured result matches the unobserved run.
func TestExecuteSchemeWithSpecSinks(t *testing.T) {
	tr := trace.NewTracer(nil)
	reg := metrics.NewRegistry()
	j := MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16, Tracer: tr, Metrics: reg})
	res, err := j.ExecuteScheme(schedule.SchemeGemini)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := paperJob(t).ExecuteScheme(schedule.SchemeGemini)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterationTime != bare.IterationTime {
		t.Fatalf("observed run measured %v, bare run %v — observation perturbed the sim",
			res.IterationTime, bare.IterationTime)
	}
	if res.IdleUtilization != 1 {
		t.Fatalf("idle utilization %v, want 1 (plan fits for the flagship config)", res.IdleUtilization)
	}
	cs := reg.Snapshot()
	if v, ok := cs.Get("training.iteration_seconds.count"); !ok || v == 0 {
		t.Fatalf("no iteration observations in registry: %v", cs)
	}
	if v, ok := cs.Get("training.idle_utilization"); !ok || v != 1 {
		t.Fatalf("idle_utilization gauge %v/%v, want 1", v, ok)
	}
	if len(tr.Tracks()) == 0 {
		t.Fatal("tracer recorded no tracks")
	}
}

// Both executor entry points apply the same ZeRO-3 guard and attach the
// spec's tracer.
func TestExecuteEntriesShareGuardAndSinks(t *testing.T) {
	entries := []struct {
		name string
		run  func(*Job) (*training.ExecResult, error)
	}{
		{"ExecuteScheme", func(j *Job) (*training.ExecResult, error) {
			return j.ExecuteScheme(schedule.SchemeGemini)
		}},
		{"ExecuteSchemeWithBuffers", func(j *Job) (*training.ExecResult, error) {
			return j.ExecuteSchemeWithBuffers(schedule.SchemeGemini, 8*128e6, 2)
		}},
	}
	base := JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16}
	for _, e := range entries {
		t.Run(e.name+"/data-parallel-rejected", func(t *testing.T) {
			spec := base
			spec.Parallelism = training.DataParallel
			_, err := e.run(MustNewJob(spec))
			if err == nil || !strings.Contains(err.Error(), "supports ZeRO-3 only") {
				t.Fatalf("err = %v, want the ZeRO-3 guard", err)
			}
		})
		t.Run(e.name+"/spec-tracer-attached", func(t *testing.T) {
			spec := base
			spec.Tracer = trace.NewTracer(nil)
			if _, err := e.run(MustNewJob(spec)); err != nil {
				t.Fatal(err)
			}
			if len(spec.Tracer.Tracks()) == 0 {
				t.Fatal("spec tracer recorded no tracks")
			}
		})
	}
}
