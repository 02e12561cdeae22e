package schedule_test

import (
	"strings"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/profile"
	"gemini/internal/schedule"
	"gemini/internal/training"
)

// A scheme's GPU buffer demand and iteration cost are stated once, by the
// executor's chunk schedule, so these scheme tests run training.Execute.
// GPT-2 20B on four p3dn machines is smaller than the executor's own
// Fig. 16 cluster, and its GPU→CPU copies are slow enough to matter.

func cfg20Bp3dn(t *testing.T) training.Config {
	t.Helper()
	return training.MustNewConfig(model.MustByName("GPT-2 20B"), cluster.MustInstance("p3dn.24xlarge"), 4)
}

// derived builds cfg's timeline and its default-window profile, the pair
// the executor runs.
func derived(t *testing.T, cfg training.Config) (*training.Timeline, *profile.Profile) {
	t.Helper()
	tl := training.MustBuildTimeline(cfg)
	prof, err := tl.Profile(schedule.DefaultProfileWindow)
	if err != nil {
		t.Fatal(err)
	}
	return tl, prof
}

func execScheme(t *testing.T, scheme schedule.Scheme) *training.ExecResult {
	t.Helper()
	cfg := cfg20Bp3dn(t)
	tl, prof := derived(t, cfg)
	opts := training.DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), scheme)
	opts.Iterations = 2
	res, err := training.Execute(tl, prof, opts)
	if err != nil {
		t.Fatalf("Execute(%v): %v", scheme, err)
	}
	if res.OOM {
		t.Fatalf("%v reported OOM", scheme)
	}
	return res
}

// Without pipelining each chunk's copy blocks the next transfer, so
// NoPipeline runs the same plan slower than GEMINI.
func TestAnalyzeNoPipelineSlowerThanGemini(t *testing.T) {
	noPipe := execScheme(t, schedule.SchemeNoPipeline)
	gem := execScheme(t, schedule.SchemeGemini)
	if noPipe.IterationTime <= gem.IterationTime {
		t.Fatalf("no-pipeline iteration %v should exceed GEMINI %v", noPipe.IterationTime, gem.IterationTime)
	}
}

// When Algorithm 2's plan fits the idle spans, GEMINI needs only the R
// buffer and hides every checkpoint byte in idle time.
func TestAnalyzeGeminiZeroOverheadWhenFits(t *testing.T) {
	res := execScheme(t, schedule.SchemeGemini)
	if res.RequiredBufferBytes != schedule.DefaultBufferBytes {
		t.Fatalf("GEMINI buffer %v, want R = %v", res.RequiredBufferBytes, schedule.DefaultBufferBytes)
	}
	if res.IdleUtilization != 1 {
		t.Fatalf("GEMINI idle utilization %v, want 1 (the plan fits)", res.IdleUtilization)
	}
	if ov := res.Overhead(); ov > 0.02 {
		t.Fatalf("GEMINI overhead %.1f%%, want ≈0%%", ov*100)
	}
}

// A negative GPU budget, a zero copy bandwidth, an unknown scheme and
// invalid Algorithm 2 parameters fail Execute, Baseline included.
func TestAnalyzeValidation(t *testing.T) {
	cfg := cfg20Bp3dn(t)
	tl, prof := derived(t, cfg)
	pl := placement.MustMixed(cfg.Machines, 2)
	opts := training.DefaultExecOptions(pl, schedule.SchemeGemini)
	opts.GPUBudgetBytes = -1
	if _, err := training.Execute(tl, prof, opts); err == nil || !strings.Contains(err.Error(), "GPU budget") {
		t.Errorf("negative GPU budget: error %v", err)
	}
	slow := *tl
	slow.Config.Instance.GPUToCPUBytesPerSec = 0
	if _, err := training.Execute(&slow, prof, training.DefaultExecOptions(pl, schedule.SchemeGemini)); err == nil || !strings.Contains(err.Error(), "copy bandwidth") {
		t.Errorf("zero copy bandwidth: error %v", err)
	}
	if _, err := training.Execute(tl, prof, training.DefaultExecOptions(pl, schedule.Scheme(42))); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("unknown scheme: error %v", err)
	}
	opts = training.DefaultExecOptions(pl, schedule.SchemeBaseline)
	opts.Gamma = -1
	if _, err := training.Execute(tl, prof, opts); err == nil || !strings.Contains(err.Error(), "gamma") {
		t.Errorf("invalid Algorithm 2 parameters under Baseline: error %v", err)
	}
}
