// Allocation gates run without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package training

import (
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/schedule"
)

// TestProfileWithJitterAllocationFlat pins the profiling loop's
// allocation behavior: the comm-op list is derived once per profile (not
// once per window iteration), the recorder's trace store is pre-sized,
// and each extra window iteration costs only the per-trace op copy plus
// the per-trace idle-span derivation in Build — a small constant,
// independent of how many comm ops the timeline has being re-sliced.
// Before the hoist, each iteration re-built CommOps() (~29 allocs and
// ~96 KB per iteration at GPT-2 100B depth); the marginal bound below
// fails if that regresses.
func TestProfileWithJitterAllocationFlat(t *testing.T) {
	cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
	tl := MustBuildTimeline(cfg)
	allocsAt := func(window int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := tl.ProfileWithJitter(window, 0.05, 7); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsAt(32), allocsAt(160)
	marginal := (large - small) / 128
	if marginal > 12 {
		t.Fatalf("profiling loop allocates %.1f times per marginal window iteration, want ≤ 12 "+
			"(CommOps rebuilt inside the loop?)", marginal)
	}
}

// TestExecuteIterationAllocs pins the executor's per-iteration cost on
// the Fig. 7 run (GPT-2 100B / 16 × p4d, Gemini). An iteration starts
// about 10.6k flows plus one GPU→CPU copy per checkpoint chunk; all of
// them come back through Release, so what one more iteration allocates
// is the executor's own per-collective and per-chunk closures and its
// zero-delay chunk events. Measured: 20,474 allocations per extra
// iteration (85,210 before flows and copies were recycled).
func TestExecuteIterationAllocs(t *testing.T) {
	cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
	tl := MustBuildTimeline(cfg)
	prof, err := tl.Profile(20)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), schedule.SchemeGemini)
	opts.Timeline, opts.Profile = tl, prof
	allocsAt := func(iterations int) float64 {
		opts.Iterations = iterations
		return testing.AllocsPerRun(3, func() { MustExecute(cfg, opts) })
	}
	small, large := allocsAt(2), allocsAt(6)
	if marginal := (large - small) / 4; marginal > 22000 {
		t.Fatalf("executor allocates %.0f times per extra iteration, want ≤ 22000 "+
			"(flows or copies no longer released?)", marginal)
	}
}

// TestBuildTimelineSteadyStateAllocs pins the cached-label guarantee:
// once a layer depth's labels are interned, building another timeline
// allocates only the handful of result slices (ops, steps, rs queue,
// compute starts) — no per-step label formatting.
func TestBuildTimelineSteadyStateAllocs(t *testing.T) {
	cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
	MustBuildTimeline(cfg) // intern this depth's labels
	allocs := testing.AllocsPerRun(20, func() {
		MustBuildTimeline(cfg)
	})
	if allocs > 8 {
		t.Fatalf("steady-state BuildTimeline allocates %v times/op, want ≤ 8", allocs)
	}
}
