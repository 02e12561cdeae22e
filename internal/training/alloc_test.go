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
// the Fig. 7 run (GPT-2 100B / 16 × p4d) under every scheme that moves
// checkpoint traffic through a different path: pipelined chunks
// (Gemini), unpipelined chunks (NoPipeline) and chunks gating training
// (Blocking). An iteration starts about 10.6k flows plus one GPU→CPU
// copy per checkpoint chunk. Flows and copies come back through
// Release, every callback is a method value bound once per run, and
// every executor event (a machine's iteration kick, a sender's wait for
// a release offset, a compute step, the update phase) is rearmed, so
// six iterations must allocate exactly as much as two.
func TestExecuteIterationAllocs(t *testing.T) {
	cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
	tl := MustBuildTimeline(cfg)
	prof, err := tl.Profile(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []schedule.Scheme{schedule.SchemeGemini, schedule.SchemeNoPipeline, schedule.SchemeBlocking} {
		opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), scheme)
		opts.Timeline, opts.Profile = tl, prof
		allocsAt := func(iterations int) float64 {
			opts.Iterations = iterations
			return testing.AllocsPerRun(3, func() { MustExecute(cfg, opts) })
		}
		if small, large := allocsAt(2), allocsAt(6); large != small {
			t.Errorf("%v: executor allocates %.0f times at 2 iterations and %.0f at 6, want 0 per extra iteration "+
				"(a callback bound per step, an event not rearmed, or a flow or copy not released?)",
				scheme, small, large)
		}
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
