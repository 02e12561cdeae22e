// Allocation gates run without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package training

import (
	"runtime"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/schedule"
)

// TestProfileWithJitterAllocationFlat pins the profiling loop's
// allocation behavior: the comm-op list is derived once per profile, the
// recorder reuses one op buffer and one span buffer across iterations,
// and each iteration's idle spans are folded into a running sum instead
// of a stored trace. An extra window iteration therefore allocates
// nothing. Storing a trace per iteration cost about seven allocations
// per iteration at GPT-2 100B depth, and rebuilding CommOps() inside the
// loop about 29.
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
	if small, large := allocsAt(32), allocsAt(160); large != small {
		t.Fatalf("profiling allocates %.0f times over 32 iterations and %.0f over 160, want 0 per extra iteration "+
			"(a per-iteration trace stored, or CommOps rebuilt inside the loop?)", small, large)
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
	tl, prof := derived(t, cfg)
	for _, scheme := range []schedule.Scheme{schedule.SchemeGemini, schedule.SchemeNoPipeline, schedule.SchemeBlocking} {
		opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), scheme)
		allocsAt := func(iterations int) float64 {
			opts.Iterations = iterations
			// A collection inside the measured runs adds a few runtime
			// allocations of its own; starting both measurements from
			// a fresh collection puts any such cycle at the same point.
			runtime.GC()
			return testing.AllocsPerRun(3, func() { MustExecute(tl, prof, opts) })
		}
		if small, large := allocsAt(2), allocsAt(6); large != small {
			t.Errorf("%v: executor allocates %.0f times at 2 iterations and %.0f at 6, want 0 per extra iteration "+
				"(a callback bound per step, an event not rearmed, or a flow or copy not released?)",
				scheme, small, large)
		}
	}
}

// TestExecuteAllocsFlatInChunks pins the executor's per-chunk cost on
// the Fig. 7 run: a machine's local shard is one copier run whose pieces
// take released copies as they start, and only GEMINI and NoPipeline
// build Algorithm 2's plan, so cutting the buffer into 16 parts instead
// of 4 (4× the chunks) must not add a single allocation. Queuing one
// copy object per local chunk cost about 300 allocations per machine.
func TestExecuteAllocsFlatInChunks(t *testing.T) {
	cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
	tl, prof := derived(t, cfg)
	for _, scheme := range []schedule.Scheme{schedule.SchemeGemini, schedule.SchemeBlocking} {
		opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), scheme)
		opts.Iterations = 1
		allocsAt := func(parts int) float64 {
			opts.BufferParts = parts
			runtime.GC()
			return testing.AllocsPerRun(3, func() { MustExecute(tl, prof, opts) })
		}
		if coarse, fine := allocsAt(4), allocsAt(16); fine != coarse {
			t.Errorf("%v: executor allocates %.0f times at 4 buffer parts and %.0f at 16, want equal "+
				"(a copy queued per chunk, or a job list grown per chunk?)", scheme, coarse, fine)
		}
	}
}

// TestBuildTimelineSteadyStateAllocs pins the timeline builders'
// allocation count, which must not grow with the op count. ZeRO-3 shares
// interned step labels across timelines; the data-parallel and
// pipeline builders format all their labels into one string. Each
// builder allocates only the timeline, its pre-sized op slice and a few
// scratch buffers. One fmt.Sprintf per label cost 239,271 allocations
// for the 10,000-machine pipeline timeline.
func TestBuildTimelineSteadyStateAllocs(t *testing.T) {
	for _, machines := range []int{16, 1000, 10000} {
		cfg := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), machines)
		for _, p := range []Parallelism{ZeRO3, DataParallel, PipelineParallel} {
			if _, err := BuildTimelineFor(cfg, p); err != nil { // intern ZeRO-3's labels
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := BuildTimelineFor(cfg, p); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 8 {
				t.Errorf("%d machines, %v: steady-state timeline build allocates %v times/op, want ≤ 8 "+
					"(a label formatted per op?)", machines, p, allocs)
			}
		}
	}
}
