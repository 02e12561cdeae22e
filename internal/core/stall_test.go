package core

import (
	"fmt"
	"math"
	"testing"

	"gemini/internal/schedule"
	"gemini/internal/simclock"
)

// GEMINI checkpoints every iteration, so the stall its spec charges
// runsim per checkpoint is a per-iteration stall, and the fluid
// executor measures the same quantity as IterationTime −
// BaselineIteration. The two must agree within stallTolerance of the
// baseline iteration: the executor's float noise from summing
// thousands of fluid events is about 1e-11 of it.
//
// knownStallGaps lists the keys where they do not yet agree, each with
// the gap the executor measures. The spec charges no stall; pricing it
// from the Algorithm 2 plan is ROADMAP item 4(b). A listed gap that
// closes, or moves, fails the test until its entry is updated.
const stallTolerance = 1e-9

var knownStallGaps = map[string]struct {
	gap    simclock.Duration
	reason string
}{
	"GPT-2 100B/p4d.24xlarge/16": {253.803496 * simclock.Millisecond, "item 4(b)"}, // +0.421%, Fig. 7
	"GPT-2 40B/p3dn.24xlarge/16": {86.7 * simclock.Millisecond, "item 4(b)"},       // +0.190%
	"GPT-2 40B/p3dn.24xlarge/32": {99.9 * simclock.Millisecond, "item 4(b)"},       // +0.196%
}

func TestGeminiSpecStallMatchesExecutor(t *testing.T) {
	testbeds := []struct{ model, instance string }{
		{"GPT-2 100B", "p4d.24xlarge"},
		{"GPT-2 40B", "p3dn.24xlarge"},
	}
	seen := map[string]bool{}
	for _, tb := range testbeds {
		for _, n := range []int{16, 32, 64, 128, 256} {
			name := fmt.Sprintf("%s/%s/%d", tb.model, tb.instance, n)
			seen[name] = true
			t.Run(name, func(t *testing.T) {
				j, err := NewJob(JobSpec{Model: tb.model, Instance: tb.instance, Machines: n})
				if err != nil {
					t.Fatal(err)
				}
				res, err := j.ExecuteScheme(schedule.SchemeGemini)
				if err != nil {
					t.Fatal(err)
				}
				if res.OOM {
					t.Fatal("executor reported OOM")
				}
				spec := j.GeminiSpec()
				if spec.Interval != res.BaselineIteration {
					t.Fatalf("spec interval %v is not one baseline iteration %v", spec.Interval, res.BaselineIteration)
				}
				if spec.CompletionLag < res.CheckpointWallTime {
					t.Errorf("completion lag %v shorter than the measured checkpoint wall time %v",
						spec.CompletionLag, res.CheckpointWallTime)
				}
				measured := res.IterationTime - res.BaselineIteration
				tol := stallTolerance * res.BaselineIteration
				known, listed := knownStallGaps[name]
				switch {
				case !listed && math.Abs(float64(measured-spec.PerCheckpointStall)) > float64(tol):
					t.Errorf("spec stall %v, executor measures %v per iteration", spec.PerCheckpointStall, measured)
				case listed && math.Abs(float64(measured-spec.PerCheckpointStall-known.gap)) > float64(tol):
					t.Errorf("gap %v listed (%s), executor now measures %v over the spec's %v stall: update or remove the entry",
						known.gap, known.reason, measured-spec.PerCheckpointStall, spec.PerCheckpointStall)
				}
			})
		}
	}
	for name := range knownStallGaps {
		if !seen[name] {
			t.Errorf("knownStallGaps lists %s, which the test does not run", name)
		}
	}
}
