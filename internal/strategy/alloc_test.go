// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package strategy

import (
	"fmt"
	"testing"
)

// TestPlanCommitAllocsZero: once a strategy's plan buffer has grown to
// its placement, an iteration commit — the plan and its execution
// against the checkpoint engine — allocates nothing, for every
// registered strategy on a 16- and a 1000-machine placement. The
// measured rounds span tiered's CPU cadence (both its GPU-only and its
// replicating iterations) and sparse's delta, refresh and resync
// commits.
func TestPlanCommitAllocsZero(t *testing.T) {
	for _, name := range Names() {
		for _, machines := range []int{16, 1000} {
			t.Run(fmt.Sprintf("%s/%d", name, machines), func(t *testing.T) {
				env, ck := testEnv(t, machines, 2)
				s := MustNew(name)
				s.Bind(env)
				iter := int64(0)
				round := func() {
					iter++
					applyPlan(ck, s.PlanCommit(iter, allHealthy), iter)
				}
				for iter < 2*tieredCPUEvery {
					round()
				}
				if allocs := testing.AllocsPerRun(2*tieredCPUEvery, round); allocs != 0 {
					t.Fatalf("%v allocations per warm iteration commit, want 0", allocs)
				}
			})
		}
	}
}
