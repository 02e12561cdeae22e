// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package agent

import (
	"testing"

	"gemini/internal/cloud"
	"gemini/internal/simclock"
)

// TestHeartbeatSteadyStateAllocs bounds the marginal allocations of one
// heartbeat on a healthy 16-machine cluster. It runs the same windows at
// two heartbeat intervals: the root health checks and iteration commits
// are the same in both, so the difference divided by the extra renewals
// is the cost of a heartbeat alone — a lease renewal plus its share of
// rearming the cohort's ticker and the lease sweep.
func TestHeartbeatSteadyStateAllocs(t *testing.T) {
	const (
		machines = 16
		// Measured: 0.00 allocations per heartbeat (4.00 when every
		// heartbeat allocated a fresh ticker event and sweep event, each
		// with its closure).
		bound = 0.1
	)
	window := func(interval simclock.Duration) (allocs, heartbeats float64) {
		f := newFixture(t, machines, 2, cloud.DefaultConfig())
		f.sys.opts.HeartbeatInterval = interval
		f.sys.Start()
		f.engine.Run(simclock.Time(2 * iterTime))
		allocs = testing.AllocsPerRun(20, func() {
			f.engine.Run(f.engine.Now().Add(iterTime))
		})
		if f.sys.Recoveries() != 0 || f.sys.Iteration() != 2+21 {
			t.Fatalf("healthy run: %d recoveries at iteration %d, want 0 at 23", f.sys.Recoveries(), f.sys.Iteration())
		}
		return allocs, machines * float64(iterTime/interval)
	}
	slowAllocs, slowBeats := window(5 * simclock.Second)
	fastAllocs, fastBeats := window(2.5 * simclock.Second)
	perBeat := (fastAllocs - slowAllocs) / (fastBeats - slowBeats)
	t.Logf("%.2f allocations per heartbeat (%v per window at %v heartbeats, %v at %v)",
		perBeat, slowAllocs, slowBeats, fastAllocs, fastBeats)
	if perBeat > bound {
		t.Fatalf("%.2f allocations per heartbeat, want ≤ %v", perBeat, bound)
	}
}

// TestRootCheckAllocsZero: the root agent's health poll on a healthy
// 16-machine cluster sweeps the store and reads the watch-fed missing
// count, and allocates nothing. With one rank's heartbeat gone, listing
// the missing ranks allocates exactly the list the poll hands to
// recovery.
func TestRootCheckAllocsZero(t *testing.T) {
	f := newFixture(t, 16, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.Run(simclock.Time(2 * iterTime))
	allocs := testing.AllocsPerRun(100, f.sys.rootCheck)
	if f.sys.recovering || f.sys.RootRank() != 0 {
		t.Fatalf("healthy poll: recovering=%v root=%d, want false and 0", f.sys.recovering, f.sys.RootRank())
	}
	if allocs != 0 {
		t.Fatalf("%v allocations per root poll, want 0", allocs)
	}

	f.sys.Store().Delete(hbKey(5))
	var missing []int
	allocs = testing.AllocsPerRun(100, func() { missing = f.sys.missingRanks() })
	if len(missing) != 1 || missing[0] != 5 {
		t.Fatalf("missing ranks %v, want [5]", missing)
	}
	if allocs != 1 {
		t.Fatalf("%v allocations listing one missing rank, want 1", allocs)
	}
}
