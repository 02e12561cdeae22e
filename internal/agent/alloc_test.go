// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package agent

import (
	"runtime"
	"testing"

	"gemini/internal/cloud"
	"gemini/internal/simclock"
)

// TestHeartbeatSteadyStateAllocs bounds the marginal allocations of one
// heartbeat on a healthy 16-machine cluster. It runs the same windows at
// two heartbeat intervals: the root health checks and iteration commits
// are the same in both, so the difference divided by the extra renewals
// is the cost of a heartbeat alone: the cohort's share of a silent
// tick, one Renew of its held leases.
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

// TestHeldCohortAllocsZero: on a warm 16-machine cluster whose cohort
// holds its leases, a member's failure settles the hold and holds the
// other fifteen, its return holds all sixteen again, and a silent tick
// renews them. The whole cycle allocates nothing.
func TestHeldCohortAllocsZero(t *testing.T) {
	f := newFixture(t, 16, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.Run(simclock.Time(2 * iterTime))
	w, c := f.sys.workers[5], f.sys.cohorts[5]
	now := f.engine.Now()
	cycle := func() {
		w.alive = false
		f.sys.hold(c)
		if f.sys.store.NextExpiry() == simclock.Forever {
			t.Fatal("rank 5's lease did not leave the hold")
		}
		w.alive = true
		f.sys.hold(c)
		if !c.hold.Renew(now) {
			t.Fatal("the re-held cohort's tick is not silent")
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%v allocations per fail, settle and re-hold cycle, want 0", allocs)
	}
	if next := f.sys.store.NextExpiry(); next != simclock.Forever {
		t.Fatalf("a lease outside the hold expires at %v after the cycle, want none", next)
	}
}

// TestHealthyIterationAllocs pins what one healthy iteration of a warm
// 16-machine cluster allocates: a minute of simulated time past
// iteration 100, holding one iteration event (its commit plan, the
// checkpoint commits and the committed-iteration key), twelve root
// polls and the cohort's silent heartbeats. The iteration event is
// rearmed and its health predicate bound once, so what is left is the
// committed-iteration string the store keeps.
func TestHealthyIterationAllocs(t *testing.T) {
	// Measured: 1 (4 when each iteration allocated a fresh event, its
	// closure and a health-predicate closure).
	const want = 1
	f := newFixture(t, 16, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.Run(simclock.Time(100*iterTime + iterTime/2))
	start := f.sys.Iteration()
	runtime.GC()
	allocs := testing.AllocsPerRun(20, func() {
		f.engine.Run(f.engine.Now().Add(iterTime))
	})
	if got := f.sys.Iteration() - start; got != 21 || f.sys.Recoveries() != 0 {
		t.Fatalf("healthy run: %d iterations and %d recoveries, want 21 and 0", got, f.sys.Recoveries())
	}
	if allocs != want {
		t.Fatalf("%v allocations per healthy iteration, want %d", allocs, want)
	}
}
