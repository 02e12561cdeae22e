//go:build !race

// The race detector drops sync.Pool puts at random and instruments
// allocations, which would skew AllocsPerRun.

package runsim

import (
	"testing"

	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// A zero Observer must not add allocations to the walk — the campaign
// hot loop passes it unconditionally — and neither does walking three
// runs in one RunAll: its walker state is pooled. Gated in ci.sh.
func TestRunZeroObserverAllocs(t *testing.T) {
	straw, high, gem := specs(t, 16)
	fs := softwareFailures(t, 16, 8, 10*day)
	cfg := Config{Spec: gem, Machines: 16, Failures: fs, Horizon: 10 * day}
	cfg.Placement = placement.MustMixed(16, 2)
	// Warm the pools.
	for i := 0; i < 3; i++ {
		res := MustRun(cfg)
		res.Release()
	}
	n := testing.AllocsPerRun(50, func() {
		res := MustRun(cfg)
		res.Release()
	})
	// The walk itself is pooled; the steady-state allocations are the
	// *Result header and Release's pool pointer — exactly what Run cost
	// before observation existed, so a zero Observer adds nothing.
	if n > 2 {
		t.Fatalf("Run with zero Observer allocates %.1f/op, want ≤ 2", n)
	}

	// The three solutions over one schedule, in three passes: window 0
	// groups GEMINI's and HighFreq's failures by each one's own downtime,
	// and Strawman gets a 10 s window.
	cfgs := []Config{cfg, cfg, cfg}
	cfgs[1].Spec, cfgs[1].Placement = high, nil
	cfgs[2].Spec, cfgs[2].Placement = straw, nil
	cfgs[2].SimultaneityWindow = 10 * simclock.Second
	out := make([]*Result, len(cfgs))
	runAll := func() {
		if err := RunAll(cfgs, out); err != nil {
			t.Fatal(err)
		}
		for _, res := range out {
			res.Release()
		}
	}
	for i := 0; i < 3; i++ {
		runAll()
	}
	// Per run, as for Run: the *Result header and Release's pool pointer.
	if n := testing.AllocsPerRun(50, runAll); n > 6 {
		t.Fatalf("three-run RunAll with zero Observers allocates %.1f/op, want ≤ 6", n)
	}
}
