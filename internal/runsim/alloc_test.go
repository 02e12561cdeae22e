//go:build !race

// The race detector drops sync.Pool puts at random and instruments
// allocations, which would skew AllocsPerRun.

package runsim

import (
	"testing"

	"gemini/internal/placement"
)

// A zero Observer must not add allocations to the walk — the campaign
// hot loop passes it unconditionally. Gated in ci.sh.
func TestRunZeroObserverAllocs(t *testing.T) {
	_, _, gem := specs(t, 16)
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
}
