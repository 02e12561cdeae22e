//go:build !race

// The race detector drops sync.Pool puts at random and instruments
// allocations, which would skew AllocsPerRun.

package scenario

import (
	"context"
	"testing"
)

// A warm one-worker campaign over the 20-variation smoke scenario stays
// within a fixed allocation budget per variation. Per variation that is
// its six result slices and, per spec, the *Result and the pointer
// Release pools; the schedule buffer, the seeded generator and the walk
// scratch all come from pools. A per-variation generator seed or a
// fresh schedule buffer would add one to two allocations per variation.
// Gated in ci.sh.
func TestCampaignWarmAllocsPerVariation(t *testing.T) {
	const perVariation = 13.5
	s, err := Load("../../examples/scenarios/smoke-1k.yaml")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	got := testing.AllocsPerRun(10, run) / float64(s.Variations)
	t.Logf("%.2f allocs per variation", got)
	if got > perVariation {
		t.Fatalf("warm campaign allocates %.2f per variation, want ≤ %v", got, perVariation)
	}
}
