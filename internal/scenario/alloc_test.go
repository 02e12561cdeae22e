//go:build !race

// The race detector drops sync.Pool puts at random and instruments
// allocations, which would skew AllocsPerRun.

package scenario

import (
	"context"
	"runtime"
	"testing"
)

// A warm one-worker campaign over the 20-variation smoke scenario stays
// within a fixed allocation budget per variation. Per variation that is,
// per spec, the *Result and the pointer Release pools, about 7 with
// the campaign's own allocations (the run record array, the report)
// spread over the variations; the records are written in place, the
// schedule buffer, the seeded generator and the walk scratch all come
// from pools. A per-variation result slice, generator seed or fresh
// schedule buffer would add one to two allocations per variation.
// Gated in ci.sh.
func TestCampaignWarmAllocsPerVariation(t *testing.T) {
	const perVariation = 7.5
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

// A warm one-worker observed campaign (Aggregate and RecordRuns) over
// the 120-variation chaos scenario stays within a fixed allocation
// budget per variation: the plain campaign's pooled results, about 7;
// Report.Runs is the campaign's record array, not a copy. Per-run
// registries come from a pool and are recycled as the rollup merges
// them, and the chaos merge lands in a pooled buffer; a fresh registry
// per run adds about twenty allocations per spec (80 per variation in
// all), a fresh merged schedule one per variation. Gated in ci.sh.
func TestObservedCampaignWarmAllocsPerVariation(t *testing.T) {
	const perVariation = 8
	s, err := Load("../../examples/scenarios/chaos-10k.yaml")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 1, Aggregate: true, RecordRuns: true}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	got := testing.AllocsPerRun(5, run) / float64(s.Variations)
	t.Logf("%.2f allocs per variation", got)
	if got > perVariation {
		t.Fatalf("warm observed campaign allocates %.2f per variation, want ≤ %v", got, perVariation)
	}
}

// A warm ComputeHash on an observed report (aggregates and run records
// included) encodes into a pooled buffer and hashes it in place: at
// most the hex digest's allocations and well under 1 KiB per call,
// where a copy of the encoded report per call would be tens of KiB.
// Gated in ci.sh.
func TestReportHashAllocs(t *testing.T) {
	const (
		maxAllocs = 2
		maxBytes  = 1024
		calls     = 100
	)
	s, err := Load("../../examples/scenarios/smoke-1k.yaml")
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 1, Aggregate: true, RecordRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ComputeHash() != rep.Hash {
		t.Fatal("hash does not verify")
	}
	if got := testing.AllocsPerRun(calls, func() { rep.ComputeHash() }); got > maxAllocs {
		t.Fatalf("warm ComputeHash makes %.1f allocations, want ≤ %d", got, maxAllocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		rep.ComputeHash()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("%.0f B allocated per ComputeHash", perCall)
	if perCall >= maxBytes {
		t.Fatalf("warm ComputeHash allocates %.0f B per call, want < %d", perCall, maxBytes)
	}
}
