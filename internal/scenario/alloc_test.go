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

// A warm ComputeHash at two workers encodes the run records in
// parallel chunks: the pooled encoding keeps every chunk's buffer, so a
// call allocates only the fan-out's bookkeeping (goroutines, wait
// group) and the hex digest, under 4 KiB, and no more for a report of
// twelve chunks than for one of three (an allocation per chunk would
// add nine). The gate sets GOMAXPROCS to exactly two and restores it:
// ComputeHash fans out to GOMAXPROCS workers, and a wider host would
// start more goroutines for twelve chunks than for three. It also
// warms the pool before measuring, because sync.Pool keeps one private
// encoding per P that other Ps cannot take. testing.AllocsPerRun pins
// GOMAXPROCS to 1 and would never leave the inline path, so this gate
// reads runtime.MemStats itself. Gated in ci.sh.
func TestReportHashAllocsParallel(t *testing.T) {
	const (
		maxBytes = 4096
		calls    = 100
		workers  = 2
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	perCall := func(chunks int) (bytes, allocs float64) {
		rep := &Report{Scenario: "chunks", Specs: []SpecReport{{Name: "gemini"}}, Runs: runRecords(chunks * runChunk)}
		rep.Hash = rep.ComputeHash()
		runtime.GC()
		for i := 0; i < calls; i++ {
			if rep.ComputeHash() != rep.Hash {
				t.Fatal("hash does not verify")
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			rep.ComputeHash()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / calls, float64(after.Mallocs-before.Mallocs) / calls
	}
	smallB, smallN := perCall(3)
	largeB, largeN := perCall(12)
	t.Logf("3 chunks: %.0f B in %.1f allocations per ComputeHash; 12 chunks: %.0f B in %.1f", smallB, smallN, largeB, largeN)
	if smallB >= maxBytes || largeB >= maxBytes {
		t.Fatalf("warm parallel ComputeHash allocates %.0f B (3 chunks) and %.0f B (12 chunks) per call, want < %d", smallB, largeB, maxBytes)
	}
	if largeN > smallN+1 {
		t.Fatalf("warm parallel ComputeHash makes %.1f allocations at 12 chunks, %.1f at 3: allocations grow with the chunk count", largeN, smallN)
	}
}
