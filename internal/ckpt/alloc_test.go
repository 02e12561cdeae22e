// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package ckpt

import "testing"

// Once every slot exists, a round of full commits, a round of deltas and
// a round of refreshes allocate nothing: each commit rewrites the slot's
// two resident generations in place.
func TestCommitRoundAllocsZero(t *testing.T) {
	e := newEngine(t, 8, 2)
	p := e.Placement()
	iter := int64(1)
	checkpointAll(e, iter)
	allocs := testing.AllocsPerRun(100, func() {
		iter++
		checkpointAll(e, iter)
		iter++
		for owner := 0; owner < p.N; owner++ {
			for _, holder := range p.Replicas(owner) {
				e.CommitDelta(holder, owner, iter, shardSize/4)
			}
		}
		iter++
		for owner := 0; owner < p.N; owner++ {
			for _, holder := range p.Replicas(owner) {
				e.Refresh(holder, owner, iter)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("commit round allocates %v times, want 0", allocs)
	}
}
