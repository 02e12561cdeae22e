// The allocation gate runs without the race detector: -race instruments
// allocations and would skew AllocsPerRun.
//go:build !race

package ckpt

import "testing"

// A round of full commits, a round of deltas and a round of refreshes
// allocate nothing, the very first round included: every slot lives in
// the engine's flat table from construction, and each commit rewrites
// its slot's two resident generations in place.
func TestCommitRoundAllocsZero(t *testing.T) {
	// AllocsPerRun makes one warm-up run before the measured ones, so
	// every run gets a fresh engine for its first round.
	const runs = 10
	fresh := make([]*Engine, runs+1)
	for i := range fresh {
		fresh[i] = newEngine(t, 8, 2)
	}
	next := 0
	first := testing.AllocsPerRun(runs, func() {
		checkpointAll(fresh[next], 1)
		next++
	})
	if first != 0 {
		t.Fatalf("first commit round allocates %v times, want 0", first)
	}
	e := fresh[0]
	p := e.Placement()
	iter := int64(1)
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

// The recovery queries read resident generations in place:
// ConsistentVersion, NewestCommitted and Coverage allocate nothing, and
// PlanRecovery allocates exactly the plan it returns. The engine has a
// wiped machine and a staggered last round, so ConsistentVersion
// rejects a candidate before it finds the answer, and the plan has both
// local and peer retrievals.
func TestRecoveryQueriesAllocsZero(t *testing.T) {
	e, alive := benchEngine(64)
	for _, owner := range []int{0, 1} {
		for _, holder := range e.Placement().Replicas(owner) {
			if holder != 0 {
				e.Commit(holder, owner, 101, 0)
			}
		}
	}
	var v int64
	var ok bool
	queries := []struct {
		name string
		fn   func()
	}{
		{"ConsistentVersion", func() { v, ok = e.ConsistentVersion(alive) }},
		{"ConsistentVersion(nil)", func() { v, ok = e.ConsistentVersion(nil) }},
		{"NewestCommitted", func() {
			for owner := range e.Placement().N {
				e.NewestCommitted(owner, alive)
			}
		}},
		{"Coverage", func() { e.Coverage(alive) }},
	}
	for _, q := range queries {
		if allocs := testing.AllocsPerRun(100, q.fn); allocs != 0 {
			t.Errorf("%s allocates %v times, want 0", q.name, allocs)
		}
	}
	if !ok || v != 100 {
		t.Fatalf("consistent version %d/%v, want 100/true", v, ok)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.PlanRecovery(v, alive); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("PlanRecovery allocates %v times, want 1 (the plan)", allocs)
	}
}
