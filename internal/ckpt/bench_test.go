package ckpt

import (
	"fmt"
	"testing"

	"gemini/internal/placement"
)

// benchEngine builds a fully checkpointed n-machine engine with one
// hardware failure (rank 0 wiped), so PlanRecovery exercises both the
// local and remote-CPU paths.
func benchEngine(n int) (*Engine, func(int) bool) {
	e := MustNewEngine(placement.MustMixed(n, 2), shardSize)
	checkpointAll(e, 100)
	e.Wipe(0)
	return e, allAlive
}

// An inconsistent version's error names the lowest rank that has no
// alive holder.
func TestPlanRecoveryDeterministicError(t *testing.T) {
	e, _ := benchEngine(64)
	// Kill ranks 3 and 7 with all their replica holders: every dead rank
	// is unplannable, and the error must name the lowest.
	dead := map[int]bool{3: true, 7: true}
	for _, r := range []int{3, 7} {
		for _, h := range e.Placement().Replicas(r) {
			dead[h] = true
		}
	}
	lowest := 3
	for r := range dead {
		lowest = min(lowest, r)
	}
	alive := func(r int) bool { return !dead[r] }
	_, err := e.PlanRecovery(100, alive)
	want := fmt.Sprintf("ckpt: version 100 not consistent: rank %d has no alive holder", lowest)
	if err == nil || err.Error() != want {
		t.Fatalf("err %v, want %q", err, want)
	}
}

func BenchmarkPlanRecovery(b *testing.B) {
	for _, n := range []int{64, 1024, 4096} {
		e, alive := benchEngine(n)
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.PlanRecovery(100, alive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConsistentVersion(b *testing.B) {
	for _, n := range []int{64, 1024} {
		e, alive := benchEngine(n)
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := e.ConsistentVersion(alive); !ok {
					b.Fatal("no consistent version")
				}
			}
		})
	}
}
