package ckpt

import (
	"testing"
	"testing/quick"

	"gemini/internal/placement"
)

const shardSize = 1000.0

func newEngine(t *testing.T, n, m int) *Engine {
	t.Helper()
	return MustNewEngine(placement.MustMixed(n, m), shardSize)
}

// checkpointAll runs a full checkpoint of the given iteration: every
// owner's shard lands committed on every machine in its replica set.
func checkpointAll(e *Engine, iteration int64) {
	p := e.Placement()
	for owner := 0; owner < p.N; owner++ {
		for _, holder := range p.Replicas(owner) {
			e.Commit(holder, owner, iteration, 0)
		}
	}
}

func allAlive(int) bool { return true }

func TestCheckpointCommitAndConsistency(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 100)
	v, ok := e.ConsistentVersion(allAlive)
	if !ok || v != 100 {
		t.Fatalf("consistent version %d/%v, want 100/true", v, ok)
	}
	checkpointAll(e, 101)
	v, ok = e.ConsistentVersion(allAlive)
	if !ok || v != 101 {
		t.Fatalf("consistent version %d/%v after second checkpoint, want 101", v, ok)
	}
}

func TestMisroutedShardPanics(t *testing.T) {
	e := newEngine(t, 4, 2) // groups {0,1}, {2,3}
	checkpointAll(e, 1)
	// Machine 2 does not hold rank 0's shard, under any commit kind.
	for name, commit := range map[string]func(){
		"Commit":      func() { e.Commit(2, 0, 2, 0) },
		"CommitDelta": func() { e.CommitDelta(2, 0, 2, shardSize/4) },
		"Refresh":     func() { e.Refresh(2, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("misrouted %s did not panic", name)
				}
			}()
			commit()
		}()
	}
}

func TestStaleCommitPanics(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("Commit at an old iteration did not panic")
		}
	}()
	e.Commit(0, 0, 10, 0)
}

func TestWipeLosesShards(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 100)
	e.Wipe(1)
	if _, ok := e.Completed(1, 0); ok {
		t.Fatal("wiped machine still holds shards")
	}
	// Rank 0's shard survives on machine 0 (its own local copy) so the
	// version remains consistent with machine 1 alive-but-empty.
	v, ok := e.ConsistentVersion(allAlive)
	if !ok || v != 100 {
		t.Fatalf("version %d/%v after single wipe, want 100", v, ok)
	}
	// Wiping the whole group {0,1} loses rank 0 and 1's shards entirely.
	e.Wipe(0)
	if _, ok := e.ConsistentVersion(allAlive); ok {
		t.Fatal("version still consistent after losing a whole group")
	}
}

func TestConsistencyRequiresSameIterationEverywhere(t *testing.T) {
	// §6.2 case 2: survivors at mixed iterations are useless.
	e := newEngine(t, 4, 2)
	checkpointAll(e, 100)
	// Advance only rank 0/1's group to 101.
	for _, owner := range []int{0, 1} {
		for _, holder := range e.Placement().Replicas(owner) {
			e.Commit(holder, owner, 101, 0)
		}
	}
	v, ok := e.ConsistentVersion(allAlive)
	if !ok || v != 100 {
		t.Fatalf("version %d/%v with mixed iterations, want 100 (both groups hold 100)", v, ok)
	}
}

func TestConsistentVersionWithDeadMachines(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 50)
	dead := map[int]bool{1: true}
	alive := func(r int) bool { return !dead[r] }
	e.Wipe(1)
	v, ok := e.ConsistentVersion(alive)
	if !ok || v != 50 {
		t.Fatalf("version %d/%v with one dead machine, want 50", v, ok)
	}
	// Kill the whole group.
	dead[0] = true
	e.Wipe(0)
	if _, ok := e.ConsistentVersion(alive); ok {
		t.Fatal("group loss should break CPU-memory consistency")
	}
}

func TestDoubleBufferHoldsTwoGenerationsUntilNextCommit(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 1)
	checkpointAll(e, 2)
	// Between Commit(2) and Commit(3), both generations are resident.
	versions := e.CompletedVersions(0, 0)
	if len(versions) != 2 || versions[0].Iteration != 2 || versions[1].Iteration != 1 {
		t.Fatalf("resident versions %+v, want [2 1]", versions)
	}
	// Commit(3) reclaims the buffer holding generation 1.
	e.Commit(0, 0, 3, 0)
	versions = e.CompletedVersions(0, 0)
	if len(versions) != 2 || versions[0].Iteration != 3 || versions[1].Iteration != 2 {
		t.Fatalf("after Commit(3) versions %+v, want [3 2]", versions)
	}
}

func TestConsistentVersionDuringStaggeredCommits(t *testing.T) {
	// The window the double buffer exists for: half the cluster has
	// committed v+1, half has not yet. A consistent version (v) must
	// still exist.
	e := newEngine(t, 4, 2)
	checkpointAll(e, 10)
	// Only group {0,1} commits 11.
	for _, owner := range []int{0, 1} {
		for _, holder := range e.Placement().Replicas(owner) {
			e.Commit(holder, owner, 11, 0)
		}
	}
	v, ok := e.ConsistentVersion(allAlive)
	if !ok || v != 10 {
		t.Fatalf("staggered commit: version %d/%v, want 10", v, ok)
	}
	// The rest commits: 11 becomes consistent.
	for _, owner := range []int{2, 3} {
		for _, holder := range e.Placement().Replicas(owner) {
			e.Commit(holder, owner, 11, 0)
		}
	}
	v, ok = e.ConsistentVersion(allAlive)
	if !ok || v != 11 {
		t.Fatalf("after all commits: version %d/%v, want 11", v, ok)
	}
}

func TestPlanRecoverySoftwareFailure(t *testing.T) {
	// All machines alive with local shards: everyone recovers locally.
	e := newEngine(t, 4, 2)
	checkpointAll(e, 7)
	plan, err := e.PlanRecovery(7, allAlive)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("plan has %d entries, want 4", len(plan))
	}
	for _, r := range plan {
		if r.Source != SourceLocal || r.Bytes != 0 {
			t.Fatalf("rank %d plan %+v, want local", r.Rank, r)
		}
	}
}

func TestPlanRecoveryHardwareCase1(t *testing.T) {
	// Machine 1 replaced: its slot is wiped, it fetches from its group
	// peer machine 0 (Fig. 6c).
	e := newEngine(t, 4, 2)
	checkpointAll(e, 7)
	e.Wipe(1)
	plan, err := e.PlanRecovery(7, allAlive)
	if err != nil {
		t.Fatal(err)
	}
	var r1 Retrieval
	for _, r := range plan {
		if r.Rank == 1 {
			r1 = r
		} else if r.Source != SourceLocal {
			t.Fatalf("rank %d should recover locally, got %+v", r.Rank, r)
		}
	}
	if r1.Source != SourceRemoteCPU || r1.Peer != 0 || r1.Bytes != shardSize {
		t.Fatalf("replaced machine plan %+v, want remote fetch from peer 0", r1)
	}
}

func TestPlanRecoveryFailsWhenNotConsistent(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 7)
	e.Wipe(0)
	e.Wipe(1) // whole group gone
	if _, err := e.PlanRecovery(7, allAlive); err == nil {
		t.Fatal("recovery planned for an inconsistent version")
	}
}

func TestPersistentPlan(t *testing.T) {
	e := newEngine(t, 3, 2)
	plan := e.PersistentPlan()
	if len(plan) != 3 {
		t.Fatalf("plan has %d entries", len(plan))
	}
	for i, r := range plan {
		if r.Rank != i || r.Source != SourcePersistent || r.Bytes != shardSize {
			t.Fatalf("entry %d = %+v", i, r)
		}
	}
}

// Each machine's CPU memory holds two buffers (completed + previous
// generation) for each of the m shards it stores.
func TestCPUMemoryRequirement(t *testing.T) {
	e := newEngine(t, 4, 2)
	for it := int64(1); it <= 3; it++ {
		checkpointAll(e, it)
	}
	for holder := 0; holder < 4; holder++ {
		var bytes float64
		for owner := 0; owner < 4; owner++ {
			for _, sh := range e.CompletedVersions(holder, owner) {
				bytes += sh.Bytes
			}
		}
		if bytes != 2*2*shardSize {
			t.Fatalf("machine %d holds %v bytes, want %v (2 buffers × m=2 shards)", holder, bytes, 2*2*shardSize)
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(placement.MustMixed(4, 2), -1); err == nil {
		t.Fatal("negative shard size accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewEngine on bad args did not panic")
		}
	}()
	MustNewEngine(placement.MustMixed(4, 2), -5)
}

func TestSourceString(t *testing.T) {
	names := map[Source]string{
		SourceLocal: "local-cpu", SourceRemoteCPU: "remote-cpu",
		SourcePersistent: "persistent", Source(9): "Source(9)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: after checkpointing iterations 1..k and wiping a random set
// of machines, ConsistentVersion is k iff the placement survives that
// failure set, and any consistent version always yields a valid recovery
// plan whose remote fetches name alive holders.
func TestPropertyConsistencyMatchesPlacementSurvival(t *testing.T) {
	f := func(nRaw, mRaw uint8, failMask uint16) bool {
		n := int(nRaw%6) + 3
		m := 2 + int(mRaw%2)
		if m > n {
			m = n
		}
		p := placement.MustMixed(n, m)
		e := MustNewEngine(p, 100)
		for iter := int64(1); iter <= 3; iter++ {
			checkpointAll(e, iter)
		}
		failed := make(map[int]bool)
		for r := 0; r < n; r++ {
			if failMask&(1<<uint(r)) != 0 {
				failed[r] = true
				e.Wipe(r)
			}
		}
		alive := func(r int) bool { return !failed[r] }
		v, ok := e.ConsistentVersion(alive)
		if p.Survives(failed) != ok {
			return false
		}
		if !ok {
			return true
		}
		if v != 3 {
			return false
		}
		plan, err := e.PlanRecovery(v, alive)
		if err != nil || len(plan) != n {
			return false
		}
		for _, r := range plan {
			switch r.Source {
			case SourceLocal:
				if failed[r.Rank] {
					return false
				}
			case SourceRemoteCPU:
				if failed[r.Peer] || r.Peer == r.Rank {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Coverage is the health monitor's view of Theorem 1: covered tracks
// data survival (owners with a committed copy on an alive machine),
// minReplicas tracks redundancy capacity (alive holders per owner) — the
// two degrade independently, and the gauges must show both.
func TestCoverageReactsToFailures(t *testing.T) {
	e := newEngine(t, 4, 2) // groups {0,1}, {2,3}

	// Before any checkpoint: no data anywhere, full redundancy.
	covered, minReplicas := e.Coverage(allAlive)
	if covered != 0 || minReplicas != 2 {
		t.Fatalf("fresh engine: covered=%d minReplicas=%d, want 0/2", covered, minReplicas)
	}

	checkpointAll(e, 100)
	covered, minReplicas = e.Coverage(allAlive)
	if covered != 4 || minReplicas != 2 {
		t.Fatalf("after checkpoint: covered=%d minReplicas=%d, want 4/2", covered, minReplicas)
	}

	// One machine down: every shard still survives somewhere, but the
	// group that lost a member is one failure from data loss.
	oneDown := func(r int) bool { return r != 1 }
	covered, minReplicas = e.Coverage(oneDown)
	if covered != 4 || minReplicas != 1 {
		t.Fatalf("one down: covered=%d minReplicas=%d, want 4/1", covered, minReplicas)
	}

	// The whole group {0,1} down: ranks 0 and 1 lose their shards.
	groupDown := func(r int) bool { return r >= 2 }
	covered, minReplicas = e.Coverage(groupDown)
	if covered != 2 || minReplicas != 0 {
		t.Fatalf("group down: covered=%d minReplicas=%d, want 2/0", covered, minReplicas)
	}
}

func TestCoverageSeesOnlyCommittedData(t *testing.T) {
	e := newEngine(t, 4, 2)
	if covered, _ := e.Coverage(allAlive); covered != 0 {
		t.Fatalf("fresh engine: covered=%d, want 0", covered)
	}
	e.Commit(0, 0, 1, 0)
	if covered, _ := e.Coverage(allAlive); covered != 1 {
		t.Fatalf("after commit: covered=%d, want 1", covered)
	}
	// A wiped holder no longer contributes data, even while alive.
	e.Wipe(0)
	if covered, _ := e.Coverage(allAlive); covered != 0 {
		t.Fatalf("after wipe: covered=%d, want 0", covered)
	}
}

// NewestCommitted backs the per-machine staleness gauge: it must track
// the newest surviving generation, skipping dead holders.
func TestNewestCommitted(t *testing.T) {
	e := newEngine(t, 4, 2)
	if _, ok := e.NewestCommitted(0, allAlive); ok {
		t.Fatal("fresh engine reported a committed generation")
	}
	checkpointAll(e, 100)
	if v, ok := e.NewestCommitted(0, allAlive); !ok || v != 100 {
		t.Fatalf("NewestCommitted = %d/%v, want 100/true", v, ok)
	}
	// Commit 101 only on holder 1; the owner-wide newest advances.
	e.Commit(1, 0, 101, 0)
	if v, ok := e.NewestCommitted(0, allAlive); !ok || v != 101 {
		t.Fatalf("after partial 101: NewestCommitted = %d/%v, want 101/true", v, ok)
	}
	// With holder 1 dead the newest surviving generation is back to 100.
	oneDown := func(r int) bool { return r != 1 }
	if v, ok := e.NewestCommitted(0, oneDown); !ok || v != 100 {
		t.Fatalf("holder 1 dead: NewestCommitted = %d/%v, want 100/true", v, ok)
	}
	// With the whole replica group dead there is nothing left.
	groupDown := func(r int) bool { return r >= 2 }
	if _, ok := e.NewestCommitted(0, groupDown); ok {
		t.Fatal("NewestCommitted found data with every holder dead")
	}
}
