package statemgr

import (
	"testing"
	"testing/quick"

	"gemini/internal/ckpt"
	"gemini/internal/placement"
)

const shardSize = 6 << 10

type fixture struct {
	p       *placement.Placement
	mgr     *Manager
	tracker *ckpt.Engine
	healthy map[int]bool
}

func newFixture(t *testing.T, n, m int) *fixture {
	t.Helper()
	p := placement.MustMixed(n, m)
	mgr, err := New(p, shardSize, 42)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f := &fixture{p: p, mgr: mgr, tracker: ckpt.MustNewEngine(p, shardSize), healthy: map[int]bool{}}
	for i := 0; i < n; i++ {
		f.healthy[i] = true
	}
	return f
}

func (f *fixture) isHealthy(rank int) bool { return f.healthy[rank] }

// train advances and checkpoints through the given iterations.
func (f *fixture) train(t *testing.T, from, to int64) {
	t.Helper()
	for iter := from; iter <= to; iter++ {
		f.mgr.Step(iter, f.isHealthy)
		if err := f.mgr.Checkpoint(f.tracker, iter, f.isHealthy); err != nil {
			t.Fatalf("Checkpoint(%d): %v", iter, err)
		}
	}
}

func TestTrainingAndVerify(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.train(t, 1, 5)
	if err := f.mgr.VerifyConsistent(5); err != nil {
		t.Fatal(err)
	}
	v, ok := f.tracker.ConsistentVersion(f.isHealthy)
	if !ok || v != 5 {
		t.Fatalf("tracker version %d/%v, want 5", v, ok)
	}
}

func TestSoftwareFailureByteExactLocalRecovery(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.train(t, 1, 7)
	// Software failure: processes die, memory survives; all machines
	// reload locally at the consistent version.
	v, ok := f.tracker.ConsistentVersion(f.isHealthy)
	if !ok {
		t.Fatal("no consistent version")
	}
	plan, err := f.tracker.PlanRecovery(v, f.isHealthy)
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the live states to prove recovery actually restores bytes.
	for rank := 0; rank < 4; rank++ {
		f.mgr.live[rank] = nil
	}
	if err := f.mgr.Recover(f.tracker, plan, v); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := f.mgr.VerifyConsistent(7); err != nil {
		t.Fatal(err)
	}
}

func TestHardwareFailurePeerRecoveryByteExact(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.train(t, 1, 9)
	// Machine 1's hardware dies: CPU store and live state gone.
	f.mgr.WipeMachine(1)
	f.tracker.Wipe(1)
	f.healthy[1] = false
	// Replacement arrives (healthy again, empty memory).
	f.healthy[1] = true
	hasMemory := func(rank int) bool { return rank != 1 }
	v, ok := f.tracker.ConsistentVersion(hasMemory)
	if !ok || v != 9 {
		t.Fatalf("version %d/%v, want 9", v, ok)
	}
	plan, err := f.tracker.PlanRecovery(v, hasMemory)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mgr.Recover(f.tracker, plan, v); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := f.mgr.VerifyConsistent(9); err != nil {
		t.Fatal(err)
	}
	// The replacement reseeded its own local replica: another immediate
	// software failure recovers locally.
	if _, ok := f.mgr.cpu[1].Get(ckptKey(1, v)); !ok {
		t.Fatal("peer recovery did not reseed the local replica")
	}
	// Training continues from v.
	f.train(t, v+1, v+3)
	if err := f.mgr.VerifyConsistent(v + 3); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteFallbackByteExact(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.train(t, 1, 4)
	if err := f.mgr.CheckpointRemote(4); err != nil {
		t.Fatal(err)
	}
	if f.mgr.RemoteIteration() != 4 {
		t.Fatal("remote iteration not recorded")
	}
	f.train(t, 5, 11)
	// Whole group {0,1} dies: CPU-memory recovery impossible.
	f.mgr.WipeMachine(0)
	f.mgr.WipeMachine(1)
	f.tracker.Wipe(0)
	f.tracker.Wipe(1)
	hasMemory := func(rank int) bool { return rank >= 2 }
	if _, ok := f.tracker.ConsistentVersion(hasMemory); ok {
		t.Fatal("group loss should break CPU-memory consistency")
	}
	// Fall back: everyone reloads the remote tier at iteration 4.
	f.tracker.RollbackTo(4)
	plan := f.tracker.PersistentPlan()
	if err := f.mgr.Recover(f.tracker, plan, 4); err != nil {
		t.Fatalf("remote Recover: %v", err)
	}
	if err := f.mgr.VerifyConsistent(4); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverDetectsCorruption(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.train(t, 1, 3)
	// Corrupt machine 0's stored copy of rank 1's shard, then force a
	// peer recovery of rank 1 from machine 0.
	obj, ok := f.mgr.cpu[0].Get(ckptKey(1, 3))
	if !ok {
		t.Fatal("expected stored shard")
	}
	obj.Payload.Tensors[0].Data[0] ^= 0xFF
	if err := f.mgr.cpu[0].Put(obj); err != nil {
		t.Fatal(err)
	}
	f.mgr.WipeMachine(1)
	// ckpt tracker still believes machine 0 holds a good copy; recovery
	// must catch the fingerprint mismatch.
	plan := []ckpt.Retrieval{{Rank: 1, Source: ckpt.SourceRemoteCPU, Peer: 0, Bytes: shardSize}}
	if err := f.mgr.Recover(f.tracker, plan, 3); err == nil {
		t.Fatal("corrupted shard passed fingerprint verification")
	}
}

func TestRecoverMissingShardFails(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.train(t, 1, 2)
	plan := []ckpt.Retrieval{{Rank: 0, Source: ckpt.SourceLocal}}
	if err := f.mgr.Recover(f.tracker, plan, 99); err == nil {
		t.Fatal("recovery of a nonexistent version succeeded")
	}
	planRemote := []ckpt.Retrieval{{Rank: 0, Source: ckpt.SourcePersistent}}
	if err := f.mgr.Recover(f.tracker, planRemote, 2); err == nil {
		t.Fatal("remote recovery without a remote checkpoint succeeded")
	}
}

func TestCheckpointRejectsStaleLiveState(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.mgr.Step(3, f.isHealthy)
	if err := f.mgr.Checkpoint(f.tracker, 4, f.isHealthy); err == nil {
		t.Fatal("checkpoint of mismatched iteration accepted")
	}
	if err := f.mgr.CheckpointRemote(4); err == nil {
		t.Fatal("remote checkpoint of mismatched iteration accepted")
	}
}

func TestDoubleBufferKeysRotate(t *testing.T) {
	// Generations alternate between two keys, so the CPU footprint stays
	// at two generations per owner.
	f := newFixture(t, 4, 2)
	f.train(t, 1, 20)
	store := f.mgr.cpu[0]
	// Machine 0 holds shards of its group {0,1}: 2 owners × 2 generations,
	// the newest two iterations.
	for owner := 0; owner < 4; owner++ {
		for _, iter := range []int64{19, 20} {
			obj, ok := store.Get(ckptKey(owner, iter))
			if want := owner < 2; ok != want || ok && obj.Iteration != iter {
				t.Fatalf("machine 0 holds owner %d iteration %d: %+v/%v, want %v", owner, iter, obj, ok, want)
			}
		}
	}
}

func TestAccessorsAndCorruptionHook(t *testing.T) {
	f := newFixture(t, 4, 2)
	if f.mgr.Placement().N != 4 {
		t.Fatal("Placement accessor wrong")
	}
	f.train(t, 1, 2)
	if live := f.mgr.Live(3); live == nil || live.Iteration != 2 {
		t.Fatalf("Live(3) = %+v", live)
	}
	// CorruptStoredShard flips bytes without touching other replicas.
	f.mgr.CorruptStoredShard(0, 1, 2)
	a, _ := f.mgr.cpu[0].Get(ckptKey(1, 2))
	b, _ := f.mgr.cpu[1].Get(ckptKey(1, 2))
	if a.Payload.Equal(b.Payload) {
		t.Fatal("corruption did not change the stored bytes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("corrupting a missing shard did not panic")
		}
	}()
	f.mgr.CorruptStoredShard(0, 1, 99)
}

func TestVerifyConsistentFailures(t *testing.T) {
	f := newFixture(t, 4, 2)
	f.train(t, 1, 3)
	if err := f.mgr.VerifyConsistent(2); err == nil {
		t.Fatal("wrong iteration accepted")
	}
	f.mgr.live[2] = nil
	if err := f.mgr.VerifyConsistent(3); err == nil {
		t.Fatal("nil live state accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(placement.MustMixed(4, 2), 0, 1); err == nil {
		t.Error("zero shard size accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad size did not panic")
		}
	}()
	MustNew(placement.MustMixed(4, 2), -1, 1)
}

// Property: for any failure pattern the placement survives, the recovery
// round-trip restores byte-exact state; for patterns it does not survive,
// the remote fallback does.
func TestPropertyRecoveryAlwaysByteExact(t *testing.T) {
	fn := func(nRaw, mRaw uint8, failMask uint8, itersRaw uint8) bool {
		n := int(nRaw%5) + 3
		m := 2 + int(mRaw%2)
		if m > n {
			m = n
		}
		p := placement.MustMixed(n, m)
		mgr := MustNew(p, 2048, 7)
		tracker := ckpt.MustNewEngine(p, 2048)
		last := int64(itersRaw%5) + 2
		for iter := int64(1); iter <= last; iter++ {
			mgr.Step(iter, nil)
			if err := mgr.Checkpoint(tracker, iter, nil); err != nil {
				return false
			}
		}
		if err := mgr.CheckpointRemote(last); err != nil {
			return false
		}
		failed := map[int]bool{}
		for r := 0; r < n; r++ {
			if failMask&(1<<uint(r)) != 0 {
				failed[r] = true
				mgr.WipeMachine(r)
				tracker.Wipe(r)
			}
		}
		hasMemory := func(r int) bool { return !failed[r] }
		if v, ok := tracker.ConsistentVersion(hasMemory); ok {
			plan, err := tracker.PlanRecovery(v, hasMemory)
			if err != nil {
				return false
			}
			tracker.RollbackTo(v)
			if err := mgr.Recover(tracker, plan, v); err != nil {
				return false
			}
			return mgr.VerifyConsistent(v) == nil
		}
		tracker.RollbackTo(last)
		if err := mgr.Recover(tracker, tracker.PersistentPlan(), last); err != nil {
			return false
		}
		return mgr.VerifyConsistent(last) == nil
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
