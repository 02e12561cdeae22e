package agent

import (
	"reflect"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/statemgr"
	"gemini/internal/tensor"
)

// Data-plane integration: the live control plane moves real shard bytes
// through every recovery path, fingerprint-verified. The recovery
// workflow panics on any integrity violation, so these tests assert the
// end state; a verification failure would abort the run loudly.

const dpShard = 4096

func newDataPlaneFixture(t *testing.T, n, m int) *fixture {
	t.Helper()
	return newDPShardFixture(t, n, m, testSpec, DefaultOptions(), cloud.DefaultConfig(), true)
}

// newDPShardFixture builds a system whose checkpoint engine tracks
// dpShard-byte shards, with the data plane attached when dataPlane is
// set, so runs with and without it are otherwise identical.
func newDPShardFixture(t *testing.T, n, m int, spec func(int, float64) baselines.Spec,
	opts Options, cloudCfg cloud.Config, dataPlane bool) *fixture {
	t.Helper()
	f := newSpecFixture(t, n, m, dpShard, spec, opts, cloudCfg)
	if dataPlane {
		f.sys.SetDataPlane(statemgr.MustNew(f.ck.Placement(), dpShard, 77))
	}
	return f
}

// runUntilRecovered steps the run until its first recovery completes —
// before the next iteration commits over the restored replicas.
func runUntilRecovered(t *testing.T, f *fixture) {
	t.Helper()
	for f.sys.Recoveries() == 0 {
		if !f.engine.Step() {
			t.Fatal("run ended before a recovery completed")
		}
	}
}

// checkStoredFingerprints checks every committed shard the tracker
// holds: its fingerprint is nonzero and is that of the canonical content
// at its iteration, and the holder's CPU store has those bytes (a
// recovery through that replica verifies). The recoveries rewrite live
// state, so this ends the run.
func checkStoredFingerprints(t *testing.T, f *fixture) {
	t.Helper()
	p := f.ck.Placement()
	checked := 0
	for owner := 0; owner < p.N; owner++ {
		for _, holder := range p.Replicas(owner) {
			for _, sh := range f.ck.CompletedVersions(holder, owner) {
				want := tensor.NewSyntheticState(sh.Iteration, owner, dpShard, 77).Fingerprint()
				if sh.Fingerprint == 0 || sh.Fingerprint != want {
					t.Errorf("machine %d's shard of rank %d at iteration %d records fingerprint %#x, want %#x",
						holder, owner, sh.Iteration, sh.Fingerprint, want)
				}
				r := ckpt.Retrieval{Rank: owner, Source: ckpt.SourceLocal}
				if holder != owner {
					r = ckpt.Retrieval{Rank: owner, Source: ckpt.SourceRemoteCPU, Peer: holder}
				}
				if err := f.sys.data.Recover(f.ck, []ckpt.Retrieval{r}, sh.Iteration); err != nil {
					t.Errorf("stored replica %+v at iteration %d: %v", r, sh.Iteration, err)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("tracker holds no committed shard")
	}
}

// Replicas a recovery reseeds carry the fingerprint of the bytes the
// data plane stored for them, after a peer retrieval and after a
// remote fallback alike.
func TestDataPlaneReseededReplicasCarryFingerprints(t *testing.T) {
	t.Run("hardware", func(t *testing.T) {
		f := newDataPlaneFixture(t, 4, 2)
		f.sys.Start()
		f.engine.At(simclock.Time(4*iterTime+10), func() {
			f.sys.InjectFailure(1, cluster.HardwareFailed)
		})
		runUntilRecovered(t, f)
		if ev := f.sys.WastedEvents()[0]; ev.Source != "peer" {
			t.Fatalf("recovered from %s, want peer", ev.Source)
		}
		checkStoredFingerprints(t, f)
	})
	t.Run("whole-group", func(t *testing.T) {
		f := newDataPlaneFixture(t, 4, 2)
		f.sys.SetRemoteEvery(10)
		f.sys.Start()
		f.engine.At(simclock.Time(25*iterTime+10), func() {
			f.sys.InjectFailure(2, cluster.HardwareFailed)
			f.sys.InjectFailure(3, cluster.HardwareFailed)
		})
		runUntilRecovered(t, f)
		if ev := f.sys.WastedEvents()[0]; ev.Source != "remote" {
			t.Fatalf("recovered from %s, want remote", ev.Source)
		}
		checkStoredFingerprints(t, f)
	})
}

// Attaching the data plane changes no control-plane decision: the
// outcome golden's fault ladder under gemini gives the same run log,
// wasted-time ledger and traffic with and without it.
func TestDataPlaneLeavesDecisionsUnchanged(t *testing.T) {
	sc := outcomeScenarios()[0]
	run := func(dataPlane bool) *fixture {
		f := newDPShardFixture(t, 16, 2, sc.spec, sc.opts, sc.cloud, dataPlane)
		f.sys.SetRemoteEvery(10)
		sc.arm(f)
		f.sys.Start()
		f.engine.Run(sc.horizon)
		return f
	}
	plain, data := run(false), run(true)
	if plain.sys.Recoveries() == 0 {
		t.Fatal("the ladder ran no recovery")
	}
	if !reflect.DeepEqual(plain.log().Instants(), data.log().Instants()) {
		t.Error("run logs differ with the data plane attached")
	}
	if !reflect.DeepEqual(plain.sys.WastedEvents(), data.sys.WastedEvents()) {
		t.Errorf("wasted events differ:\n%+v\n%+v", plain.sys.WastedEvents(), data.sys.WastedEvents())
	}
	if plain.sys.Traffic() != data.sys.Traffic() {
		t.Errorf("traffic %+v without the data plane, %+v with it", plain.sys.Traffic(), data.sys.Traffic())
	}
	if err := data.sys.data.VerifyConsistent(data.sys.Iteration()); err != nil {
		t.Errorf("data plane after the ladder: %v", err)
	}
}

func TestDataPlaneHealthyTraining(t *testing.T) {
	f := newDataPlaneFixture(t, 4, 2)
	f.sys.Start()
	f.engine.Run(simclock.Time(8*iterTime + 5))
	if f.sys.Iteration() != 8 {
		t.Fatalf("iteration %d, want 8", f.sys.Iteration())
	}
	if err := f.sys.data.VerifyConsistent(8); err != nil {
		t.Fatalf("live state inconsistent: %v", err)
	}
}

func TestDataPlaneSoftwareRecoveryVerifiesBytes(t *testing.T) {
	f := newDataPlaneFixture(t, 4, 2)
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.SoftwareFailed)
	})
	f.engine.Run(simclock.Time(40 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	// Training resumed past the rollback point and the data plane agrees
	// with the control plane's iteration counter.
	if err := f.sys.data.VerifyConsistent(f.sys.Iteration()); err != nil {
		t.Fatalf("post-recovery state: %v", err)
	}
}

func TestDataPlaneHardwareRecoveryVerifiesBytes(t *testing.T) {
	f := newDataPlaneFixture(t, 4, 2)
	f.sys.Start()
	f.engine.At(simclock.Time(4*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(50 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	if err := f.sys.data.VerifyConsistent(f.sys.Iteration()); err != nil {
		t.Fatalf("post-recovery state: %v", err)
	}
	if f.clus.Machine(1).Incarnation != 1 {
		t.Fatal("machine not replaced")
	}
}

func TestDataPlaneGroupLossRemoteFallbackVerifiesBytes(t *testing.T) {
	f := newDataPlaneFixture(t, 4, 2)
	f.sys.SetRemoteEvery(10)
	f.sys.Start()
	f.engine.At(simclock.Time(25*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(70 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	rec, ok := f.log().Last("recovery-complete")
	if !ok {
		t.Fatal("no recovery")
	}
	_ = rec
	// The fallback loaded the remote tier (iteration 20) and training
	// moved on; bytes must still verify at the current iteration.
	if err := f.sys.data.VerifyConsistent(f.sys.Iteration()); err != nil {
		t.Fatalf("post-fallback state: %v", err)
	}
	if f.sys.Iteration() <= 20 {
		t.Fatalf("training did not progress past the fallback point: %d", f.sys.Iteration())
	}
}

func TestSetDataPlaneRejectsMismatch(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched data plane accepted")
		}
	}()
	f.sys.SetDataPlane(statemgr.MustNew(placement.MustMixed(6, 2), dpShard, 1))
}
