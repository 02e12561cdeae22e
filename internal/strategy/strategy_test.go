package strategy

import (
	"reflect"
	"testing"

	"gemini/internal/ckpt"
	"gemini/internal/placement"
	"gemini/internal/simclock"
)

// testEnv builds a bound Env over a fresh n-machine engine with m
// replicas and unit-free shard size.
func testEnv(t *testing.T, n, m int) (Env, *ckpt.Engine) {
	t.Helper()
	p := placement.MustMixed(n, m)
	ck := ckpt.MustNewEngine(p, 100)
	return Env{
		Ckpt:          ck,
		Placement:     p,
		IterationTime: 60 * simclock.Second,
		Emit:          func(event, detail string) {},
	}, ck
}

// applyPlan executes a commit plan against the engine the way the agent
// does.
func applyPlan(ck *ckpt.Engine, plan []Commit, iter int64) {
	for _, c := range plan {
		switch c.Kind {
		case CommitFull:
			ck.Commit(c.Holder, c.Owner, iter, 0)
		case CommitDelta:
			ck.CommitDelta(c.Holder, c.Owner, iter, c.Bytes)
		case CommitRefresh:
			ck.Refresh(c.Holder, c.Owner, iter)
		}
	}
}

func allHealthy(int) bool { return true }

func TestRegistryNamesAndLookup(t *testing.T) {
	want := []string{"adaptive", "gemini", "sparse", "tiered"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i, name := range want {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
		if Index(name) != i {
			t.Errorf("Index(%q) = %d, want %d", name, Index(name), i)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("New(nope) succeeded; want error listing registered names")
	}
	if Index("nope") != -1 {
		t.Errorf("Index(nope) = %d, want -1", Index("nope"))
	}
	// Fresh instances each time: strategies are stateful and single-run.
	a, b := MustNew("tiered"), MustNew("tiered")
	if a == b {
		t.Fatal("New returned the same instance twice")
	}
}

// Every strategy's replication walk — gemini each iteration, tiered on
// its CPU grid, sparse on its first (all-full) round — commits full
// shards in owner-major placement order, and an unhealthy rank drops out
// both as owner and as holder.
func TestPlanCommitMatchesPlacementOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		iter int64
	}{
		{"gemini", 1},
		{"tiered", tieredCPUEvery},
		{"sparse", 1},
	} {
		for _, down := range []int{-1, 1} {
			env, _ := testEnv(t, 4, 2)
			s := MustNew(tc.name)
			s.Bind(env)
			healthy := func(rank int) bool { return rank != down }
			var want []Commit
			for owner := 0; owner < 4; owner++ {
				for _, holder := range env.Placement.Replicas(owner) {
					if owner != down && holder != down {
						want = append(want, Commit{Holder: holder, Owner: owner, Kind: CommitFull})
					}
				}
			}
			if got := s.PlanCommit(tc.iter, healthy); !reflect.DeepEqual(got, want) {
				t.Errorf("%s at iteration %d with rank %d down: commit order diverged from placement order:\n got %v\nwant %v",
					tc.name, tc.iter, down, got, want)
			}
		}
	}
}

func TestGeminiRecoveryLadder(t *testing.T) {
	env, ck := testEnv(t, 4, 2)
	g := NewGemini()
	g.Bind(env)
	applyPlan(ck, g.PlanCommit(1, allHealthy), 1)

	rec := g.PlanRecovery(RecoveryContext{Reachable: allHealthy, Surviving: allHealthy})
	if rec.Tier != TierMemory || rec.Version != 1 || len(rec.Plan) != 4 {
		t.Fatalf("want memory-tier recovery of version 1 for all 4 ranks, got %+v", rec)
	}
	// Nothing reachable but data survives → retryable remote fallback.
	none := func(int) bool { return false }
	rec = g.PlanRecovery(RecoveryContext{Reachable: none, Surviving: allHealthy, RemoteVersion: 0})
	if rec.Tier != TierRemote || !rec.Retryable {
		t.Fatalf("partitioned survivors should yield a retryable remote fallback, got %+v", rec)
	}
	// Data truly gone → remote, not retryable.
	rec = g.PlanRecovery(RecoveryContext{Reachable: none, Surviving: none, RemoteVersion: 0})
	if rec.Tier != TierRemote || rec.Retryable {
		t.Fatalf("wiped cluster should yield a non-retryable remote fallback, got %+v", rec)
	}
}

func TestTieredGPUFastPath(t *testing.T) {
	env, ck := testEnv(t, 4, 2)
	tr := NewTiered()
	tr.Bind(env)

	// Iterations 1..7: GPU snapshots only, no CPU traffic.
	for iter := int64(1); iter < tieredCPUEvery; iter++ {
		plan := tr.PlanCommit(iter, allHealthy)
		if len(plan) != 0 {
			t.Fatalf("iteration %d: tiered committed to CPU off the cadence: %v", iter, plan)
		}
		applyPlan(ck, plan, iter)
	}
	// A software failure now: GPU tier serves, serialize is skipped.
	if tr.SerializeNeeded(false) {
		t.Error("software failure with resident GPU snapshots still wants the serialize stall")
	}
	rec := tr.PlanRecovery(RecoveryContext{Reachable: allHealthy, Surviving: allHealthy})
	if rec.Tier != TierGPU || rec.Version != 7 {
		t.Fatalf("want GPU-tier recovery at iteration 7, got %+v", rec)
	}
	// Iteration 8 is on the CPU cadence.
	plan := tr.PlanCommit(8, allHealthy)
	if len(plan) == 0 {
		t.Fatal("iteration 8: tiered skipped its CPU cadence")
	}
	applyPlan(ck, plan, 8)

	// A hardware failure wipes rank 1's GPU buffers: serialize returns,
	// recovery falls to the CPU tier.
	tr.OnFailure(1, true)
	if !tr.SerializeNeeded(true) {
		t.Error("hardware failure skipped the serialize stall")
	}
	surviving := func(rank int) bool { return rank != 1 }
	rec = tr.PlanRecovery(RecoveryContext{Hardware: true, Reachable: surviving, Surviving: surviving})
	if rec.Tier != TierMemory || rec.Version != 8 {
		t.Fatalf("want CPU-tier recovery at iteration 8, got %+v", rec)
	}

	// After a rollback, newer GPU snapshots must be dropped.
	tr.OnRecovered(Outcome{Version: 8})
	if _, ok := tr.gpuVersion(); ok {
		t.Error("GPU snapshots newer than the resumed version survived OnRecovered")
	}
	// OnActivate resets the tier outright (adaptive switched in).
	tr.PlanCommit(9, allHealthy)
	tr.OnActivate(9)
	if !tr.SerializeNeeded(false) {
		t.Error("freshly activated tiered trusted stale GPU buffers")
	}
}

func TestSparseDeltaRefreshAndResync(t *testing.T) {
	env, ck := testEnv(t, 4, 2)
	sp := NewSparse()
	sp.Bind(env)

	// First iteration: no committed copies anywhere → all full.
	plan := sp.PlanCommit(1, allHealthy)
	for _, c := range plan {
		if c.Kind != CommitFull {
			t.Fatalf("iteration 1 commit %v should be full (no base)", c)
		}
	}
	applyPlan(ck, plan, 1)

	// Steady state: touched owners delta, the rest refresh.
	plan = sp.PlanCommit(2, allHealthy)
	kinds := map[CommitKind]int{}
	for _, c := range plan {
		kinds[c.Kind]++
		wantTouched := (2+int64(c.Owner))%sparseTouchPeriod == 0
		if wantTouched && c.Kind != CommitDelta {
			t.Fatalf("touched owner %d got %v, want delta", c.Owner, c.Kind)
		}
		if !wantTouched && c.Kind != CommitRefresh {
			t.Fatalf("untouched owner %d got %v, want refresh", c.Owner, c.Kind)
		}
		if c.Kind == CommitDelta && c.Bytes != sparseDeltaFraction*ck.ShardBytes() {
			t.Fatalf("delta bytes %v, want %v", c.Bytes, sparseDeltaFraction*ck.ShardBytes())
		}
	}
	if kinds[CommitFull] != 0 || kinds[CommitDelta] == 0 || kinds[CommitRefresh] == 0 {
		t.Fatalf("iteration 2 kind mix %v, want deltas and refreshes only", kinds)
	}
	applyPlan(ck, plan, 2)
	if v, ok := ck.ConsistentVersion(nil); !ok || v != 2 {
		t.Fatalf("after delta+refresh round, consistent version = %d (%v), want 2", v, ok)
	}

	// A holder that missed a round (gap) takes a full resync.
	ck.Wipe(0)
	plan = sp.PlanCommit(3, allHealthy)
	for _, c := range plan {
		if c.Holder == 0 && c.Kind != CommitFull {
			t.Fatalf("wiped holder 0 got %v for owner %d, want full resync", c.Kind, c.Owner)
		}
	}

	// Recovery charges the delta-replay cost on every tier.
	rec := sp.PlanRecovery(RecoveryContext{Reachable: allHealthy, Surviving: allHealthy})
	if rec.ReplayTime != sparseReplay {
		t.Errorf("memory-tier replay %v, want %v", rec.ReplayTime, sparseReplay)
	}
	none := func(int) bool { return false }
	rec = sp.PlanRecovery(RecoveryContext{Reachable: none, Surviving: none})
	if rec.ReplayTime != sparseReplay {
		t.Errorf("remote-tier replay %v, want %v", rec.ReplayTime, sparseReplay)
	}
}

func TestAdaptiveDecisionRule(t *testing.T) {
	env, _ := testEnv(t, 4, 2)
	var switches []string
	env.Emit = func(event, detail string) {
		if event == "strategy-switch" {
			switches = append(switches, detail)
		}
	}
	a := NewAdaptive()
	a.Bind(env)
	if a.Active() != "gemini" {
		t.Fatalf("adaptive starts on %q, want gemini", a.Active())
	}

	// A burst of software failures 2 minutes apart → tiered.
	at := simclock.Time(0)
	for i := 0; i < 4; i++ {
		at = at.Add(2 * simclock.Minute)
		a.OnRecovered(Outcome{Resumed: at, Source: "local", Hardware: false})
	}
	a.PlanCommit(10, allHealthy)
	if a.Active() != "tiered" {
		t.Fatalf("software-dominated burst selected %q, want tiered", a.Active())
	}
	if len(switches) != 1 {
		t.Fatalf("switch events = %v, want exactly one", switches)
	}

	// Hardware takes over the window → gemini.
	for i := 0; i < 8; i++ {
		at = at.Add(2 * simclock.Minute)
		a.OnRecovered(Outcome{Resumed: at, Source: "peer", Hardware: true})
	}
	a.PlanCommit(20, allHealthy)
	if a.Active() != "gemini" {
		t.Fatalf("hardware-heavy burst selected %q, want gemini", a.Active())
	}

	// Failures spread out far beyond the quiet-MTBF threshold → sparse.
	for i := 0; i < 8; i++ {
		at = at.Add(10 * simclock.Hour)
		a.OnRecovered(Outcome{Resumed: at, Source: "local", Hardware: false})
	}
	a.PlanCommit(30, allHealthy)
	if a.Active() != "sparse" {
		t.Fatalf("quiet stretch selected %q, want sparse", a.Active())
	}
	if len(switches) != 3 {
		t.Fatalf("switch events = %d (%v), want 3", len(switches), switches)
	}
}

func TestAdaptiveDelegatesToActive(t *testing.T) {
	env, ck := testEnv(t, 4, 2)
	a := NewAdaptive()
	a.Bind(env)
	// On gemini: full commits every iteration.
	plan := a.PlanCommit(1, allHealthy)
	if len(plan) == 0 || plan[0].Kind != CommitFull {
		t.Fatalf("adaptive-on-gemini plan %v, want full commits", plan)
	}
	applyPlan(ck, plan, 1)
	if !a.SerializeNeeded(false) {
		t.Error("adaptive-on-gemini skipped the serialize stall")
	}
	rec := a.PlanRecovery(RecoveryContext{Reachable: allHealthy, Surviving: allHealthy})
	if rec.Tier != TierMemory || rec.Version != 1 {
		t.Fatalf("adaptive-on-gemini recovery %+v, want memory tier at 1", rec)
	}
}
