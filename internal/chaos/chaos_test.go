package chaos_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gemini/internal/agent"
	"gemini/internal/baselines"
	"gemini/internal/chaos"
	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

const iterTime = 60 * simclock.Second

func newSystem(t *testing.T, n, m int) (*simclock.Engine, *agent.System, *trace.Track) {
	t.Helper()
	engine := simclock.NewEngine()
	p4d := cluster.MustInstance("p4d.24xlarge")
	clus := cluster.MustNew(n, p4d)
	ck := ckpt.MustNewEngine(placement.MustMixed(n, m), 75e9)
	op := cloud.MustNewOperator(engine, cloud.Config{Standby: n, StandbyActivation: 10 * simclock.Second})
	// A short serialize stall keeps the scenarios fast.
	spec := baselines.Spec{
		Name:                "GEMINI",
		Interval:            iterTime,
		CompletionLag:       iterTime,
		SerializeOnRecovery: 10 * simclock.Second,
		RetrievalPeer:       simclock.Duration(ck.ShardBytes() / p4d.NetworkBytesPerSec),
		RetrievalRemote:     simclock.Duration(float64(n) * ck.ShardBytes() / baselines.DefaultRemoteBandwidth),
		UsesCPUMemory:       true,
		RemoteInterval:      baselines.RemoteCheckpointInterval,
	}
	opts := agent.DefaultOptions()
	opts.RetryBase = 2 * simclock.Second
	opts.RetryMax = 3
	sys, err := agent.NewSystem(engine, clus, ck, spec, op, opts)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return engine, sys, sys.Log()
}

// kindsInOrder returns, for each requested kind, the index of its first
// occurrence in the log, asserting presence.
func firstIndex(t *testing.T, log *trace.Track, kind string) int {
	t.Helper()
	for i, ev := range log.Instants() {
		if ev.Name == kind {
			return i
		}
	}
	t.Fatalf("no %q event in trace", kind)
	return -1
}

// The acceptance scenario: a partition during checkpointing plus a
// correlated two-machine group failure. The surviving replica holders
// are unreachable, so the root retries with backoff, exhausts its
// budget, and falls back down the hierarchy to remote persistent
// storage — all asserted end-to-end from the trace log.
func TestPartitionPlusCorrelatedFailureFallsBackToRemote(t *testing.T) {
	engine, sys, log := newSystem(t, 6, 2)
	// Groups are {0,1}, {2,3}, {4,5}: crash 2 and 4 (hardware, wiped),
	// partition away 3 and 5 (the only other holders of shards 2–5).
	at := simclock.Time(3*iterTime + 10)
	sched := chaos.NewBuilder().
		Partition(at, 4*simclock.Minute, 3, 5).
		CrashGroup(at, cluster.HardwareFailed, 2, 4).
		Build
	s, err := sched(6)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	sys.Start()
	sys.SetRemoteEvery(2)
	sys.Arm(s)
	engine.Run(simclock.Time(30 * iterTime))

	if sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", sys.Recoveries())
	}
	// Full causal order in the trace.
	iPart := firstIndex(t, log, "partition")
	iCorr := firstIndex(t, log, "correlated-failure")
	iDet := firstIndex(t, log, "failure-detected")
	iRetry := firstIndex(t, log, "retry-backoff")
	iFall := firstIndex(t, log, "fallback-remote")
	iRetr := firstIndex(t, log, "retrieved")
	iDone := firstIndex(t, log, "recovery-complete")
	if !(iPart < iCorr && iCorr < iDet && iDet < iRetry && iRetry < iFall && iFall < iRetr && iRetr < iDone) {
		t.Fatalf("trace out of order: partition=%d correlated=%d detected=%d retry=%d fallback=%d retrieved=%d complete=%d",
			iPart, iCorr, iDet, iRetry, iFall, iRetr, iDone)
	}
	if got := len(log.Filter("retry-backoff")); got != 3 {
		t.Fatalf("%d retry-backoff events, want RetryMax=3", got)
	}
	ret := log.Instants()[iRetr]
	if !strings.Contains(ret.Args, "from remote") {
		t.Fatalf("retrieved %q, want remote source", ret.Args)
	}
	heal := log.Filter("partition-heal")
	if len(heal) != 1 {
		t.Fatalf("%d partition-heal events, want 1", len(heal))
	}
	// After the heal, training is running again with every machine in.
	if !sys.Training() {
		t.Fatal("training did not resume")
	}
}

// Same fault pattern, but the partition heals while the root is still
// backing off: recovery completes via peer retrieval, never touching
// remote storage.
func TestPartitionHealDuringBackoffUsesPeers(t *testing.T) {
	engine, sys, log := newSystem(t, 6, 2)
	at := simclock.Time(3*iterTime + 10)
	s := chaos.NewBuilder().
		Partition(at, 40*simclock.Second, 3, 5).
		CrashGroup(at, cluster.HardwareFailed, 2, 4).
		MustBuild(6)
	sys.Start()
	sys.Arm(s)
	engine.Run(simclock.Time(30 * iterTime))

	if sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", sys.Recoveries())
	}
	if len(log.Filter("retry-backoff")) == 0 {
		t.Fatal("no retries before the heal")
	}
	if len(log.Filter("fallback-remote")) != 0 {
		t.Fatal("fell back to remote despite the heal")
	}
	ret, ok := log.Last("retrieved")
	if !ok || !strings.Contains(ret.Args, "from peer") {
		t.Fatalf("retrieved %+v, want peer source", ret)
	}
}

// A schedule mixing every event kind arms and runs without disturbing a
// healthy cluster (faults target the store and bandwidth only).
func TestBenignScheduleLeavesTrainingAlone(t *testing.T) {
	engine, sys, log := newSystem(t, 4, 2)
	s := chaos.NewBuilder().
		LeaseJitter(0, 2*simclock.Second).
		Straggler(simclock.Time(iterTime), 30*simclock.Second, 1, 0.5).
		KVOutage(simclock.Time(2*iterTime), 30*simclock.Second).
		MustBuild(4)
	sys.Start()
	sys.Arm(s)
	engine.Run(simclock.Time(10 * iterTime))

	if sys.Recoveries() != 0 {
		t.Fatalf("%d recoveries from benign faults, want 0", sys.Recoveries())
	}
	if got := sys.Iteration(); got != 10 {
		t.Fatalf("iteration %d, want 10", got)
	}
	for _, kind := range []string{"lease-jitter", "straggler", "straggler-end", "kv-outage", "kv-restore"} {
		if len(log.Filter(kind)) == 0 {
			t.Errorf("no %q event traced", kind)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		b    *chaos.Builder
	}{
		{"overlapping partitions", chaos.NewBuilder().Partition(0, 100, 1).Partition(50, 100, 2)},
		{"overlapping outages", chaos.NewBuilder().KVOutage(0, 100).KVOutage(50, 100)},
		{"rank out of range", chaos.NewBuilder().Crash(0, 99, cluster.SoftwareFailed)},
		{"bad factor", chaos.NewBuilder().Straggler(0, 10, 1, 1.5)},
		{"healthy crash kind", chaos.NewBuilder().Crash(0, 1, cluster.Healthy)},
		{"single-rank correlated", chaos.NewBuilder().CrashGroup(0, cluster.HardwareFailed, 1)},
		{"negative time", chaos.NewBuilder().Crash(-5, 1, cluster.SoftwareFailed)},
	}
	for _, tc := range cases {
		if _, err := tc.b.Build(4); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Sequential (non-overlapping) windows are fine, and so are
	// distinct ranks out of order.
	if _, err := chaos.NewBuilder().Partition(0, 10, 1).Partition(20, 10, 2).KVOutage(40, 5).Build(4); err != nil {
		t.Errorf("sequential windows rejected: %v", err)
	}
	if _, err := chaos.NewBuilder().CrashGroup(0, cluster.HardwareFailed, 3, 0, 2).Build(4); err != nil {
		t.Errorf("distinct unsorted ranks rejected: %v", err)
	}
}

// TestValidateNamesTheEntry: Build sorts by time before it validates,
// so an error names the Builder call the event came from (its
// Event.Entry), not its place in the sorted schedule.
func TestValidateNamesTheEntry(t *testing.T) {
	cases := []struct {
		name, want string
		b          *chaos.Builder
	}{
		{"nested partition", "chaos[2] (partition-start): opens a partition inside another partition window",
			chaos.NewBuilder().Crash(7200, 1, cluster.SoftwareFailed).Partition(3600, 7200, 2).Partition(5400, 600, 3)},
		{"overlapping stragglers", "chaos[2] (straggler-start): degrades rank 4",
			chaos.NewBuilder().Crash(7200, 1, cluster.SoftwareFailed).Straggler(3600, 3600, 4, 0.5).Straggler(5400, 600, 4, 0.5)},
		{"overlapping outages", "chaos[1] (kv-outage): opens a KV outage",
			chaos.NewBuilder().KVOutage(3600, 3600).KVOutage(5400, 600).Crash(0, 1, cluster.SoftwareFailed)},
		{"rank out of range", "chaos[1] (crash): rank 99 out of range [0,8)",
			chaos.NewBuilder().KVOutage(3600, 600).Crash(0, 99, cluster.SoftwareFailed)},
		// A repeated rank would turn a correlated crash into a failure
		// of one machine, or a straggler into an overlap with itself.
		{"repeated rank", "chaos[1] (correlated-crash): names rank 5 twice",
			chaos.NewBuilder().KVOutage(0, 10).CrashGroup(100, cluster.HardwareFailed, 5, 5)},
		{"repeated unsorted rank", "chaos[0] (correlated-crash): names rank 2 twice",
			chaos.NewBuilder().CrashGroup(100, cluster.SoftwareFailed, 2, 6, 2)},
		{"repeated partition rank", "chaos[0] (partition-start): names rank 1 twice",
			chaos.NewBuilder().Partition(0, 10, 1, 3, 1)},
	}
	for _, tc := range cases {
		if _, err := tc.b.Build(8); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestScheduleSortDeterministic(t *testing.T) {
	a := chaos.NewBuilder().
		Crash(10, 3, cluster.SoftwareFailed).
		Crash(10, 1, cluster.SoftwareFailed).
		Partition(5, 100, 2).
		MustBuild(4)
	b := chaos.NewBuilder().
		Partition(5, 100, 2).
		Crash(10, 1, cluster.SoftwareFailed).
		Crash(10, 3, cluster.SoftwareFailed).
		MustBuild(4)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Kind != b[i].Kind || !slices.Equal(a[i].Ranks, b[i].Ranks) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := []chaos.Kind{chaos.KindCrash, chaos.KindCorrelatedCrash, chaos.KindPartitionStart, chaos.KindPartitionHeal,
		chaos.KindStragglerStart, chaos.KindStragglerEnd, chaos.KindKVOutage, chaos.KindKVRestore, chaos.KindLeaseJitter}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "Kind(") || seen[s] {
			t.Errorf("kind %d has bad or duplicate name %q", int(k), s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(chaos.Kind(99).String(), "Kind(") {
		t.Error("unknown kind not reported as such")
	}
}

// TestBuildValidationEdges pins the Build(n) edges the scenario
// compiler leans on: rank bounds on both sides, overlapping windows,
// and the zero-duration degenerate — a window whose closer lands at the
// same instant as its opener sorts closer-first (Kind order is the
// same-timestamp precedence), so the opener finds its window already
// shut and validation rejects the schedule rather than arming a
// zero-length fault.
func TestBuildValidationEdges(t *testing.T) {
	cases := []struct {
		name string
		b    *chaos.Builder
	}{
		{"negative rank crash", chaos.NewBuilder().Crash(0, -1, cluster.SoftwareFailed)},
		{"negative rank partition", chaos.NewBuilder().Partition(0, 10, -3)},
		{"rank == n", chaos.NewBuilder().Crash(0, 8, cluster.SoftwareFailed)},
		{"rank beyond n", chaos.NewBuilder().CrashGroup(0, cluster.HardwareFailed, 1, 100)},
		{"overlapping partitions", chaos.NewBuilder().Partition(0, 100, 1).Partition(50, 100, 2)},
		{"partition inside partition", chaos.NewBuilder().Partition(0, 100, 1).Partition(10, 20, 2)},
		{"zero-duration partition", chaos.NewBuilder().Partition(5, 0, 1)},
		{"zero-duration kv outage", chaos.NewBuilder().KVOutage(5, 0)},
		{"zero-duration straggler", chaos.NewBuilder().Straggler(5, 0, 1, 0.5)},
	}
	for _, tc := range cases {
		if _, err := tc.b.Build(8); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Back-to-back windows share an instant (heal at t=10, next start at
	// t=10); closers sorting before openers makes that legal.
	if _, err := chaos.NewBuilder().Partition(0, 10, 1).Partition(10, 10, 2).Build(8); err != nil {
		t.Errorf("back-to-back windows rejected: %v", err)
	}
}

// TestBuildRejectsNonFiniteParameters: a NaN fails every ordered
// comparison, so the parameter checks are negated comparisons, and the
// error names the parameter. A NaN or infinite jitter would leave a
// dead worker's lease unexpired forever.
func TestBuildRejectsNonFiniteParameters(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, param string
		b           *chaos.Builder
	}{
		{"NaN factor", "factor", chaos.NewBuilder().Straggler(0, 10, 1, nan)},
		{"+Inf factor", "factor", chaos.NewBuilder().Straggler(0, 10, 1, inf)},
		{"-Inf factor", "factor", chaos.NewBuilder().Straggler(0, 10, 1, -inf)},
		{"NaN jitter", "jitter", chaos.NewBuilder().LeaseJitter(0, simclock.Duration(nan))},
		{"+Inf jitter", "jitter", chaos.NewBuilder().LeaseJitter(0, simclock.Duration(inf))},
		{"-Inf jitter", "jitter", chaos.NewBuilder().LeaseJitter(0, simclock.Duration(-inf))},
		{"negative jitter", "jitter", chaos.NewBuilder().LeaseJitter(0, -1)},
	}
	for _, tc := range cases {
		_, err := tc.b.Build(4)
		if err == nil || !strings.Contains(err.Error(), tc.param) {
			t.Errorf("%s: got %v, want an error naming the %s", tc.name, err, tc.param)
		}
	}
	if _, err := chaos.NewBuilder().Straggler(0, 10, 1, 1).LeaseJitter(0, 0).Build(4); err != nil {
		t.Errorf("factor 1 and jitter 0 rejected: %v", err)
	}
}

// TestFailuresLoweringHardwareWins drives the chaos→failure lowering
// with the shapes the scenario compiler emits: a software crash and a
// correlated hardware crash sharing an instant and a rank must collapse
// to one hardware failure, and non-crash kinds must vanish.
func TestFailuresLoweringHardwareWins(t *testing.T) {
	sched := chaos.NewBuilder().
		Crash(100, 2, cluster.SoftwareFailed).
		CrashGroup(100, cluster.HardwareFailed, 2, 3).
		Crash(200, 1, cluster.SoftwareFailed).
		Partition(50, 25, 4).
		KVOutage(300, 10).
		LeaseJitter(0, 3*simclock.Second).
		MustBuild(8)
	fs := sched.Failures()
	if len(fs) != 3 {
		t.Fatalf("lowered %d events, want 3 (dedup + crash kinds only): %+v", len(fs), fs)
	}
	if fs[0].At != 100 || fs[0].Rank != 2 || fs[0].Kind != cluster.HardwareFailed {
		t.Errorf("rank 2 double-hit lowered to %+v, want hardware at t=100", fs[0])
	}
	if fs[1].At != 100 || fs[1].Rank != 3 || fs[1].Kind != cluster.HardwareFailed {
		t.Errorf("event 1 = %+v, want rank 3 hardware at t=100", fs[1])
	}
	if fs[2].At != 200 || fs[2].Rank != 1 || fs[2].Kind != cluster.SoftwareFailed {
		t.Errorf("event 2 = %+v, want rank 1 software at t=200", fs[2])
	}
	if err := fs.Validate(8); err != nil {
		t.Fatalf("lowered schedule invalid: %v", err)
	}
	if got := chaos.Schedule(nil).Failures(); got != nil {
		t.Fatalf("empty schedule lowered to %+v, want nil", got)
	}
}
