package agent

import (
	"math"
	"strings"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/strategy"
	"gemini/internal/tensor"
	"gemini/internal/trace"
)

const iterTime = 60 * simclock.Second

type fixture struct {
	engine *simclock.Engine
	clus   *cluster.Cluster
	ck     *ckpt.Engine
	op     *cloud.Operator
	sys    *System
}

// log is the system's event log. SetTracer moves it onto the tracer,
// so the fixture reads it through the system instead of keeping it.
func (f *fixture) log() *trace.Track { return f.sys.Log() }

// testSpec is the GEMINI spec an n-machine fixture with the given shard
// size recovers under. It charges what baselines.Gemini charges a p4d
// job with such shards: two generations serialized, a local reload, a
// shard over a peer's NIC, and n shards through the remote store.
func testSpec(n int, shard float64) baselines.Spec {
	costs := tensor.DefaultCostModel()
	return baselines.Spec{
		Name:                "GEMINI",
		Interval:            iterTime,
		CompletionLag:       iterTime,
		SerializeOnRecovery: simclock.Duration(2 * shard / costs.SerializeBytesPerSec),
		RetrievalLocal:      simclock.Duration(shard/costs.DeserializeBytesPerSec) / 8,
		RetrievalPeer:       simclock.Duration(shard / cluster.MustInstance("p4d.24xlarge").NetworkBytesPerSec),
		RetrievalRemote:     simclock.Duration(float64(n) * shard / baselines.DefaultRemoteBandwidth),
		UsesCPUMemory:       true,
		RemoteInterval:      baselines.RemoteCheckpointInterval,
	}
}

// newSpecFixture builds an n-machine, m-replica p4d system with
// shard-byte shards, recovering under spec(n, shard).
func newSpecFixture(t testing.TB, n, m int, shard float64, spec func(int, float64) baselines.Spec,
	opts Options, cloudCfg cloud.Config) *fixture {
	t.Helper()
	engine := simclock.NewEngine()
	clus := cluster.MustNew(n, cluster.MustInstance("p4d.24xlarge"))
	ck := ckpt.MustNewEngine(placement.MustMixed(n, m), shard)
	op := cloud.MustNewOperator(engine, cloudCfg)
	sys, err := NewSystem(engine, clus, ck, spec(n, shard), op, opts)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return &fixture{engine: engine, clus: clus, ck: ck, op: op, sys: sys}
}

func newFixture(t testing.TB, n, m int, cloudCfg cloud.Config) *fixture {
	t.Helper()
	return newSpecFixture(t, n, m, 75e9, testSpec, DefaultOptions(), cloudCfg)
}

func allHealthy(f *fixture) func(int) bool {
	return func(rank int) bool { return f.clus.Machine(rank).Healthy() }
}

func TestHealthyTrainingAdvances(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.Run(simclock.Time(10*iterTime + 5))
	if got := f.sys.Iteration(); got != 10 {
		t.Fatalf("iteration %d after 10 iteration times, want 10", got)
	}
	v, ok := f.ck.ConsistentVersion(allHealthy(f))
	if !ok || v != 10 {
		t.Fatalf("consistent version %d/%v, want 10", v, ok)
	}
	if f.sys.RootRank() != 0 {
		t.Fatalf("root rank %d, want 0", f.sys.RootRank())
	}
	if f.sys.Recoveries() != 0 {
		t.Fatal("recoveries counted without failures")
	}
}

func TestSoftwareFailureRecoversFromLocal(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.SoftwareFailed)
	})
	f.engine.Run(simclock.Time(30 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	// Detection happened within lease TTL + check interval.
	det, ok := f.log().Last("failure-detected")
	if !ok {
		t.Fatal("no detection event")
	}
	lag := det.At.Sub(simclock.Time(5*iterTime + 10))
	if lag > f.sys.opts.LeaseTTL+2*f.sys.opts.CheckInterval {
		t.Fatalf("detection lag %v exceeds lease TTL + checks", lag)
	}
	// Recovery resumed at iteration 5 (the last committed checkpoint).
	rec, ok := f.log().Last("recovery-complete")
	if !ok {
		t.Fatal("no recovery-complete event")
	}
	if !strings.Contains(rec.Args, "iteration 5") {
		t.Fatalf("recovery detail %q, want resume at iteration 5", rec.Args)
	}
	// Software recovery retrieves locally — no replacement events.
	if evs := f.log().Filter("replaced"); len(evs) != 0 {
		t.Fatalf("software failure triggered %d replacements", len(evs))
	}
	ret, _ := f.log().Last("retrieved")
	if !strings.Contains(ret.Args, "from local") {
		t.Fatalf("retrieval detail %q, want local source", ret.Args)
	}
	// Total downtime ≈ detection + serialization + warmup ≈ 7 minutes.
	down := rec.At.Sub(det.At)
	if down < 5*simclock.Minute || down > 9*simclock.Minute {
		t.Fatalf("software recovery took %v, want ≈7 min (§7.3)", down)
	}
	// Training continued after recovery.
	if f.sys.Iteration() <= 5 {
		t.Fatalf("training did not resume: iteration %d", f.sys.Iteration())
	}
	if !f.sys.Training() {
		t.Fatal("system not training after recovery")
	}
}

func TestHardwareFailureReplacesAndFetchesFromPeer(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(3*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(40 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	if evs := f.log().Filter("replaced"); len(evs) != 1 {
		t.Fatalf("%d replacement events, want 1", len(evs))
	}
	if f.clus.Machine(1).Incarnation != 1 {
		t.Fatalf("replacement incarnation %d, want 1", f.clus.Machine(1).Incarnation)
	}
	ret, _ := f.log().Last("retrieved")
	if !strings.Contains(ret.Args, "from peer") {
		t.Fatalf("retrieval detail %q, want peer source", ret.Args)
	}
	// Hardware recovery ≈ 12 min: detection + serialize + replace (4–7m)
	// + retrieval + warmup.
	det, _ := f.log().Last("failure-detected")
	rec, _ := f.log().Last("recovery-complete")
	down := rec.At.Sub(det.At)
	if down < 10*simclock.Minute || down > 15*simclock.Minute {
		t.Fatalf("hardware recovery took %v, want ≈12 min (§7.3)", down)
	}
	// The replaced machine's local replica was restored.
	if _, ok := f.ck.Completed(1, 1); !ok {
		t.Fatal("replaced machine has no restored local replica")
	}
	// Training resumed and checkpoints are consistent again.
	v, ok := f.ck.ConsistentVersion(allHealthy(f))
	if !ok || v < 3 {
		t.Fatalf("post-recovery consistent version %d/%v", v, ok)
	}
}

func TestStandbyMachinesShortenHardwareRecovery(t *testing.T) {
	slow := newFixture(t, 4, 2, cloud.DefaultConfig())
	cfgFast := cloud.DefaultConfig()
	cfgFast.Standby = 1
	fast := newFixture(t, 4, 2, cfgFast)
	for _, f := range []*fixture{slow, fast} {
		f.sys.Start()
		f.engine.At(simclock.Time(2*iterTime+10), func() {
			f.sys.InjectFailure(3, cluster.HardwareFailed)
		})
		f.engine.Run(simclock.Time(40 * iterTime))
	}
	detS, _ := slow.log().Last("failure-detected")
	recS, _ := slow.log().Last("recovery-complete")
	detF, _ := fast.log().Last("failure-detected")
	recF, _ := fast.log().Last("recovery-complete")
	slowDown := recS.At.Sub(detS.At)
	fastDown := recF.At.Sub(detF.At)
	if fastDown >= slowDown {
		t.Fatalf("standby recovery %v not faster than ASG %v", fastDown, slowDown)
	}
	if slowDown-fastDown < 3*simclock.Minute {
		t.Fatalf("standby saved only %v, want most of the 4–7 min provisioning", slowDown-fastDown)
	}
}

func TestWholeGroupLossFallsBackToRemote(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.SetRemoteEvery(10)
	f.sys.Start()
	// Fail both members of group {2,3} at once, long after a remote
	// checkpoint at iteration 20.
	f.engine.At(simclock.Time(25*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	ret, _ := f.log().Last("retrieved")
	if !strings.Contains(ret.Args, "from remote") {
		t.Fatalf("retrieval detail %q, want remote fallback", ret.Args)
	}
	rec, _ := f.log().Last("recovery-complete")
	if !strings.Contains(rec.Args, "iteration 20") {
		t.Fatalf("recovery detail %q, want rollback to remote iteration 20", rec.Args)
	}
	// All machines reseeded; training resumes consistently.
	v, ok := f.ck.ConsistentVersion(allHealthy(f))
	if !ok || v < 20 {
		t.Fatalf("post-fallback consistent version %d/%v", v, ok)
	}
}

func TestCrossGroupSimultaneousFailuresStayInCPUMemory(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.HardwareFailed) // group {0,1}
		f.sys.InjectFailure(2, cluster.HardwareFailed) // group {2,3}
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	ret, _ := f.log().Last("retrieved")
	if !strings.Contains(ret.Args, "from peer") {
		t.Fatalf("retrieval detail %q, want peer recovery for cross-group failures", ret.Args)
	}
}

func TestRootFailurePromotesNewRoot(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	if f.sys.RootRank() != 0 {
		t.Fatalf("initial root %d, want 0", f.sys.RootRank())
	}
	f.engine.At(simclock.Time(4*iterTime+10), func() {
		f.sys.InjectFailure(0, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	if f.sys.RootRank() == 0 {
		t.Fatal("root rank still 0 after root machine death")
	}
	if evs := f.log().Filter("failover"); len(evs) == 0 {
		t.Fatal("no failover event recorded")
	}
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1 (the dead ex-root)", f.sys.Recoveries())
	}
	if !f.sys.Training() {
		t.Fatal("training did not resume under the new root")
	}
	if f.clus.Machine(0).Incarnation != 1 {
		t.Fatal("ex-root machine was not replaced")
	}
}

func TestSequentialFailuresAllRecover(t *testing.T) {
	f := newFixture(t, 6, 2, cloud.DefaultConfig())
	f.sys.Start()
	kinds := []cluster.MachineState{cluster.SoftwareFailed, cluster.HardwareFailed, cluster.SoftwareFailed}
	for i, kind := range kinds {
		rank := (i*2 + 1) % 6
		at := simclock.Time((10 + 40*i)) * simclock.Time(iterTime)
		f.engine.At(at+10, func() { f.sys.InjectFailure(rank, kind) })
	}
	f.engine.Run(simclock.Time(140 * iterTime))
	if f.sys.Recoveries() != 3 {
		t.Fatalf("%d recoveries, want 3", f.sys.Recoveries())
	}
	if !f.sys.Training() {
		t.Fatal("training stopped")
	}
	if f.sys.Iteration() < 100 {
		t.Fatalf("iteration %d, training barely progressed", f.sys.Iteration())
	}
}

func TestFailureDuringRecoveryHandledAfterward(t *testing.T) {
	// A second machine dies while the first recovery is in flight; the
	// root agent must finish the first recovery and then detect and
	// recover the second failure.
	f := newFixture(t, 6, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
	})
	// ~2 minutes later, mid-recovery (serialization + replacement take
	// longer than that), another machine dies.
	f.engine.At(simclock.Time(5*iterTime+10+120), func() {
		f.sys.InjectFailure(4, cluster.SoftwareFailed)
	})
	f.engine.Run(simclock.Time(80 * iterTime))
	if f.sys.Recoveries() != 2 {
		t.Fatalf("%d recoveries, want 2 (sequential handling)", f.sys.Recoveries())
	}
	if !f.sys.Training() {
		t.Fatal("training did not resume after cascaded failures")
	}
	if !f.clus.Machine(2).Healthy() || !f.clus.Machine(4).Healthy() {
		t.Fatal("machines not healthy after recovery")
	}
}

func TestSimultaneousFailuresGroupIntoOneRecovery(t *testing.T) {
	// Two machines die within one heartbeat window (different groups):
	// the root detects both missing heartbeats in one health check and
	// runs a single recovery covering both.
	f := newFixture(t, 6, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(1, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1 grouped recovery", f.sys.Recoveries())
	}
	if evs := f.log().Filter("replaced"); len(evs) != 2 {
		t.Fatalf("%d replacements, want 2", len(evs))
	}
	det := f.log().Filter("failure-detected")
	if len(det) != 1 || !strings.Contains(det[0].Args, "hardware: 2") {
		t.Fatalf("detection events %+v, want one covering both", det)
	}
}

func TestOptionsValidation(t *testing.T) {
	engine := simclock.NewEngine()
	clus := cluster.MustNew(4, cluster.MustInstance("p4d.24xlarge"))
	ck := ckpt.MustNewEngine(placement.MustMixed(4, 2), 1)
	op := cloud.MustNewOperator(engine, cloud.DefaultConfig())
	bad := []func(*Options){
		func(o *Options) { o.HeartbeatInterval = 0 },
		func(o *Options) { o.LeaseTTL = o.HeartbeatInterval },
		func(o *Options) { o.CheckInterval = -1 },
	}
	spec := testSpec(4, 1)
	for i, mutate := range bad {
		opts := DefaultOptions()
		mutate(&opts)
		if _, err := NewSystem(engine, clus, ck, spec, op, opts); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	// Mismatched sizes rejected.
	small := ckpt.MustNewEngine(placement.MustMixed(3, 1), 1)
	if _, err := NewSystem(engine, clus, small, spec, op, DefaultOptions()); err == nil {
		t.Error("mismatched cluster/placement accepted")
	}
	sys, err := NewSystem(engine, clus, ck, spec, op, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetRemoteEvery(0) did not panic")
		}
	}()
	sys.SetRemoteEvery(0)
}

// The remote persistent tier's cadence belongs to the agent, not the
// strategy: every strategy's healthy run commits the whole model to the
// remote tier once per SetRemoteEvery iterations, and never otherwise.
func TestRemoteCadenceIsStrategyIndependent(t *testing.T) {
	const n, every = 16, 7
	for _, name := range strategy.Names() {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t, n, 2, cloud.DefaultConfig())
			f.sys.SetStrategy(strategy.MustNew(name))
			f.sys.SetRemoteEvery(every)
			f.sys.Start()
			f.engine.Run(simclock.Time(50*iterTime + 5))
			iters := f.sys.Iteration()
			if iters != 50 {
				t.Fatalf("iteration %d after 50 iteration times, want 50", iters)
			}
			want := float64(iters/every) * n * f.ck.ShardBytes()
			if got := f.sys.Traffic().Remote; got != want {
				t.Fatalf("remote bytes %v, want ⌊%d/%d⌋·%d·shard = %v", got, iters, every, n, want)
			}
		})
	}
}

func TestLongevityManyRandomFailures(t *testing.T) {
	// A multi-day run with a Poisson failure schedule: every failure —
	// software or hardware, sometimes near-simultaneous, sometimes
	// hitting the root — must be detected and recovered, and training
	// must keep making progress throughout.
	f := newFixture(t, 8, 2, cloud.DefaultConfig())
	f.sys.SetRemoteEvery(50)
	f.sys.Start()
	horizon := 3 * simclock.Day
	model := failure.Model{PerInstancePerDay: 0.5, HardwareFraction: 0.5} // 4 failures/day on 8 machines
	schedule, err := model.Generate(8, horizon, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(schedule) < 5 {
		t.Fatalf("schedule too light for a longevity test: %d events", len(schedule))
	}
	for _, ev := range schedule {
		f.engine.At(ev.At, func() { f.sys.InjectFailure(ev.Rank, ev.Kind) })
	}
	f.engine.Run(simclock.Time(horizon))

	if !f.sys.Training() && f.sys.Recoveries() == 0 {
		t.Fatal("system wedged without any recovery")
	}
	if f.sys.Recoveries() == 0 {
		t.Fatal("no recoveries despite injected failures")
	}
	// Expected productive iterations: ≈ horizon/iterTime minus recovery
	// downtime; demand at least half to prove sustained progress.
	minIters := int64(horizon.Seconds() / iterTime.Seconds() / 2)
	if f.sys.Iteration() < minIters {
		t.Fatalf("only %d iterations over 3 days with %d recoveries, want ≥ %d",
			f.sys.Iteration(), f.sys.Recoveries(), minIters)
	}
	// A root must exist and all machines must be healthy at the end
	// (unless a failure landed in the final recovery window).
	if f.sys.RootRank() < 0 {
		t.Fatal("no root at the end of the run")
	}
	t.Logf("longevity: %d failures injected, %d recoveries, iteration %d",
		len(schedule), f.sys.Recoveries(), f.sys.Iteration())
}

func TestInjectFailureIdempotent(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.Start()
	f.engine.At(100, func() {
		f.sys.InjectFailure(1, cluster.SoftwareFailed)
		f.sys.InjectFailure(1, cluster.SoftwareFailed) // no-op
	})
	f.engine.Run(simclock.Time(30 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries after duplicate injection, want 1", f.sys.Recoveries())
	}
}

// TestOptionsRejectNonFinite: a NaN fails every ordered comparison, so
// a bound written as "reject if out of range" lets it through, and an
// infinite duration or bandwidth passes a positivity check. NewSystem
// must reject each of them with an error naming the field.
func TestOptionsRejectNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(o *Options, v float64)
	}{
		{"HeartbeatInterval", func(o *Options, v float64) { o.HeartbeatInterval = simclock.Duration(v) }},
		{"LeaseTTL", func(o *Options, v float64) { o.LeaseTTL = simclock.Duration(v) }},
		{"CheckInterval", func(o *Options, v float64) { o.CheckInterval = simclock.Duration(v) }},
		{"RetryBase", func(o *Options, v float64) { o.RetryBase = simclock.Duration(v) }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
			opts := DefaultOptions()
			f.set(&opts, v)
			engine := simclock.NewEngine()
			_, err := NewSystem(engine, cluster.MustNew(4, cluster.MustInstance("p4d.24xlarge")),
				ckpt.MustNewEngine(placement.MustMixed(4, 2), 75e9), testSpec(4, 75e9),
				cloud.MustNewOperator(engine, cloud.DefaultConfig()), opts)
			if err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: NewSystem error %v, want one naming %s", f.name, v, err, f.name)
			}
		}
	}
}

// NewSystem prices recoveries from the job's GEMINI spec, so it
// rejects a spec that fails Spec.Validate, and one without a CPU-memory
// tier, with an error naming the problem.
func TestNewSystemRejectsBadSpec(t *testing.T) {
	for _, c := range []struct {
		want string
		set  func(s *baselines.Spec)
	}{
		{"GEMINI interval", func(s *baselines.Spec) { s.Interval = simclock.Duration(math.NaN()) }},
		{"serialize-on-recovery stall", func(s *baselines.Spec) { s.SerializeOnRecovery = -1 }},
		{"local retrieval time", func(s *baselines.Spec) { s.RetrievalLocal = simclock.Duration(math.Inf(1)) }},
		{"peer retrieval time", func(s *baselines.Spec) { s.RetrievalPeer = simclock.Duration(math.NaN()) }},
		{"remote interval", func(s *baselines.Spec) { s.RemoteInterval = 0 }},
		{"no CPU-memory tier", func(s *baselines.Spec) { s.UsesCPUMemory = false }},
	} {
		spec := testSpec(4, 75e9)
		c.set(&spec)
		engine := simclock.NewEngine()
		_, err := NewSystem(engine, cluster.MustNew(4, cluster.MustInstance("p4d.24xlarge")),
			ckpt.MustNewEngine(placement.MustMixed(4, 2), 75e9), spec,
			cloud.MustNewOperator(engine, cloud.DefaultConfig()), DefaultOptions())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: NewSystem error %v, want one naming it", c.want, err)
		}
	}
}

// The control plane takes its recovery costs, its iteration and its
// remote cadence from the job's spec: the kernel's phases price a local
// recovery, and the remote tier commits every ⌈RemoteInterval /
// Interval⌉ iterations, whatever the spec's interval.
func TestRecoveryFollowsSpec(t *testing.T) {
	for _, c := range []struct {
		name string
		iter simclock.Duration
		run  func(t *testing.T, f *fixture)
	}{
		{"local recovery pays serialize, local retrieval and warm-up", iterTime, func(t *testing.T, f *fixture) {
			f.engine.At(simclock.Time(5*iterTime+10), func() { f.sys.InjectFailure(2, cluster.SoftwareFailed) })
			f.engine.Run(simclock.Time(30 * iterTime))
			evs := f.sys.WastedEvents()
			if len(evs) != 1 || evs[0].Source != "local" {
				t.Fatalf("recoveries %+v, want one from local memory", evs)
			}
			ph := f.sys.spec.Phases(baselines.FromLocal, 0)
			if want := ph.Serialize + ph.Retrieve + baselines.RestartWarmup; evs[0].TRecovery != want {
				t.Fatalf("TRecovery %v, want serialize %v + local retrieval %v + warm-up %v = %v",
					evs[0].TRecovery, ph.Serialize, ph.Retrieve, baselines.RestartWarmup, want)
			}
		}},
		{"remote cadence follows the iteration time", 73.1 * simclock.Second, func(t *testing.T, f *fixture) {
			const first = 148 // ⌈3 h / 73.1 s⌉
			f.engine.Run(simclock.Time((first - 0.5) * 73.1 * simclock.Second))
			if got := f.sys.lastRemoteCommitted; got != 0 {
				t.Fatalf("remote commit at iteration %d, before ⌈3 h / 73.1 s⌉ = %d", got, first)
			}
			f.engine.Run(simclock.Time((first + 0.5) * 73.1 * simclock.Second))
			if got := f.sys.lastRemoteCommitted; got != first {
				t.Fatalf("newest remote commit at iteration %d, want %d", got, first)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := func(n int, shard float64) baselines.Spec {
				s := testSpec(n, shard)
				s.Interval, s.CompletionLag = c.iter, c.iter
				return s
			}
			f := newSpecFixture(t, 4, 2, 75e9, spec, DefaultOptions(), cloud.DefaultConfig())
			f.sys.Start()
			c.run(t, f)
		})
	}
}
