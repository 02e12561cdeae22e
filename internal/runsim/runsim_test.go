package runsim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/cluster"
	"gemini/internal/failure"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/tensor"
	"gemini/internal/training"
)

func specs(t *testing.T, machines int) (straw, high, gem baselines.Spec) {
	t.Helper()
	cfg := training.MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), machines)
	costs := tensor.DefaultCostModel()
	tl, err := training.BuildTimeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	straw, err = baselines.Strawman(cfg, baselines.DefaultRemoteBandwidth, costs)
	if err != nil {
		t.Fatal(err)
	}
	high, err = baselines.HighFreq(cfg, tl, baselines.DefaultRemoteBandwidth, costs)
	if err != nil {
		t.Fatal(err)
	}
	gem, err = baselines.Gemini(cfg, tl, 2, baselines.DefaultRemoteBandwidth, costs)
	if err != nil {
		t.Fatal(err)
	}
	return straw, high, gem
}

func softwareFailures(t *testing.T, machines int, perDay float64, horizon simclock.Duration) failure.Schedule {
	t.Helper()
	s, err := failure.FixedRate(machines, perDay, 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func run(t *testing.T, spec baselines.Spec, machines int, fs failure.Schedule, horizon simclock.Duration) *Result {
	t.Helper()
	cfg := Config{
		Spec:     spec,
		Machines: machines,
		Failures: fs,
		Horizon:  horizon,
	}
	if spec.UsesCPUMemory {
		cfg.Placement = placement.MustMixed(machines, 2)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNoFailuresRatios(t *testing.T) {
	// Fig. 15a at x=0: GEMINI and Strawman ≈1.0; HighFreq loses ≈14.5%
	// to checkpoint serialization even without failures.
	straw, high, gem := specs(t, 16)
	horizon := 10 * simclock.Day
	if r := run(t, gem, 16, nil, horizon).EffectiveRatio; r < 0.999 {
		t.Errorf("GEMINI no-failure ratio %.4f, want ≈1", r)
	}
	if r := run(t, straw, 16, nil, horizon).EffectiveRatio; r < 0.95 {
		t.Errorf("Strawman no-failure ratio %.4f, want ≈1", r)
	}
	hf := run(t, high, 16, nil, horizon).EffectiveRatio
	if hf < 0.82 || hf > 0.90 {
		t.Errorf("HighFreq no-failure ratio %.4f, want ≈0.855 (14.5%% serialization)", hf)
	}
}

func TestFigure15aShape(t *testing.T) {
	// With 8 software failures/day on 16 machines: GEMINI stays close to
	// the no-failure baseline; HighFreq is visibly hurt; Strawman is the
	// worst.
	straw, high, gem := specs(t, 16)
	horizon := 10 * simclock.Day
	fs := softwareFailures(t, 16, 8, horizon)
	g := run(t, gem, 16, fs, horizon).EffectiveRatio
	h := run(t, high, 16, fs, horizon).EffectiveRatio
	s := run(t, straw, 16, fs, horizon).EffectiveRatio
	if g < 0.90 {
		t.Errorf("GEMINI at 8 failures/day: %.3f, want ≥0.90 (Fig. 15a)", g)
	}
	if !(g > h && h > s) {
		t.Errorf("ordering violated: GEMINI %.3f, HighFreq %.3f, Strawman %.3f", g, h, s)
	}
	if s > 0.55 {
		t.Errorf("Strawman at 8 failures/day: %.3f, want badly degraded", s)
	}
}

func TestFigure15aMonotoneInFailureRate(t *testing.T) {
	_, _, gem := specs(t, 16)
	horizon := 10 * simclock.Day
	prev := 2.0
	for _, perDay := range []float64{0, 2, 4, 6, 8} {
		fs := softwareFailures(t, 16, perDay, horizon)
		r := run(t, gem, 16, fs, horizon).EffectiveRatio
		if r > prev+1e-9 {
			t.Fatalf("ratio increased with failure rate at %v/day: %.4f > %.4f", perDay, r, prev)
		}
		prev = r
	}
}

func TestFigure15bThousandInstances(t *testing.T) {
	// Fig. 15b: at 1000 instances and 1.5%/day per-instance failures
	// (15/day), GEMINI keeps ≈91% effective time — ≈54% above HighFreq —
	// while Strawman can hardly proceed. Following the paper's
	// methodology, the per-failure overheads are the ones measured on the
	// 16-instance testbed; only the failure frequency scales with N.
	straw, high, gem := specs(t, 16)
	horizon := 10 * simclock.Day
	fs, err := failure.FixedRate(1000, failure.OPTModel().ClusterFailuresPerDay(1000), 0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	g := run(t, gem, 1000, fs, horizon).EffectiveRatio
	h := run(t, high, 1000, fs, horizon).EffectiveRatio
	s := run(t, straw, 1000, fs, horizon).EffectiveRatio
	if g < 0.87 || g > 0.95 {
		t.Errorf("GEMINI at 1000 instances: %.3f, want ≈0.91", g)
	}
	if rel := g/h - 1; rel < 0.30 {
		t.Errorf("GEMINI %.3f vs HighFreq %.3f: relative gap %.0f%%, want large (paper: 54%%)", g, h, rel*100)
	}
	if s > 0.25 {
		t.Errorf("Strawman at 1000 instances: %.3f, want near-stalled", s)
	}
}

func TestHardwareFailuresUsePeerRecovery(t *testing.T) {
	_, _, gem := specs(t, 16)
	horizon := 5 * simclock.Day
	fs, err := failure.FixedRate(16, 4, 1.0, horizon) // all hardware
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, gem, 16, fs, horizon)
	if res.FromPeer == 0 {
		t.Fatal("hardware failures never recovered from peers")
	}
	if res.FromRemote != 0 {
		t.Fatalf("%d isolated hardware failures fell back to remote storage", res.FromRemote)
	}
	if res.FromLocal != 0 {
		t.Fatal("hardware failures should not recover locally")
	}
}

func TestSoftwareFailuresRecoverLocally(t *testing.T) {
	_, _, gem := specs(t, 16)
	horizon := 5 * simclock.Day
	fs := softwareFailures(t, 16, 4, horizon)
	res := run(t, gem, 16, fs, horizon)
	if res.FromLocal == 0 || res.FromPeer != 0 || res.FromRemote != 0 {
		t.Fatalf("software failures recovered %d/%d/%d (local/peer/remote), want all local",
			res.FromLocal, res.FromPeer, res.FromRemote)
	}
}

func TestWholeGroupLossFallsBackToRemote(t *testing.T) {
	// Two hardware failures in the same placement group within the
	// simultaneity window lose both replicas: GEMINI degrades to the
	// remote tier (§6.2 case 2).
	_, _, gem := specs(t, 16)
	horizon := simclock.Day
	fs := failure.Schedule{
		{At: simclock.Time(simclock.Hour), Rank: 0, Kind: cluster.HardwareFailed},
		{At: simclock.Time(simclock.Hour + simclock.Second), Rank: 1, Kind: cluster.HardwareFailed},
	}
	cfg := Config{
		Spec:      gem,
		Placement: placement.MustMixed(16, 2), // group {0,1}
		Failures:  fs,
		Horizon:   horizon,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromRemote != 1 || res.FromPeer != 0 {
		t.Fatalf("group loss recovered %d/%d/%d (local/peer/remote), want one remote recovery",
			res.FromLocal, res.FromPeer, res.FromRemote)
	}
	// Cross-group simultaneous failures survive.
	fs[1].Rank = 2
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FromPeer != 1 || res.FromRemote != 0 {
		t.Fatalf("cross-group loss recovered %d/%d/%d, want one peer recovery",
			res.FromLocal, res.FromPeer, res.FromRemote)
	}

	// A group loss more than one RemoteInterval of progress into the run,
	// after a hardware recovery whose replacement took four hours, rolls
	// back by Eq. 1 on the remote tier: the progress since the newest
	// RemoteInterval of progress, plus the remote push lag. A grid of
	// wall-clock instants would instead roll back to the last one that
	// came while training was up.
	at := simclock.Time(12 * simclock.Hour)
	cfg.ReplacementDelay = 4 * simclock.Hour
	cfg.SimultaneityWindow = 10 * simclock.Second
	cfg.Failures = failure.Schedule{
		{At: simclock.Time(2 * simclock.Hour), Rank: 4, Kind: cluster.HardwareFailed},
		{At: at, Rank: 0, Kind: cluster.HardwareFailed},
		{At: at.Add(simclock.Second), Rank: 1, Kind: cluster.HardwareFailed},
	}
	before := cfg
	before.Failures, before.Horizon = cfg.Failures[:1], simclock.Duration(at)
	pre := MustRun(before)
	progress := pre.EffectiveRatio * float64(at)
	if progress <= float64(gem.RemoteInterval) {
		t.Fatalf("progress %.0f s at the group loss is within the first RemoteInterval %v", progress, gem.RemoteInterval)
	}
	res = MustRun(cfg)
	if res.FromPeer != 1 || res.FromRemote != 1 {
		t.Fatalf("hardware then group loss recovered %d/%d/%d, want one peer and one remote recovery",
			res.FromLocal, res.FromPeer, res.FromRemote)
	}
	phi := float64(gem.Interval / (gem.Interval + gem.PerCheckpointStall))
	want := lostSinceCheckpoint(progress, gem.RemoteInterval, gem.RetrievalRemote, phi)
	if got := float64(res.TotalLost - pre.TotalLost); math.Abs(got-want) > 1e-6 {
		t.Fatalf("group loss at %.0f s of progress lost %.3f s, want %.3f s (Eq. 1 on the remote tier)", progress, got, want)
	}
}

// Every recovery rolls back by Eq. 1 on the tier it reads. Over
// isolated failures at uniformly random instants, none clamped by the
// progress made so far, the mean lost time is the tier's Interval/2 plus
// its completion lag (CheckpointTime) times φ, for each solution and
// each recovery source it can reach.
func TestLostTimeMatchesEq1(t *testing.T) {
	const machines, runs = 16, 2000
	straw, high, gem := specs(t, machines)
	pl := placement.MustMixed(machines, 2) // group {0,1}
	sw, hw := cluster.SoftwareFailed, cluster.HardwareFailed
	rng := rand.New(rand.NewSource(40))
	for _, c := range []struct {
		spec  baselines.Spec
		src   baselines.RecoverySource
		kind  cluster.MachineState
		ranks []int
	}{
		{straw, baselines.FromRemote, sw, []int{0}},
		{high, baselines.FromRemote, sw, []int{0}},
		{gem, baselines.FromLocal, sw, []int{0}},
		{gem, baselines.FromPeer, hw, []int{0}},
		{gem, baselines.FromRemote, hw, []int{0, 1}},
	} {
		name := fmt.Sprintf("%s/%s", c.spec.Name, c.src)
		m := c.spec.WastedModel(c.src)
		phi := float64(c.spec.Interval / (c.spec.Interval + c.spec.PerCheckpointStall))
		// The failures land over a window one Interval of progress long,
		// so their phase in the interval is uniform, and after one
		// Interval plus the lag of progress, so no rollback is clamped.
		start := float64(m.Interval+m.CheckpointTime) / phi
		span := float64(m.Interval) / phi
		var sum, sumSq float64
		for range runs {
			at := simclock.Time(start + rng.Float64()*span)
			fs := make(failure.Schedule, len(c.ranks))
			for i, r := range c.ranks {
				fs[i] = failure.Event{At: at, Rank: r, Kind: c.kind}
			}
			cfg := Config{Spec: c.spec, Machines: machines, Failures: fs, Horizon: simclock.Duration(at) + simclock.Day}
			if c.spec.UsesCPUMemory {
				cfg.Placement = pl
			}
			res := MustRun(cfg)
			checkEq1(t, name, res)
			if got := [...]int{res.FromLocal, res.FromPeer, res.FromRemote}; got[c.src] != 1 {
				t.Fatalf("%s: recovered %v times from local/peer/remote", name, got)
			}
			lost := float64(res.TotalLost)
			if lost >= float64(at)*phi {
				t.Fatalf("%s: failure at %v rolled back all %.0f s of progress", name, at, lost)
			}
			sum += lost
			sumSq += lost * lost
			res.Release()
		}
		mean := sum / runs
		se := math.Sqrt((sumSq-runs*mean*mean)/(runs-1)) / math.Sqrt(runs)
		want := float64(m.Interval)/2 + float64(m.CheckpointTime)*phi
		if math.Abs(mean-want) > 4*se {
			t.Errorf("%s: mean lost %.1f s over %d failures, Eq. 1 says %.1f s (standard error %.1f s)", name, mean, runs, want, se)
		}
	}
}

func TestReplacementDelayHurts(t *testing.T) {
	_, _, gem := specs(t, 16)
	horizon := 5 * simclock.Day
	fs, err := failure.FixedRate(16, 6, 1.0, horizon)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Spec: gem, Placement: placement.MustMixed(16, 2), Failures: fs, Horizon: horizon}
	withStandby := MustRun(base)
	slow := base
	slow.ReplacementDelay = 5 * simclock.Minute
	withASG := MustRun(slow)
	if withASG.EffectiveRatio >= withStandby.EffectiveRatio {
		t.Fatalf("replacement delay did not hurt: %.4f vs %.4f",
			withASG.EffectiveRatio, withStandby.EffectiveRatio)
	}
}

func TestResultAccounting(t *testing.T) {
	_, _, gem := specs(t, 16)
	horizon := 2 * simclock.Day
	fs := softwareFailures(t, 16, 3, horizon)
	res := run(t, gem, 16, fs, horizon)
	if res.Failures != len(fs) {
		t.Fatalf("processed %d failures, schedule has %d", res.Failures, len(fs))
	}
	if res.TotalWasted <= 0 || len(res.WastedSamples) == 0 {
		t.Fatal("wasted-time accounting empty")
	}
	if res.EffectiveRatio <= 0 || res.EffectiveRatio >= 1 {
		t.Fatalf("ratio %.4f out of (0,1) with failures present", res.EffectiveRatio)
	}
}

func TestWastedSamplesDistribution(t *testing.T) {
	_, _, gem := specs(t, 16)
	horizon := 5 * simclock.Day
	fs := softwareFailures(t, 16, 4, horizon)
	res := run(t, gem, 16, fs, horizon)
	if len(res.WastedSamples) == 0 {
		t.Fatal("no wasted samples recorded")
	}
	sum := res.WastedSummary()
	if sum.N != len(res.WastedSamples) {
		t.Fatalf("summary over %d samples, want %d", sum.N, len(res.WastedSamples))
	}
	if sum.Min <= 0 || sum.Max < sum.Min {
		t.Fatalf("degenerate summary %+v", sum)
	}
	// The mean of the samples must reconcile with TotalWasted spread
	// over the recoveries.
	mean := res.TotalWasted.Seconds() / float64(res.FromLocal+res.FromPeer+res.FromRemote)
	if diff := sum.Mean - mean; diff > 1 || diff < -1 {
		t.Fatalf("sample mean %.1f disagrees with TotalWasted %v over the recoveries", sum.Mean, res.TotalWasted)
	}
}

func TestRunValidation(t *testing.T) {
	_, _, gem := specs(t, 16)
	if _, err := Run(Config{Spec: gem, Horizon: simclock.Day}); err == nil {
		t.Error("CPU-memory spec without placement accepted")
	}
	if _, err := Run(Config{Spec: gem, Placement: placement.MustMixed(16, 2), Horizon: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
	nan := simclock.Duration(math.NaN())
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"negative replacement delay", func(c *Config) { c.ReplacementDelay = -1 }},
		{"NaN horizon", func(c *Config) { c.Horizon = nan }},
		{"NaN replacement delay", func(c *Config) { c.ReplacementDelay = nan }},
		{"NaN simultaneity window", func(c *Config) { c.SimultaneityWindow = nan }},
		{"NaN spec interval", func(c *Config) { c.Spec.Interval = nan }},
		{"NaN remote retrieval", func(c *Config) { c.Spec.RetrievalRemote = nan }},
	} {
		bad := Config{Spec: gem, Placement: placement.MustMixed(16, 2), Horizon: simclock.Day}
		c.edit(&bad)
		if _, err := Run(bad); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// A failure time that is NaN, infinite or negative is rejected by
	// its event index; NaN once ran as a NaN ratio and a negative time
	// as a recovery before the run began.
	for _, at := range []simclock.Time{simclock.Time(nan), simclock.Time(math.Inf(1)),
		simclock.Time(math.Inf(-1)), -50 * simclock.Time(simclock.Second)} {
		bad := Config{Spec: gem, Placement: placement.MustMixed(16, 2), Horizon: simclock.Day,
			Failures: failure.Schedule{
				{At: 10, Rank: 1, Kind: cluster.SoftwareFailed},
				{At: at, Rank: 2, Kind: cluster.HardwareFailed},
			}}
		if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "event 1 time") {
			t.Errorf("failure at %v: got error %v, want one naming event 1's time", at, err)
		}
	}
	outOfRange := Config{
		Spec:      gem,
		Placement: placement.MustMixed(16, 2),
		Horizon:   simclock.Day,
		Failures:  failure.Schedule{{At: 1, Rank: 99, Kind: cluster.SoftwareFailed}},
	}
	if _, err := Run(outOfRange); err == nil {
		t.Error("out-of-range failure rank accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRun on bad config did not panic")
		}
	}()
	MustRun(outOfRange)
}

// TotalLost and TotalDowntime are Eq. 1's two terms; they must always
// reconstruct TotalWasted exactly, and both must be exercised by a
// failure schedule.
// checkEq1 asserts Eq. 1's invariants on one run: lost + downtime =
// wasted (the sums accumulate independently, so within float association
// noise, relative), every term nonnegative, and the ratio in [0, 1].
func checkEq1(t *testing.T, what string, res *Result) {
	t.Helper()
	sum := res.TotalLost + res.TotalDowntime
	if diff := math.Abs((sum - res.TotalWasted).Seconds()); diff > 1e-9*res.TotalWasted.Seconds() {
		t.Fatalf("%s: TotalLost %v + TotalDowntime %v != TotalWasted %v",
			what, res.TotalLost, res.TotalDowntime, res.TotalWasted)
	}
	if res.TotalLost < 0 || res.TotalDowntime < 0 || res.TotalWasted < 0 {
		t.Fatalf("%s: negative term: lost %v, downtime %v, wasted %v",
			what, res.TotalLost, res.TotalDowntime, res.TotalWasted)
	}
	if !(res.EffectiveRatio >= 0 && res.EffectiveRatio <= 1) {
		t.Fatalf("%s: effective ratio %v out of [0,1]", what, res.EffectiveRatio)
	}
}

func TestWastedBreakdownSumsToTotal(t *testing.T) {
	straw, high, gem := specs(t, 16)
	horizon := 10 * simclock.Day
	fs := softwareFailures(t, 16, 8, horizon)
	res := run(t, gem, 16, fs, horizon)
	if res.Failures == 0 {
		t.Fatal("schedule produced no failures")
	}
	checkEq1(t, "fixed-rate gemini", res)
	if res.TotalDowntime <= 0 {
		t.Fatal("failures happened but no downtime accrued")
	}
	// Without failures both terms are zero.
	clean := run(t, gem, 16, nil, horizon)
	if clean.TotalLost != 0 || clean.TotalDowntime != 0 || clean.TotalWasted != 0 {
		t.Fatalf("clean run wasted %v/%v/%v, want zeros",
			clean.TotalLost, clean.TotalDowntime, clean.TotalWasted)
	}

	// The invariants hold on every run, not just one schedule: seeded
	// Poisson schedules over rates, hardware fractions, simultaneity
	// windows and replacement delays, for all three specs.
	rng := rand.New(rand.NewSource(17))
	pl := placement.MustMixed(16, 2)
	failed := 0
	for k := 0; k < 40; k++ {
		m := failure.Model{PerInstancePerDay: 0.5 * rng.Float64(), HardwareFraction: rng.Float64()}
		h := simclock.Duration(1+rng.Intn(5)) * simclock.Day
		fs, err := m.Generate(16, h, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Machines:           16,
			Failures:           fs,
			Horizon:            h,
			ReplacementDelay:   simclock.Duration(rng.Float64()) * 30 * simclock.Minute,
			SimultaneityWindow: simclock.Duration(rng.Intn(3)) * simclock.Duration(rng.Float64()) * simclock.Minute,
		}
		for _, spec := range []baselines.Spec{gem, high, straw} {
			cfg.Spec = spec
			cfg.Placement = nil
			if spec.UsesCPUMemory {
				cfg.Placement = pl
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("schedule %d (%+v, %d events) %s", k, m, len(fs), spec.Name)
			checkEq1(t, what, res)
			failed += res.Failures
			// A remote-storage run reads the placement only for its
			// size check, so attaching one changes nothing.
			if !spec.UsesCPUMemory {
				cfg.Placement = pl
				with, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(with, res) {
					t.Fatalf("%s: attaching a placement moved the result:\nwithout %+v\nwith    %+v", what, res, with)
				}
			}
		}
	}
	t.Logf("%d failures across the random runs", failed)
	if failed == 0 {
		t.Fatal("random schedules produced no failures")
	}
}

// TestSimultaneityTableSharedWithAnalyzer pins the one grouping
// definition (failure.GroupEnd: windows anchored at the group's first
// event, inclusive edge, no chaining) for both consumers: the schedule
// analyzer's Corollary-1 k-counts and the simulator's recovery walk must
// read every table row identically. Placement is Mixed(16, 2), so ranks
// {0,1} share a replica group (losing both ⇒ remote) while {0,2} span
// groups (⇒ peer).
func TestSimultaneityTableSharedWithAnalyzer(t *testing.T) {
	_, _, gem := specs(t, 16)
	const w = 10 * simclock.Second
	cases := []struct {
		name     string
		fs       failure.Schedule
		groups   []int // distinct machines per window (SimultaneousGroups)
		hwGroups []int // distinct hardware machines per window (the k)
		local    int
		peer     int
		remote   int
	}{
		{
			name: "no-chaining",
			fs: failure.Schedule{
				{At: 0, Rank: 0, Kind: cluster.SoftwareFailed},
				{At: simclock.Time(6 * simclock.Second), Rank: 1, Kind: cluster.SoftwareFailed},
				{At: simclock.Time(12 * simclock.Second), Rank: 2, Kind: cluster.SoftwareFailed},
			},
			groups: []int{2, 1}, hwGroups: []int{0, 0}, local: 2,
		},
		{
			name: "same-replica-group-loss",
			fs: failure.Schedule{
				{At: 0, Rank: 0, Kind: cluster.HardwareFailed},
				{At: simclock.Time(simclock.Second), Rank: 1, Kind: cluster.HardwareFailed},
			},
			groups: []int{2}, hwGroups: []int{2}, remote: 1,
		},
		{
			name: "cross-group-survival",
			fs: failure.Schedule{
				{At: 0, Rank: 0, Kind: cluster.HardwareFailed},
				{At: simclock.Time(simclock.Second), Rank: 2, Kind: cluster.HardwareFailed},
			},
			groups: []int{2}, hwGroups: []int{2}, peer: 1,
		},
		{
			name: "software-does-not-raise-k",
			fs: failure.Schedule{
				{At: 0, Rank: 0, Kind: cluster.SoftwareFailed},
				{At: simclock.Time(simclock.Second), Rank: 1, Kind: cluster.HardwareFailed},
			},
			groups: []int{2}, hwGroups: []int{1}, peer: 1,
		},
		{
			name: "same-machine-twice-is-k1",
			fs: failure.Schedule{
				{At: 0, Rank: 0, Kind: cluster.HardwareFailed},
				{At: simclock.Time(simclock.Second), Rank: 0, Kind: cluster.HardwareFailed},
			},
			groups: []int{1}, hwGroups: []int{1}, peer: 1,
		},
		{
			name: "inclusive-window-edge",
			fs: failure.Schedule{
				{At: 0, Rank: 0, Kind: cluster.HardwareFailed},
				{At: simclock.Time(w), Rank: 1, Kind: cluster.HardwareFailed},
			},
			groups: []int{1, 1}[:1], hwGroups: []int{2}, remote: 1,
		},
	}
	cases[len(cases)-1].groups = []int{2}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.fs.Validate(16); err != nil {
				t.Fatal(err)
			}
			// Analyzer side.
			if got := tc.fs.SimultaneousGroups(w); !equalInts(got, tc.groups) {
				t.Errorf("SimultaneousGroups = %v, want %v", got, tc.groups)
			}
			if got := tc.fs.SimultaneousHardwareGroups(w); !equalInts(got, tc.hwGroups) {
				t.Errorf("SimultaneousHardwareGroups = %v, want %v", got, tc.hwGroups)
			}
			// Simulator side: same windows, same k, so the recovery
			// sources follow.
			res, err := Run(Config{
				Spec:               gem,
				Placement:          placement.MustMixed(16, 2),
				Failures:           tc.fs,
				Horizon:            simclock.Day,
				SimultaneityWindow: w,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.FromLocal != tc.local || res.FromPeer != tc.peer || res.FromRemote != tc.remote {
				t.Errorf("recoveries %d/%d/%d (local/peer/remote), want %d/%d/%d",
					res.FromLocal, res.FromPeer, res.FromRemote, tc.local, tc.peer, tc.remote)
			}
			if want := len(tc.groups); len(res.WastedSamples) != want {
				t.Errorf("%d recovery windows, analyzer sees %d groups", len(res.WastedSamples), want)
			}
			if res.Failures != len(tc.fs) {
				t.Errorf("processed %d events, schedule has %d", res.Failures, len(tc.fs))
			}
		})
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMachinesValidation pins the satellite fix: remote-storage specs
// (nil placement) must state the cluster size, and out-of-range ranks
// are rejected for every spec kind instead of being waved through by a
// 2^30 placeholder.
func TestMachinesValidation(t *testing.T) {
	straw, _, gem := specs(t, 16)
	badRank := failure.Schedule{{At: 1, Rank: 999, Kind: cluster.SoftwareFailed}}

	// Remote-storage spec without Machines: rejected outright.
	if _, err := Run(Config{Spec: straw, Horizon: simclock.Day}); err == nil {
		t.Error("remote-storage config without Machines accepted")
	}
	// Remote-storage spec with Machines: out-of-range ranks now caught.
	if _, err := Run(Config{Spec: straw, Machines: 16, Horizon: simclock.Day, Failures: badRank}); err == nil {
		t.Error("rank 999 accepted against a 16-machine remote-storage run")
	}
	// In-range schedule passes.
	ok := failure.Schedule{{At: 1, Rank: 15, Kind: cluster.SoftwareFailed}}
	if _, err := Run(Config{Spec: straw, Machines: 16, Horizon: simclock.Day, Failures: ok}); err != nil {
		t.Errorf("in-range remote-storage run rejected: %v", err)
	}
	// Machines and Placement must agree when both are given.
	if _, err := Run(Config{Spec: gem, Machines: 8, Placement: placement.MustMixed(16, 2), Horizon: simclock.Day}); err == nil {
		t.Error("Machines=8 with a 16-machine placement accepted")
	}
	if _, err := Run(Config{Spec: gem, Machines: -1, Placement: placement.MustMixed(16, 2), Horizon: simclock.Day}); err == nil {
		t.Error("negative Machines accepted")
	}
	if _, err := Run(Config{Spec: gem, Machines: 16, Placement: placement.MustMixed(16, 2), Horizon: simclock.Day}); err != nil {
		t.Errorf("agreeing Machines and placement rejected: %v", err)
	}
}

// Adding a failure can raise the ratio: an earlier failure's recovery
// can absorb a later one and roll back less than the later one alone
// would. The property that holds is narrower: a failure appended after
// the schedule's last recovery has finished never raises the ratio, for
// every spec. The appended failure lands past the last failure plus the
// simultaneity window, so it starts a recovery of its own, and past
// every possible resumption: each recovery starts at its failure or at
// the previous resumption, whichever is later, so the last one ends
// within one maximal downtime per failure of the last failure.
func TestAppendedFailureNeverRaisesRatio(t *testing.T) {
	straw, high, gem := specs(t, 16)
	pl := placement.MustMixed(16, 2)
	rng := rand.New(rand.NewSource(23))
	const horizon = 5 * simclock.Day
	checked := 0
	for k := 0; k < 100; k++ {
		m := failure.Model{PerInstancePerDay: 0.3 * rng.Float64(), HardwareFraction: rng.Float64()}
		fs, err := m.Generate(16, horizon/2, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		var last simclock.Time
		if len(fs) > 0 {
			last = fs[len(fs)-1].At
		}
		window := simclock.Duration(1+9*rng.Float64()) * simclock.Minute
		for _, delay := range []simclock.Duration{0, 5 * simclock.Minute} {
			for _, spec := range []baselines.Spec{straw, high, gem} {
				var maxDown simclock.Duration
				for _, src := range []baselines.RecoverySource{baselines.FromLocal, baselines.FromPeer, baselines.FromRemote} {
					maxDown = max(maxDown, spec.Phases(src, delay).Total())
				}
				earliest := last.Add(window + simclock.Duration(len(fs))*maxDown)
				if earliest >= simclock.Time(horizon) {
					continue
				}
				kind := cluster.SoftwareFailed
				if rng.Intn(2) == 0 {
					kind = cluster.HardwareFailed
				}
				extra := failure.Event{
					At:   earliest.Add(simclock.Duration(rng.Float64()) * simclock.Time(horizon).Sub(earliest)),
					Rank: rng.Intn(16),
					Kind: kind,
				}
				cfg := Config{
					Spec:               spec,
					Machines:           16,
					Failures:           fs,
					Horizon:            horizon,
					ReplacementDelay:   delay,
					SimultaneityWindow: window,
				}
				if spec.UsesCPUMemory {
					cfg.Placement = pl
				}
				before := MustRun(cfg).EffectiveRatio
				cfg.Failures = append(fs[:len(fs):len(fs)], extra)
				after := MustRun(cfg).EffectiveRatio
				if after > before {
					t.Errorf("schedule %d (%d events, window %v, delay %v) %s: appending %+v raised the ratio %.6f → %.6f",
						k, len(fs), window, delay, spec.Name, extra, before, after)
				}
				checked++
			}
		}
	}
	if checked < 500 {
		t.Fatalf("only %d of 600 comparisons placed the appended failure inside the horizon", checked)
	}
}
