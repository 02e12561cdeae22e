package training

import (
	"math"
	"strings"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/simclock"
)

func cfg100B(t *testing.T) Config {
	t.Helper()
	return MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
}

func cfg40Bp3dn(t *testing.T) Config {
	t.Helper()
	return MustNewConfig(model.MustByName("GPT-2 40B"), cluster.MustInstance("p3dn.24xlarge"), 16)
}

func TestTimelineCalibrationGPT2100B(t *testing.T) {
	// The paper's anchor: GPT-2 100B on 16 p4d.24xlarge runs ≈62 s
	// iterations (§7.2) with ≈12 s of network idle time (Fig. 8).
	tl := MustBuildTimeline(cfg100B(t))
	iter := tl.Iteration.Seconds()
	if iter < 55 || iter > 70 {
		t.Errorf("iteration time %.1fs, want ≈62s", iter)
	}
	idle := tl.IdleTime().Seconds()
	if idle < 8 || idle > 18 {
		t.Errorf("network idle time %.1fs, want ≈12s", idle)
	}
}

func TestTimelineCalibrationP3dn40B(t *testing.T) {
	// Fig. 13a: GPT-2 40B on 16 p3dn.24xlarge ≈ 40–45 s iterations.
	tl := MustBuildTimeline(cfg40Bp3dn(t))
	iter := tl.Iteration.Seconds()
	if iter < 33 || iter > 52 {
		t.Errorf("iteration time %.1fs, want ≈42s", iter)
	}
	if idle := tl.IdleTime().Seconds(); idle <= 0 {
		t.Errorf("idle time %.1fs, want positive", idle)
	}
}

func TestTimelineOpsWellFormed(t *testing.T) {
	tl := MustBuildTimeline(cfg100B(t))
	L := tl.Config.Model.Layers
	var ag, rs, comp, upd int
	for _, op := range tl.Ops {
		if op.End < op.Start {
			t.Fatalf("op %s ends before it starts", op.Label)
		}
		if op.End > tl.Iteration+1e-9 {
			t.Fatalf("op %s (%v) extends past iteration end %v", op.Label, op.End, tl.Iteration)
		}
		switch op.Kind {
		case OpAllGather:
			ag++
		case OpReduceScatter:
			rs++
		case OpCompute:
			comp++
		case OpUpdate:
			upd++
		}
	}
	if ag != 2*L {
		t.Errorf("%d all-gathers, want %d (fwd+bwd per layer)", ag, 2*L)
	}
	if rs != L {
		t.Errorf("%d reduce-scatters, want %d", rs, L)
	}
	if comp != 2*L {
		t.Errorf("%d compute steps, want %d", comp, 2*L)
	}
	if upd != 1 {
		t.Errorf("%d update phases, want 1", upd)
	}
}

func TestTimelineComputeOpsSerial(t *testing.T) {
	tl := MustBuildTimeline(cfg40Bp3dn(t))
	var prevEnd simclock.Duration
	for _, op := range tl.Ops {
		if op.Kind != OpCompute && op.Kind != OpUpdate {
			continue
		}
		if op.Start < prevEnd-1e-9 {
			t.Fatalf("compute op %s starts %v before previous ended %v", op.Label, op.Start, prevEnd)
		}
		prevEnd = op.End
	}
}

func TestTimelineCommOpsSerial(t *testing.T) {
	tl := MustBuildTimeline(cfg40Bp3dn(t))
	var prevEnd simclock.Duration
	for _, op := range tl.CommOps() {
		if op.Start < prevEnd-1e-9 {
			t.Fatalf("comm op %s starts %v before previous ended %v (single comm stream)", op.Label, op.Start, prevEnd)
		}
		prevEnd = op.End
	}
}

func TestTimelineUpdatePhaseIsNetworkIdle(t *testing.T) {
	tl := MustBuildTimeline(cfg100B(t))
	var upd TimedOp
	for _, op := range tl.Ops {
		if op.Kind == OpUpdate {
			upd = op
		}
	}
	if upd.End <= upd.Start {
		t.Fatal("update phase missing or empty")
	}
	for _, op := range tl.CommOps() {
		if op.End > upd.Start+1e-9 {
			t.Fatalf("comm op %s overlaps the update phase", op.Label)
		}
	}
}

func TestTimelineProfileStable(t *testing.T) {
	tl := MustBuildTimeline(cfg100B(t))
	prof, err := tl.Profile(20)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Iterations != 20 {
		t.Fatalf("profiled %d iterations, want 20", prof.Iterations)
	}
	if prof.NormalizedStdDev > 1e-6 {
		t.Fatalf("identical iterations yielded stddev %v", prof.NormalizedStdDev)
	}
	if math.Abs((prof.IterationTime - tl.Iteration).Seconds()) > 1e-6 {
		t.Fatalf("profiled iteration %v != timeline %v", prof.IterationTime, tl.Iteration)
	}
	if math.Abs((prof.TotalIdle() - tl.IdleTime()).Seconds()) > 1e-6 {
		t.Fatalf("profiled idle %v != timeline idle %v", prof.TotalIdle(), tl.IdleTime())
	}
}

func TestTimelineIdleFitsCheckpointTraffic(t *testing.T) {
	// The load-bearing claim of §7.2: the idle time accommodates one
	// remote checkpoint replica at wire speed for the 100B models.
	cfg := cfg100B(t)
	tl := MustBuildTimeline(cfg)
	shard := cfg.ShardBytesPerMachine()
	wireTime := shard / cfg.Instance.NetworkBytesPerSec
	if idle := tl.IdleTime().Seconds(); idle < wireTime {
		t.Fatalf("idle %.1fs cannot carry the %.1fs checkpoint transfer", idle, wireTime)
	}
}

func TestBiggerModelLongerIteration(t *testing.T) {
	it := cluster.MustInstance("p3dn.24xlarge")
	prev := simclock.Duration(0)
	for _, name := range []string{"GPT-2 10B", "GPT-2 20B", "GPT-2 40B"} {
		tl := MustBuildTimeline(MustNewConfig(model.MustByName(name), it, 16))
		if tl.Iteration <= prev {
			t.Fatalf("%s iteration %v not longer than previous %v", name, tl.Iteration, prev)
		}
		prev = tl.Iteration
	}
}

func TestFitsInGPUMemory(t *testing.T) {
	// 100B fits on 16 p4d; the paper says growing further OOMs.
	if !cfg100B(t).FitsInGPUMemory() {
		t.Error("GPT-2 100B should fit on 16 p4d machines")
	}
	big := MustNewConfig(model.Config{
		Family: model.GPT2, NominalParams: 200e9, HiddenSize: 8192, Intermediate: 32768,
		Layers: 248, AttentionHeads: 64, VocabSize: 50265, SeqLen: 512, MicroBatch: 8,
	}, cluster.MustInstance("p4d.24xlarge"), 16)
	if big.FitsInGPUMemory() {
		t.Error("a 200B model should not fit on 16 p4d machines")
	}
	// 40B fits on 16 p3dn (the largest the paper trains there); the 100B
	// configuration does not.
	if !cfg40Bp3dn(t).FitsInGPUMemory() {
		t.Error("GPT-2 40B should fit on 16 p3dn machines")
	}
	p3dn100 := MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p3dn.24xlarge"), 16)
	if p3dn100.FitsInGPUMemory() {
		t.Error("GPT-2 100B should not fit on 16 p3dn machines")
	}
}

func TestConfigValidation(t *testing.T) {
	good := cfg100B(t)
	bad := good
	bad.Machines = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero machines accepted")
	}
	bad = good
	bad.Calib.MFU = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MFU accepted")
	}
	bad = good
	bad.Calib.CollectiveEfficiency = 2
	if err := bad.Validate(); err == nil {
		t.Error("efficiency > 1 accepted")
	}
	bad = good
	bad.Calib.CollectiveAlpha = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative alpha accepted")
	}
	bad = good
	bad.Calib.UpdatePhaseSecondsPerGB = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative update cost accepted")
	}
	if _, err := BuildTimeline(bad); err == nil {
		t.Error("BuildTimeline accepted invalid config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuildTimeline on bad config did not panic")
		}
	}()
	MustBuildTimeline(bad)
}

// Every calibration float fails Validate on NaN and ±Inf with an error
// naming the field.
func TestCalibrationValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Calibration, float64)
	}{
		{"MFU", func(c *Calibration, v float64) { c.MFU = v }},
		{"CollectiveEfficiency", func(c *Calibration, v float64) { c.CollectiveEfficiency = v }},
		{"CollectiveAlpha", func(c *Calibration, v float64) { c.CollectiveAlpha = simclock.Duration(v) }},
		{"UpdatePhaseSecondsPerGB", func(c *Calibration, v float64) { c.UpdatePhaseSecondsPerGB = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c := cfg100B(t).Calib
			f.set(&c, v)
			if err := c.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: error %v, want one naming %s", f.name, v, err, f.name)
			}
		}
	}
}

func TestOpKindString(t *testing.T) {
	names := map[OpKind]string{
		OpAllGather: "all-gather", OpReduceScatter: "reduce-scatter",
		OpCompute: "compute", OpUpdate: "update", OpKind(9): "OpKind(9)",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestScalingStaysBounded(t *testing.T) {
	// Strong scaling of ZeRO-3 collectives degrades with N (the ring
	// latency term grows), but doubling the machines must not blow the
	// iteration time up by more than a modest factor at this scale.
	m := model.MustByName("GPT-2 100B")
	it := cluster.MustInstance("p4d.24xlarge")
	t16 := MustBuildTimeline(MustNewConfig(m, it, 16)).Iteration
	t32 := MustBuildTimeline(MustNewConfig(m, it, 32)).Iteration
	if t32 > t16*13/10 {
		t.Fatalf("32-machine iteration %v more than 30%% over 16-machine %v", t32, t16)
	}
}
