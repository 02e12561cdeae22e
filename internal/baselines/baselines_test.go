package baselines

import (
	"math"
	"strings"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/simclock"
	"gemini/internal/tensor"
	"gemini/internal/training"
)

func job(t *testing.T) training.Config {
	t.Helper()
	return training.MustNewConfig(model.MustByName("GPT-2 100B"), cluster.MustInstance("p4d.24xlarge"), 16)
}

func allSpecs(t *testing.T) (Spec, Spec, Spec) {
	t.Helper()
	costs := tensor.DefaultCostModel()
	cfg := job(t)
	tl, err := training.BuildTimeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	straw, err := Strawman(cfg, DefaultRemoteBandwidth, costs)
	if err != nil {
		t.Fatal(err)
	}
	high, err := HighFreq(cfg, tl, DefaultRemoteBandwidth, costs)
	if err != nil {
		t.Fatal(err)
	}
	gem, err := Gemini(cfg, tl, 2, DefaultRemoteBandwidth, costs)
	if err != nil {
		t.Fatal(err)
	}
	return straw, high, gem
}

func TestStrawmanMatchesBLOOMSetup(t *testing.T) {
	straw, _, _ := allSpecs(t)
	if straw.Interval != 3*simclock.Hour {
		t.Fatalf("Strawman interval %v, want 3h", straw.Interval)
	}
	// 1.2 TB over 20 Gbps = 480 s.
	if math.Abs(straw.CheckpointTime.Seconds()-480) > 1 {
		t.Fatalf("Strawman t_ckpt %v, want 480s", straw.CheckpointTime)
	}
	if straw.UsesCPUMemory {
		t.Fatal("Strawman should not use CPU memory")
	}
}

func TestHighFreqSaturatesRemoteStore(t *testing.T) {
	_, high, _ := allSpecs(t)
	// §7.3: HighFreq checkpoints every ⌈t_ckpt/T_iter⌉ ≈ 8–9 iterations,
	// with a per-checkpoint serialization stall ≈ 81 s.
	iters := high.Interval.Seconds() / 60.3
	if iters < 7 || iters > 10 {
		t.Fatalf("HighFreq interval ≈ %.1f iterations, want 8–9", iters)
	}
	if s := high.PerCheckpointStall.Seconds(); math.Abs(s-81) > 8 {
		t.Fatalf("HighFreq stall %.0fs, want ≈81s", s)
	}
	if high.Interval < high.CheckpointTime {
		t.Fatal("HighFreq violates Equation 2: interval below t_ckpt")
	}
}

func TestGeminiSpecMatchesPaper(t *testing.T) {
	_, _, gem := allSpecs(t)
	// Per-iteration checkpointing.
	if iter := gem.Interval.Seconds(); iter < 55 || iter > 70 {
		t.Fatalf("GEMINI interval %.1fs, want one iteration ≈62s", iter)
	}
	// Checkpoint time < 3 s (§7.2).
	if ck := gem.CheckpointTime.Seconds(); ck <= 0 || ck > 3 {
		t.Fatalf("GEMINI t_ckpt %.2fs, want < 3s", ck)
	}
	// Serialization on recovery ≈ 162 s (§7.3).
	if s := gem.SerializeOnRecovery.Seconds(); math.Abs(s-162) > 15 {
		t.Fatalf("GEMINI recovery serialization %.0fs, want ≈162s", s)
	}
	// Peer retrieval < 3 s (§7.2: "less than three seconds").
	if p := gem.RetrievalPeer.Seconds(); p <= 0 || p > 3 {
		t.Fatalf("GEMINI peer retrieval %.2fs, want < 3s", p)
	}
	if !gem.UsesCPUMemory {
		t.Fatal("GEMINI must use CPU memory")
	}
}

func TestFrequencyRatiosMatchFigure12(t *testing.T) {
	straw, high, gem := allSpecs(t)
	// Fig. 12: GEMINI ≈8× HighFreq and >170× Strawman.
	if r := FrequencyRatio(gem, high); r < 6 || r > 10 {
		t.Fatalf("GEMINI/HighFreq frequency ratio %.1f, want ≈8", r)
	}
	if r := FrequencyRatio(gem, straw); r < 150 {
		t.Fatalf("GEMINI/Strawman frequency ratio %.1f, want >170", r)
	}
	if cpd := straw.CheckpointsPerDay(); math.Abs(cpd-8) > 1e-9 {
		t.Fatalf("Strawman %.1f checkpoints/day, want 8", cpd)
	}
}

func TestCheckpointTimeReductionMatchesFigure11(t *testing.T) {
	// At 16 machines and a 400 Gbps network, GEMINI's checkpoint time is
	// >250× shorter than the remote-storage baselines'.
	straw, _, gem := allSpecs(t)
	reduction := straw.CheckpointTime.Seconds() / gem.CheckpointTime.Seconds()
	if reduction < 200 {
		t.Fatalf("checkpoint-time reduction %.0f×, want >250× (Fig. 11)", reduction)
	}
}

func TestAverageWastedMatchesFigure10(t *testing.T) {
	straw, high, gem := allSpecs(t)
	// GEMINI software failure: ≈1.5× the iteration time (§7.2).
	soft := gem.AverageWasted(FromLocal).Seconds()
	iter := gem.Interval.Seconds()
	if soft < 1.3*iter || soft > 1.7*iter {
		t.Fatalf("GEMINI software wasted %.0fs, want ≈1.5×%.0fs", soft, iter)
	}
	// GEMINI peer recovery beats HighFreq by >13× (§7.2).
	peer := gem.AverageWasted(FromPeer).Seconds()
	if ratio := high.AverageWasted(FromRemote).Seconds() / peer; ratio < 13 {
		t.Fatalf("HighFreq/GEMINI wasted ratio %.1f, want >13", ratio)
	}
	// When CPU memory cannot recover, GEMINI degrades to Strawman.
	fallback := gem.AverageWasted(FromRemote).Seconds()
	if math.Abs(fallback-straw.AverageWasted(FromRemote).Seconds()) > 60 {
		t.Fatalf("GEMINI fallback wasted %.0fs, Strawman %.0fs — should degrade to Strawman",
			fallback, straw.AverageWasted(FromRemote).Seconds())
	}
	// Ordering: GEMINI ≪ HighFreq < Strawman.
	if !(peer < high.AverageWasted(FromRemote).Seconds() &&
		high.AverageWasted(FromRemote).Seconds() < straw.AverageWasted(FromRemote).Seconds()) {
		t.Fatal("wasted-time ordering violated")
	}
}

func TestRecoveryDowntimeAnchors(t *testing.T) {
	// §7.3: total recovery overhead ≈7 min for software failures and
	// ≈12 min for hardware failures (without standby machines).
	_, _, gem := allSpecs(t)
	soft := gem.Phases(FromLocal, 0).Total()
	if m := soft.Seconds() / 60; m < 6 || m > 8.5 {
		t.Fatalf("software recovery downtime %.1f min, want ≈7 min", m)
	}
	hw := gem.Phases(FromPeer, 330*simclock.Second).Total() // 5.5 min replacement
	if m := hw.Seconds() / 60; m < 11 || m > 14 {
		t.Fatalf("hardware recovery downtime %.1f min, want ≈12 min", m)
	}
}

func TestSpecValidation(t *testing.T) {
	costs := tensor.DefaultCostModel()
	if _, err := Strawman(job(t), 0, costs); err == nil {
		t.Error("zero remote bandwidth accepted")
	}
	tl, err := training.BuildTimeline(job(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HighFreq(job(t), tl, -1, costs); err == nil {
		t.Error("negative remote bandwidth accepted")
	}
	if _, err := HighFreq(job(t), nil, DefaultRemoteBandwidth, costs); err == nil {
		t.Error("nil timeline accepted for HighFreq")
	}
	if _, err := Gemini(job(t), tl, 0, DefaultRemoteBandwidth, costs); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := Gemini(job(t), tl, 2, 0, costs); err == nil {
		t.Error("zero remote bandwidth accepted for GEMINI")
	}
	if _, err := Gemini(job(t), nil, 2, DefaultRemoteBandwidth, costs); err == nil {
		t.Error("nil timeline accepted for GEMINI")
	}
	bad := Spec{}
	if err := bad.Validate(); err == nil {
		t.Error("empty spec accepted")
	}
	bad = Spec{Name: "x", Interval: -1, RemoteInterval: 1}
	if err := bad.Validate(); err == nil {
		t.Error("negative interval accepted")
	}
}

// Every duration field must be finite and in range, and a bad one is
// rejected by name: NaN fails no plain comparison, so it once passed
// Validate and ran as NaN ratios and wasted times.
func TestSpecValidateRejectsBadDurations(t *testing.T) {
	_, _, gem := allSpecs(t)
	if err := gem.Validate(); err != nil {
		t.Fatal(err)
	}
	nan, inf := simclock.Duration(math.NaN()), simclock.Duration(math.Inf(1))
	fields := []struct {
		name     string
		field    func(*Spec) *simclock.Duration
		positive bool
	}{
		{"interval", func(s *Spec) *simclock.Duration { return &s.Interval }, true},
		{"checkpoint time", func(s *Spec) *simclock.Duration { return &s.CheckpointTime }, false},
		{"completion lag", func(s *Spec) *simclock.Duration { return &s.CompletionLag }, false},
		{"per-checkpoint stall", func(s *Spec) *simclock.Duration { return &s.PerCheckpointStall }, false},
		{"serialize-on-recovery stall", func(s *Spec) *simclock.Duration { return &s.SerializeOnRecovery }, false},
		{"local retrieval time", func(s *Spec) *simclock.Duration { return &s.RetrievalLocal }, false},
		{"peer retrieval time", func(s *Spec) *simclock.Duration { return &s.RetrievalPeer }, false},
		{"remote retrieval time", func(s *Spec) *simclock.Duration { return &s.RetrievalRemote }, false},
		{"remote interval", func(s *Spec) *simclock.Duration { return &s.RemoteInterval }, true},
	}
	for _, f := range fields {
		bad := []simclock.Duration{nan, inf, -inf, -1}
		if f.positive {
			bad = append(bad, 0)
		} else {
			zero := gem
			*f.field(&zero) = 0
			if err := zero.Validate(); err != nil {
				t.Errorf("%s = 0 rejected: %v", f.name, err)
			}
		}
		for _, v := range bad {
			s := gem
			*f.field(&s) = v
			err := s.Validate()
			if err == nil {
				t.Errorf("%s = %v accepted", f.name, v)
			} else if !strings.Contains(err.Error(), gem.Name+" "+f.name+" is ") {
				t.Errorf("%s = %v: error %q does not name the field", f.name, v, err)
			}
		}
	}
}

func TestRecoverySourceString(t *testing.T) {
	names := map[RecoverySource]string{
		FromLocal: "local", FromPeer: "peer", FromRemote: "remote",
		RecoverySource(9): "RecoverySource(9)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestBaselineRetrievalIgnoresSource(t *testing.T) {
	straw, _, _ := allSpecs(t)
	if straw.Retrieval(FromLocal) != straw.Retrieval(FromRemote) {
		t.Fatal("remote-storage solution should pay remote retrieval regardless of source")
	}
}
