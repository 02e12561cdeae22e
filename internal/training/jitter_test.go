package training

import (
	"math"
	"testing"
	"testing/quick"

	"gemini/internal/schedule"
	"gemini/internal/simclock"
)

func TestJitteredProfileMeasuresVariance(t *testing.T) {
	tl := MustBuildTimeline(cfg40Bp3dn(t))
	clean, err := tl.ProfileWithJitter(20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clean.NormalizedStdDev > 1e-6 {
		t.Fatalf("zero jitter gave stddev %v", clean.NormalizedStdDev)
	}
	jittered, err := tl.ProfileWithJitter(20, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A ±8% pace jitter must register as a nonzero but sub-10% normalized
	// deviation — the band the paper reports (§5.4).
	if jittered.NormalizedStdDev <= 0 || jittered.NormalizedStdDev > 0.12 {
		t.Fatalf("jittered stddev %v, want in (0, 0.12]", jittered.NormalizedStdDev)
	}
	// Determinism per seed.
	again, err := tl.ProfileWithJitter(20, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.NormalizedStdDev != jittered.NormalizedStdDev {
		t.Fatal("same seed gave different profiles")
	}
}

func TestProfileWithJitterValidation(t *testing.T) {
	tl := MustBuildTimeline(cfg40Bp3dn(t))
	for _, tc := range []struct {
		name   string
		window int
		frac   float64
	}{
		{"negative jitter", 5, -0.1},
		{"jitter of one", 5, 1.0},
		{"NaN jitter", 5, math.NaN()},
		{"+Inf jitter", 5, math.Inf(1)},
		{"-Inf jitter", 5, math.Inf(-1)},
		{"zero window", 0, 0.1},
	} {
		if prof, err := tl.ProfileWithJitter(tc.window, tc.frac, 1); err == nil {
			t.Errorf("%s: accepted, profile %+v", tc.name, prof)
		}
	}
}

func TestAutoGammaBands(t *testing.T) {
	if g := schedule.AutoGamma(0); g != 1 {
		t.Fatalf("AutoGamma(0) = %v, want 1", g)
	}
	if g := schedule.AutoGamma(0.10); math.Abs(g-0.8) > 1e-12 {
		t.Fatalf("AutoGamma(0.10) = %v, want 0.8", g)
	}
	if g := schedule.AutoGamma(0.5); g != 0.5 {
		t.Fatalf("AutoGamma(0.5) = %v, want clamp at 0.5", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative stddev accepted")
		}
	}()
	schedule.AutoGamma(-1)
}

// The property the γ guard exists for: plan against the mean profile with
// AutoGamma, then realize iterations whose idle spans shrink by up to the
// profiled deviation — the per-span chunk traffic must still fit the
// shrunken spans (no new overflow beyond the plan's own).
func TestPropertyAutoGammaSurvivesShrunkenSpans(t *testing.T) {
	tl := MustBuildTimeline(cfg40Bp3dn(t))
	cfg := tl.Config
	f := func(seedRaw uint16, fracRaw uint8) bool {
		frac := float64(fracRaw%9) / 100 // 0–8% jitter
		prof, err := tl.ProfileWithJitter(20, frac, int64(seedRaw)+1)
		if err != nil {
			return false
		}
		gamma := schedule.AutoGamma(prof.NormalizedStdDev)
		params := schedule.Params{
			Spans:                prof.Spans,
			CheckpointBytes:      cfg.ShardBytesPerMachine(),
			Replicas:             2,
			BufferBytes:          8 * 128e6,
			BufferParts:          4,
			BandwidthBytesPerSec: cfg.Instance.NetworkBytesPerSec,
			Alpha:                cfg.Calib.CollectiveAlpha,
			Gamma:                gamma,
		}
		plan, err := schedule.Partition(params)
		if err != nil {
			return false
		}
		// Realize a bad iteration: every span shrunk by one profiled
		// deviation. The scheduled per-span traffic must still fit.
		shrink := 1 - prof.NormalizedStdDev
		for i, span := range prof.Spans {
			var need simclock.Duration
			for _, c := range plan.Chunks {
				if c.Span == i {
					need += params.Alpha + simclock.Duration(c.Bytes/params.BandwidthBytesPerSec)
				}
			}
			realized := simclock.Duration(float64(span.Length) * shrink)
			if need > realized+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
