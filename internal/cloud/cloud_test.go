package cloud

import (
	"math"
	"testing"

	"gemini/internal/simclock"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ProvisionMin != 4*simclock.Minute || cfg.ProvisionMax != 7*simclock.Minute {
		t.Fatalf("provisioning window [%v, %v], want [4m, 7m] (§7.3)", cfg.ProvisionMin, cfg.ProvisionMax)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplacementDelayWithinWindow(t *testing.T) {
	e := simclock.NewEngine()
	op := MustNewOperator(e, DefaultConfig())
	var delays []simclock.Duration
	for i := 0; i < 10; i++ {
		op.RequestReplacement(i, func(d simclock.Duration) { delays = append(delays, d) })
	}
	e.RunAll()
	if len(delays) != 10 {
		t.Fatalf("%d replacements completed, want 10", len(delays))
	}
	for _, d := range delays {
		if d < 4*simclock.Minute || d > 7*simclock.Minute {
			t.Fatalf("delay %v outside [4m, 7m]", d)
		}
	}
	if op.Requests() != 10 || op.ViaStandby() != 0 {
		t.Fatalf("requests=%d viaStandby=%d", op.Requests(), op.ViaStandby())
	}
}

func TestStandbyReplacementIsFast(t *testing.T) {
	e := simclock.NewEngine()
	cfg := DefaultConfig()
	cfg.Standby = 2
	op := MustNewOperator(e, cfg)
	var delays []simclock.Duration
	for i := 0; i < 3; i++ {
		op.RequestReplacement(i, func(d simclock.Duration) { delays = append(delays, d) })
	}
	e.RunAll()
	if len(delays) != 3 {
		t.Fatalf("%d replacements, want 3", len(delays))
	}
	fast := 0
	for _, d := range delays {
		if d <= cfg.StandbyActivation {
			fast++
		}
	}
	if fast != 2 {
		t.Fatalf("%d fast replacements, want 2 (pool size)", fast)
	}
	if op.ViaStandby() != 2 {
		t.Fatalf("viaStandby=%d, want 2", op.ViaStandby())
	}
	// The pool refills in the background.
	if op.StandbyAvailable() != 2 {
		t.Fatalf("standby pool %d after refill, want 2", op.StandbyAvailable())
	}
}

func TestStandbyRefillServesLaterFailures(t *testing.T) {
	e := simclock.NewEngine()
	cfg := DefaultConfig()
	cfg.Standby = 1
	op := MustNewOperator(e, cfg)
	var first, second simclock.Duration
	op.RequestReplacement(0, func(d simclock.Duration) { first = d })
	// A second failure an hour later hits a refilled pool.
	e.At(simclock.Time(simclock.Hour), func() {
		op.RequestReplacement(1, func(d simclock.Duration) { second = d })
	})
	e.RunAll()
	if first > cfg.StandbyActivation || second > cfg.StandbyActivation {
		t.Fatalf("delays %v / %v, want both via standby", first, second)
	}
}

func TestDeterministicDelays(t *testing.T) {
	run := func() []simclock.Duration {
		e := simclock.NewEngine()
		op := MustNewOperator(e, DefaultConfig())
		var out []simclock.Duration
		for i := 0; i < 5; i++ {
			op.RequestReplacement(i, func(d simclock.Duration) { out = append(out, d) })
		}
		e.RunAll()
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFixedDelayWindow(t *testing.T) {
	e := simclock.NewEngine()
	cfg := Config{ProvisionMin: simclock.Minute, ProvisionMax: simclock.Minute}
	op := MustNewOperator(e, cfg)
	var got simclock.Duration
	op.RequestReplacement(0, func(d simclock.Duration) { got = d })
	e.RunAll()
	if got != simclock.Minute {
		t.Fatalf("delay %v, want exactly 1m", got)
	}
}

func TestValidation(t *testing.T) {
	e := simclock.NewEngine()
	nan := simclock.Duration(math.NaN())
	bad := []Config{
		{ProvisionMin: -1, ProvisionMax: 0},
		{ProvisionMin: 10, ProvisionMax: 5},
		{Standby: -1},
		{StandbyActivation: -1},
		{ProvisionMin: nan, ProvisionMax: 5},
		{ProvisionMin: 1, ProvisionMax: nan},
		{ProvisionMin: 1, ProvisionMax: 5, StandbyActivation: nan},
	}
	for i, cfg := range bad {
		if _, err := NewOperator(e, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	op := MustNewOperator(e, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("nil callback accepted")
		}
	}()
	op.RequestReplacement(0, nil)
}
