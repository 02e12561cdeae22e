package agent_test

import (
	"testing"

	"gemini/internal/agent"
	"gemini/internal/chaos"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/core"
	"gemini/internal/simclock"
)

// runLadder runs GPT-2 100B on 16 p4d machines under the given faults
// and the named strategy, with the default options, and checks after
// every event that no rank trains on a failed machine.
func runLadder(t *testing.T, strategy string, horizon simclock.Time, b *chaos.Builder) *agent.System {
	t.Helper()
	job, err := core.NewJob(core.JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16,
		Strategy: strategy, Faults: b.MustBuild(16)})
	if err != nil {
		t.Fatal(err)
	}
	engine, sys, err := job.RecoverySystem(cloud.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	for engine.PeekTime() <= horizon && engine.Step() {
		if stuck := sys.StuckRanks(); sys.Training() && len(stuck) > 0 {
			t.Fatalf("%s at %v: ranks %v train on failed machines", strategy, engine.Now(), stuck)
		}
	}
	return sys
}

var strategies = []string{"gemini", "tiered", "sparse", "adaptive"}

// TestPartitionHealedThenCrashedRankIsNotLeftTraining: rank 11 is
// partitioned, detected, heals mid-recovery and then crashes before
// the recovery resumes. The serialize step found it Healthy, so the
// resume must not hand its failed machine a live worker; it waits for
// the next wave, which restarts it.
func TestPartitionHealedThenCrashedRankIsNotLeftTraining(t *testing.T) {
	for _, name := range strategies {
		b := chaos.NewBuilder()
		b.Partition(simclock.Time(10.85*float64(simclock.Minute)), 5.05*simclock.Minute, 11)
		b.Crash(simclock.Time(17.33*float64(simclock.Minute)), 11, cluster.SoftwareFailed)
		sys := runLadder(t, name, simclock.Time(2*simclock.Hour), b)
		if !sys.Training() || sys.Recoveries() < 2 {
			t.Fatalf("%s: training=%v after %d recoveries, want training after ≥ 2", name, sys.Training(), sys.Recoveries())
		}
	}
}

// TestHardwareFailureOfDownRankIsRecorded: rank 11 software-crashes,
// and its machine then fails outright while the recovery is in flight,
// once during the serialize step and once later. Neither hardware
// failure may be dropped because the worker is already down: each is
// logged, and some recovery replaces the machine.
func TestHardwareFailureOfDownRankIsRecorded(t *testing.T) {
	for _, hw := range []float64{11.5, 14.5} {
		for _, name := range strategies {
			b := chaos.NewBuilder()
			b.Crash(simclock.Time(10.85*float64(simclock.Minute)), 11, cluster.SoftwareFailed)
			b.Crash(simclock.Time(hw*float64(simclock.Minute)), 11, cluster.HardwareFailed)
			sys := runLadder(t, name, simclock.Time(2*simclock.Hour), b)
			if n := len(sys.Log().Filter("failure")); n != 2 {
				t.Errorf("hardware at %v min, %s: %d failure events, want 2", hw, name, n)
			}
			if n := len(sys.Log().Filter("replaced")); n != 1 {
				t.Errorf("hardware at %v min, %s: %d replacements, want 1", hw, name, n)
			}
			hardware := false
			for _, ev := range sys.WastedEvents() {
				hardware = hardware || ev.Hardware
			}
			if !hardware || !sys.Training() {
				t.Errorf("hardware at %v min, %s: hardware wave %v, training %v; want both", hw, name, hardware, sys.Training())
			}
		}
	}
}
