package gemini

import (
	"math"
	"testing"

	"gemini/internal/chaos"
	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/training"
)

// The facade tests exercise the README quickstart path end to end.

func TestQuickstartPath(t *testing.T) {
	job, err := NewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	if iter := job.Timeline.Iteration.Seconds(); iter < 55 || iter > 70 {
		t.Fatalf("iteration %.1fs, want ≈62s", iter)
	}
	if p := job.RecoveryProbability(2); math.Abs(p-0.933) > 0.01 {
		t.Fatalf("recovery probability %.3f, want 0.933", p)
	}
	res, err := job.ExecuteScheme(SchemeGemini)
	if err != nil {
		t.Fatal(err)
	}
	if ov := res.Overhead(); ov > 0.02 {
		t.Fatalf("overhead %.2f%%, want ≈0", ov*100)
	}
}

// JobSpec.Model and JobSpec.Instance name rows of these catalogs.
func TestCatalogsExposed(t *testing.T) {
	if n := len(model.Table2()); n != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", n)
	}
	if n := len(cluster.Table1()); n != 7 {
		t.Fatalf("Table 1 has %d rows, want 7", n)
	}
}

func TestPlacementHelpersExposed(t *testing.T) {
	p, err := NewPlacement(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := placement.Ring(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	pg := RecoveryProbabilityExact(p, 3)
	pr := RecoveryProbabilityExact(r, 3)
	if pg <= pr {
		t.Fatalf("group %v should beat ring %v", pg, pr)
	}
	c, err := placement.Corollary1(16, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-0.8) > 1e-9 {
		t.Fatalf("Corollary1 = %v, want 0.8", c)
	}
	if mc := placement.MonteCarlo(p, 3, 50_000, 1); math.Abs(mc-pg) > 0.02 {
		t.Fatalf("Monte Carlo %v far from exact %v", mc, pg)
	}
}

func TestParallelismExtensionExposed(t *testing.T) {
	job, err := NewJob(JobSpec{
		Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16,
		Parallelism: training.DataParallel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Plan.Fits {
		t.Fatal("data-parallel idle time should absorb the checkpoint")
	}
	// The fluid interference executor is ZeRO-3-specific.
	if _, err := job.ExecuteScheme(SchemeGemini); err == nil {
		t.Fatal("executor accepted a non-ZeRO-3 job")
	}
}

func TestOptionsOverrideSpecFields(t *testing.T) {
	job, err := NewJob(JobSpec{
		Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16,
		Replicas: 2, RemoteBandwidth: 5e9, Parallelism: training.DataParallel,
	}, WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	if job.Spec.Replicas != 3 || job.Spec.RemoteBandwidth != 5e9 || job.Spec.Parallelism != training.DataParallel {
		t.Fatalf("options not applied: %+v", job.Spec)
	}
	if job.Placement.M != 3 {
		t.Fatalf("placement built with m=%d, want 3", job.Placement.M)
	}
}

func TestFaultScheduleValidatedAtJobConstruction(t *testing.T) {
	bad := FaultSchedule{{At: 10, Kind: chaos.KindPartitionHeal}} // heal with no open partition
	if _, err := NewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
		WithFaults(bad)); err == nil {
		t.Fatal("invalid fault schedule accepted")
	}
	// Out-of-range rank for this cluster size.
	oob := FaultSchedule{{At: 0, Kind: chaos.KindCrash, Ranks: []int{99}, Machine: HardwareFailure}}
	if _, err := NewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
		WithFaults(oob)); err == nil {
		t.Fatal("out-of-range fault rank accepted")
	}
}

func TestFaultsArmAgainstRecoverySystem(t *testing.T) {
	sched, err := Faults().
		Crash(Time(200*Second), 5, HardwareFailure).
		Build(16)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
		WithFaults(sched))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCloudConfig()
	cfg.Standby = 1
	engine, sys, err := job.RecoverySystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	engine.Run(Time(40 * job.Timeline.Iteration))
	if sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1 from the armed schedule", sys.Recoveries())
	}
	if evs := sys.Log().Filter("failure"); len(evs) != 1 {
		t.Fatalf("%d injections traced, want 1", len(evs))
	}
	if !sys.Training() {
		t.Fatal("training did not resume after the armed fault")
	}
}

func TestRackAwarePlacementExposed(t *testing.T) {
	aligned, err := NewPlacement(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	rackAware, err := NewRackAwarePlacement(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	racks, err := Racks(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(racks) != 8 {
		t.Fatalf("%d racks, want 8", len(racks))
	}
	pa, err := CorrelatedRecoveryProbability(aligned, racks, 1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := CorrelatedRecoveryProbability(rackAware, racks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0 || pr != 1 {
		t.Fatalf("single-rack loss: aligned %v (want 0), rack-aware %v (want 1)", pa, pr)
	}
	// Under independent failures the two layouts are indistinguishable.
	if a, r := RecoveryProbabilityExact(aligned, 2), RecoveryProbabilityExact(rackAware, 2); a != r {
		t.Fatalf("independent k=2: aligned %v != rack-aware %v", a, r)
	}
}

func TestFailureHelpersExposed(t *testing.T) {
	fs, err := FixedFailureRate(16, 4, 0.5, Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 4 {
		t.Fatalf("%d failures, want 4", len(fs))
	}
	m := OPTFailureModel()
	if m.PerInstancePerDay != 0.015 {
		t.Fatal("OPT model rate wrong")
	}
	cc := DefaultCloudConfig()
	if cc.ProvisionMin != 4*Minute {
		t.Fatal("cloud config wrong")
	}
}

func TestFailSetKernelExposed(t *testing.T) {
	p, err := NewPlacement(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	set := placement.NewFailSet(16)
	// Ranks 0 and 1 form a group under Algorithm 1 at N=16, m=2: losing
	// both erases their shards; losing 0 and 2 does not.
	set.Set(0)
	set.Set(2)
	if !p.SurvivesFailed([]int{0, 2}, set) {
		t.Fatal("cross-group pair should survive")
	}
	set.Clear(2)
	set.Set(1)
	if p.SurvivesFailed([]int{0, 1}, set) {
		t.Fatal("whole-group failure should not survive")
	}
	if !p.Survives(map[int]bool{0: true, 2: true}) {
		t.Fatal("map wrapper should agree")
	}
}
