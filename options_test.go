package gemini

import (
	"reflect"
	"strings"
	"testing"

	"gemini/internal/chaos"
)

// The JobSpec fields that configure a run are validated when NewJob
// derives the job: a bad value must fail job construction with a
// descriptive error, never misbehave deep inside a run. A zero field
// means the default or off, so only values that are wrong in the field
// itself have a case here.
func TestOptionArgumentsValidatedAtNewJob(t *testing.T) {
	cases := []struct {
		name string
		edit func(*JobSpec)
		want string // substring the error must carry
	}{
		{"unknown strategy", func(s *JobSpec) { s.Strategy = "raid0" }, `unknown strategy "raid0"`},
		{"replicas negative", func(s *JobSpec) { s.Replicas = -2 }, "replicas m=-2 out of range"},
		{"fault rank out of range", func(s *JobSpec) {
			s.Faults = FaultSchedule{{At: 0, Kind: chaos.KindCrash, Ranks: []int{16}, Machine: HardwareFailure}}
		}, "rank 16 out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16}
			tc.edit(&spec)
			_, err := NewJob(spec)
			if err == nil {
				t.Fatalf("NewJob accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestStrategyNamesExposed(t *testing.T) {
	want := []string{"adaptive", "gemini", "sparse", "tiered"}
	if got := StrategyNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StrategyNames() = %v, want %v", got, want)
	}
}

// Every registered strategy name must survive the full facade path:
// name validation, job derivation, and control-plane assembly.
func TestWithStrategyReachesRecoverySystem(t *testing.T) {
	for _, name := range StrategyNames() {
		job, err := NewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16,
			Strategy: name})
		if err != nil {
			t.Fatalf("NewJob(Strategy %q): %v", name, err)
		}
		if job.Spec.Strategy != name {
			t.Fatalf("spec carries strategy %q, want %q", job.Spec.Strategy, name)
		}
		engine, sys, err := job.RecoverySystem(DefaultCloudConfig())
		if err != nil {
			t.Fatalf("RecoverySystem(%q): %v", name, err)
		}
		if got := sys.Strategy().Name(); got != name {
			t.Fatalf("system runs strategy %q, want %q", got, name)
		}
		sys.Start()
		engine.Run(Time(5 * job.Timeline.Iteration))
		if sys.Iteration() == 0 {
			t.Fatalf("strategy %q: training never advanced", name)
		}
	}
}

// The facade's cache stats and export surface reflect cache traffic: a
// repeated spec is a hit on the shared artifacts.
func TestDerivationCacheStatsSurface(t *testing.T) {
	spec := JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16}
	first, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	before := DerivationCacheStats()
	second, err := NewJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	after := DerivationCacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("repeated spec was not one cache hit: %+v → %+v", before, after)
	}
	if second.Timeline != first.Timeline || second.Plan != first.Plan {
		t.Fatal("repeated spec did not share the cached artifacts")
	}

	reg := NewMetricsRegistry()
	ExportDerivationCacheMetrics(reg)
	found := false
	for _, kv := range reg.Snapshot() {
		if strings.HasPrefix(kv.Name, "derive.cache.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("ExportDerivationCacheMetrics left no derive.cache.* instruments")
	}
}

// JobSpec.Tracer and JobSpec.Metrics attach through the spec:
// RecoverySystem wires them in and ExecuteScheme picks them up.
func TestObservabilityOptionsAttach(t *testing.T) {
	tr := NewTracer()
	reg := NewMetricsRegistry()
	job, err := NewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16,
		Tracer: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	engine, sys, err := job.RecoverySystem(DefaultCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	engine.Run(Time(3 * job.Timeline.Iteration))
	snap := reg.Snapshot()
	if len(snap) == 0 {
		t.Fatal("JobSpec.Metrics registry stayed empty after a monitored run")
	}
	found := false
	for _, kv := range snap {
		if strings.HasPrefix(kv.Name, "health.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no health.* instruments in %v", snap)
	}
	if _, err := job.ExecuteScheme(SchemeGemini); err != nil {
		t.Fatal(err)
	}
}
