package gemini

import (
	"reflect"
	"strings"
	"testing"
)

// Option arguments are validated when NewJob applies them: a bad value
// must fail job construction with a descriptive error naming the
// option, never misbehave deep inside a run.
func TestOptionArgumentsValidatedAtNewJob(t *testing.T) {
	spec := JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16}
	cases := []struct {
		name string
		opt  Option
		want string // substring the error must carry
	}{
		{"replicas zero", WithReplicas(0), "WithReplicas(0)"},
		{"replicas negative", WithReplicas(-2), "WithReplicas(-2)"},
		{"nil faults", WithFaults(nil), "WithFaults(nil)"},
		{"unknown strategy", WithStrategy("raid0"), `unknown strategy "raid0"`},
		{"empty strategy", WithStrategy(""), "unknown strategy"},
		{"nil tracer", WithTracer(nil), "WithTracer(nil)"},
		{"nil metrics", WithMetrics(nil), "WithMetrics(nil)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewJob(spec, tc.opt)
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
// option validation, job derivation, and control-plane assembly.
func TestWithStrategyReachesRecoverySystem(t *testing.T) {
	for _, name := range StrategyNames() {
		job, err := NewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
			WithStrategy(name))
		if err != nil {
			t.Fatalf("NewJob(WithStrategy(%q)): %v", name, err)
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

// WithTracer/WithMetrics attach through the spec: RecoverySystem wires
// them in and ExecuteScheme picks them up.
func TestObservabilityOptionsAttach(t *testing.T) {
	tr := NewTracer()
	reg := NewMetricsRegistry()
	job, err := NewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
		WithTracer(tr), WithMetrics(reg))
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
		t.Fatal("WithMetrics registry stayed empty after a monitored run")
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
