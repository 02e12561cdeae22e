package training

import (
	"reflect"
	"testing"

	"gemini/internal/placement"
	"gemini/internal/schedule"
)

// The whole evaluation rests on the simulator being deterministic: the
// same configuration must produce bit-identical results run to run —
// no map-iteration order, wall clock, or scheduling nondeterminism may
// leak into outcomes.
func TestExecutorFullyDeterministic(t *testing.T) {
	cfg := cfg40Bp3dn(t)
	run := func() *ExecResult {
		opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), schedule.SchemeGemini)
		opts.Iterations = 2
		res, err := execute(t, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestTimelineFullyDeterministic(t *testing.T) {
	cfg := cfg100B(t)
	a := MustBuildTimeline(cfg)
	b := MustBuildTimeline(cfg)
	if a.Iteration != b.Iteration || len(a.Ops) != len(b.Ops) {
		t.Fatal("timelines diverged")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d diverged: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
}

func TestOnlineProfileDeterministic(t *testing.T) {
	cfg := cfg40Bp3dn(t)
	a, err := ProfileFromExecution(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileFromExecution(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterationTime != b.IterationTime || len(a.Spans) != len(b.Spans) {
		t.Fatal("online profiles diverged")
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Fatalf("span %d diverged: %+v vs %+v", i, a.Spans[i], b.Spans[i])
		}
	}
}
