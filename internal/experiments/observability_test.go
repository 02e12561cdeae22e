package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"gemini/internal/metrics"
	"gemini/internal/trace"
)

// Tracers and metrics registries are per-run sinks: not locked, one per
// concurrent experiment, merged only after the RunAll barrier. This test
// is the benchtables -trace wiring in miniature and, under `go test
// -race`, the proof that the per-run-sink discipline is actually
// race-free — every worker writes spans and counters while the others
// do the same.
func TestRunAllPerRunSinksUnderRace(t *testing.T) {
	const runs = 8
	exps := make([]Experiment, runs)
	tracers := make([]*trace.Tracer, runs)
	regs := make([]*metrics.Registry, runs)
	for i := range exps {
		tr := trace.NewTracer(nil)
		reg := metrics.NewRegistry()
		tracers[i], regs[i] = tr, reg
		tk := tr.Track("experiments", fmt.Sprintf("run-%d", i))
		id := fmt.Sprintf("exp-%d", i)
		exps[i] = Experiment{
			ID:    id,
			Title: id,
			Run: func() (string, error) {
				tk.Begin(trace.CatExperiments, id)
				defer tk.End()
				for j := 0; j < 100; j++ {
					tk.Instant(trace.CatExperiments, "step")
					reg.Counter("steps").Inc()
					reg.Histogram("work").Observe(float64(i*1000 + j))
				}
				reg.Gauge("last").Set(float64(i))
				return id, nil
			},
		}
	}

	for _, r := range RunAll(context.Background(), exps, 4) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	}

	// Merge after the barrier: every sink saw exactly its own run.
	for i, tr := range tracers {
		tk := tr.Track("experiments", fmt.Sprintf("run-%d", i))
		if n := len(tk.Spans()); n != 1 {
			t.Fatalf("run %d: %d spans, want 1", i, n)
		}
		if n := len(tk.Instants()); n != 100 {
			t.Fatalf("run %d: %d instants, want 100", i, n)
		}
		if got := regs[i].Counter("steps").Value(); got != 100 {
			t.Fatalf("run %d: steps counter %v, want 100", i, got)
		}
		if got := regs[i].Gauge("last").Value(); got != float64(i) {
			t.Fatalf("run %d: gauge %v, want %d", i, got, i)
		}
		h := regs[i].Histogram("work")
		if h.Count() != 100 || h.Sum() != float64(i*100000+4950) {
			t.Fatalf("run %d: histogram count=%d sum=%v", i, h.Count(), h.Sum())
		}
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, tracers...); err != nil {
		t.Fatal(err)
	}
	st, err := trace.StatsFromJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != runs*101 {
		t.Fatalf("merged export has %d events, want %d", st.Events, runs*101)
	}
	if len(st.Processes) != runs {
		t.Fatalf("merged export has %d processes, want %d", len(st.Processes), runs)
	}
}
