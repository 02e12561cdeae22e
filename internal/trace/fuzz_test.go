package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/schedule"
	"gemini/internal/trace"
	"gemini/internal/training"
)

// FuzzLint feeds arbitrary bytes to the trace linter. Lint must never
// panic, and must report the same findings for the same document. The
// corpus is seeded with the export of a small traced executor run
// (GPT-2 10B on 2 × p4d, Gemini, one measured iteration), which must
// lint clean, and with a few hand-built defects.
func FuzzLint(f *testing.F) {
	cfg := training.MustNewConfig(model.MustByName("GPT-2 10B"), cluster.MustInstance("p4d.24xlarge"), 2)
	tl := training.MustBuildTimeline(cfg)
	prof, err := tl.Profile(schedule.DefaultProfileWindow)
	if err != nil {
		f.Fatal(err)
	}
	opts := training.DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), schedule.SchemeGemini)
	opts.Iterations = 1
	// 16 GB chunks keep the export small (about 1,200 events).
	opts.BufferBytes, opts.GPUBudgetBytes = 64e9, 64e9
	opts.Tracer = trace.NewTracer(nil)
	if _, err := training.Execute(tl, prof, opts); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, opts.Tracer); err != nil {
		f.Fatal(err)
	}
	issues, err := trace.Lint(buf.Bytes())
	if err != nil || len(issues) != 0 {
		f.Fatalf("executor trace export lints with %v, error %v; want clean", issues, err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[{"ph":"E","pid":1,"tid":1,"name":"stray"},{"ph":"B","pid":1,"tid":2,"name":"open"}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"C","pid":2,"tid":3,"name":"lost","args":{"v":1}}]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		issues, err := trace.Lint(data)
		if err != nil {
			return
		}
		again, _ := trace.Lint(data)
		if !reflect.DeepEqual(issues, again) {
			t.Fatalf("Lint is not deterministic: %v then %v", issues, again)
		}
	})
}
