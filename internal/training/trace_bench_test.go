package training

import (
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/schedule"
	"gemini/internal/trace"
)

// The tracing-overhead pair: the same executor run with and without a
// tracer attached. The delta is the full cost of span recording across
// training, the fabric, and the copiers; EXPERIMENTS.md quotes it.
func benchExecute(b *testing.B, traced bool) {
	cfg := MustNewConfig(model.MustByName("GPT-2 40B"), cluster.MustInstance("p3dn.24xlarge"), 16)
	tl, prof := derived(b, cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), schedule.SchemeGemini)
		opts.Iterations = 2
		if traced {
			opts.Tracer = trace.NewTracer(nil)
		}
		if _, err := Execute(tl, prof, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteUntraced(b *testing.B) { benchExecute(b, false) }
func BenchmarkExecuteTraced(b *testing.B)   { benchExecute(b, true) }
