package training

import (
	"math"
	"reflect"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/schedule"
)

// FuzzExecuteOptions runs the executor on a small job (GPT-2 10B on
// 2 × p4d, one measured iteration) under any scheme value, buffer size,
// sub-buffer count, γ and GPU budget. Every input must return an error
// or a result, never panic, and must rerun to an equal result. A scheme
// that moves checkpoint bytes and does not OOM must complete its
// checkpoint, so its wall time is positive.
func FuzzExecuteOptions(f *testing.F) {
	cfg := MustNewConfig(model.MustByName("GPT-2 10B"), cluster.MustInstance("p4d.24xlarge"), 2)
	tl := MustBuildTimeline(cfg)
	prof, err := tl.Profile(schedule.DefaultProfileWindow)
	if err != nil {
		f.Fatal(err)
	}
	pl := placement.MustMixed(cfg.Machines, 2)
	for s := schedule.SchemeBaseline; s <= schedule.SchemeGemini; s++ {
		f.Add(int(s), float64(schedule.DefaultBufferBytes), schedule.DefaultBufferParts,
			schedule.DefaultGamma, float64(schedule.DefaultGPUBudgetBytes))
	}
	f.Add(int(schedule.SchemeNaive), 1e9, 1, 1.0, 1e15)         // Naive with room to run
	f.Add(int(schedule.SchemeGemini), 1e6, 64, 0.5, 1e9)        // fine chunks
	f.Add(int(schedule.SchemeBlocking), 1e3, 1, 0.9, 1e9)       // past the chunk limit
	f.Add(int(schedule.SchemeGemini), math.NaN(), 4, 0.9, 1e9)  // bad buffer size
	f.Add(int(schedule.SchemeNoPipeline), 1e9, 0, 0.9, 1e9)     // no sub-buffers
	f.Add(int(schedule.SchemeGemini), 1e9, 4, math.Inf(1), 1e9) // bad γ
	f.Add(int(schedule.SchemeNaive), 1e9, 4, 0.9, math.Inf(-1)) // bad budget
	f.Add(7, 1e9, 4, 0.9, 1e9)                                  // unknown scheme
	// Copied bytes that once summed to a residue above the old 1e-6
	// completion threshold, so the checkpoint never completed.
	f.Add(int(schedule.SchemeNaive), 1.000000007e9, 35, 0.1111111111111111, 1e15)
	f.Fuzz(func(t *testing.T, scheme int, bufferBytes float64, bufferParts int, gamma, budget float64) {
		opts := DefaultExecOptions(pl, schedule.Scheme(scheme))
		opts.BufferBytes, opts.BufferParts = bufferBytes, bufferParts
		opts.Gamma, opts.GPUBudgetBytes = gamma, budget
		opts.Iterations = 1
		res, err := Execute(tl, prof, opts)
		if (res == nil) == (err == nil) {
			t.Fatalf("Execute returned result %+v and error %v; want exactly one", res, err)
		}
		again, errAgain := Execute(tl, prof, opts)
		if !reflect.DeepEqual(res, again) || (err == nil) != (errAgain == nil) ||
			(err != nil && err.Error() != errAgain.Error()) {
			t.Fatalf("Execute is not deterministic: %+v, %v then %+v, %v", res, err, again, errAgain)
		}
		if err == nil && !res.OOM && opts.Scheme != schedule.SchemeBaseline && !(res.CheckpointWallTime > 0) {
			t.Fatalf("%v moved checkpoint bytes but reports checkpoint wall time %v", opts.Scheme, res.CheckpointWallTime)
		}
	})
}
