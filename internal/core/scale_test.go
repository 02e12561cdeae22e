package core

import (
	"math"
	"testing"

	"gemini/internal/netsim"
	"gemini/internal/training"
)

// The scale model behind 1k–10k campaigns, stated: a ZeRO-3 iteration of
// GPT-2 100B on p4d prices every all-gather and reduce-scatter as a flat
// ring over all N machines, so each of its 3 × layers collectives pays
// (N − 1)·α of startup latency. The table pins the derived iteration
// time against N, and at 1000 machines and beyond that ring latency is
// at least 85% of the iteration.
func TestZeRO3IterationScaleModel(t *testing.T) {
	for _, tc := range []struct {
		machines  int
		iteration float64 // seconds, to 0.1 s
	}{
		{16, 60.3},
		{64, 73.1},
		{256, 143.3},
		{1000, 419.7},
		{10000, 3767.6},
	} {
		tl := MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: tc.machines}).Timeline
		it := tl.Iteration.Seconds()
		if math.Abs(it-tc.iteration) > 0.05 {
			t.Errorf("N=%d: iteration %.4f s, want %.1f s", tc.machines, it, tc.iteration)
		}
		collectives := 0
		for _, op := range tl.Ops {
			if op.Kind == training.OpAllGather || op.Kind == training.OpReduceScatter {
				collectives++
			}
		}
		if want := 3 * tl.Config.Model.Layers; collectives != want {
			t.Errorf("N=%d: %d collectives per iteration, want 3 × %d layers = %d",
				tc.machines, collectives, tl.Config.Model.Layers, want)
		}
		// A zero-byte ring collective costs exactly its (N − 1)·α steps.
		ring := netsim.CollectiveTime(netsim.AllGather, tc.machines, 0, 1, tl.Config.Calib.CollectiveAlpha)
		latency := float64(collectives) * ring.Seconds()
		share := latency / it
		t.Logf("N=%d: iteration %.1f s, ring latency %.1f s (%.1f%%)", tc.machines, it, latency, 100*share)
		if tc.machines >= 1000 && share < 0.85 {
			t.Errorf("N=%d: ring latency %.1f s is %.1f%% of the %.1f s iteration, want at least 85%%",
				tc.machines, latency, 100*share, it)
		}
	}
}
