package core

import (
	"math"
	"testing"

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
		job := MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: tc.machines})
		tl := job.Timeline
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
		share := job.RingLatencyShare()
		latency := share * it
		t.Logf("N=%d: iteration %.1f s, ring latency %.1f s (%.1f%%)", tc.machines, it, latency, 100*share)
		if tc.machines >= 1000 && share < 0.85 {
			t.Errorf("N=%d: ring latency %.1f s is %.1f%% of the %.1f s iteration, want at least 85%%",
				tc.machines, latency, 100*share, it)
		}
	}
}

// RingLatencyShare prices each parallelism's ring collectives: ZeRO-3
// runs 3 × layers all-gathers and reduce-scatters of (N − 1)·α each, a
// data-parallel job one all-reduce of 2(N − 1)·α per layer, and a
// pipeline exchanges its boundaries point to point with no ring.
func TestRingLatencyShareByParallelism(t *testing.T) {
	for _, tc := range []struct {
		parallelism training.Parallelism
		rings       func(layers int) float64 // (N − 1)·α startups per iteration
	}{
		{training.ZeRO3, func(layers int) float64 { return 3 * float64(layers) }},
		{training.DataParallel, func(layers int) float64 { return 2 * float64(layers) }},
		{training.PipelineParallel, func(int) float64 { return 0 }},
	} {
		t.Run(tc.parallelism.String(), func(t *testing.T) {
			job := MustNewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16, Parallelism: tc.parallelism})
			cfg := job.Timeline.Config
			want := tc.rings(cfg.Model.Layers) * float64(cfg.Machines-1) * cfg.Calib.CollectiveAlpha.Seconds() /
				job.Timeline.Iteration.Seconds()
			got := job.RingLatencyShare()
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("share %.6f, want %.6f", got, want)
			}
			if tc.parallelism != training.PipelineParallel && !(got > 0) {
				t.Fatalf("share %v, want a positive ring latency", got)
			}
		})
	}
}
