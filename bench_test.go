package gemini

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (§7). Each benchmark runs the corresponding
// experiment and reports the headline quantity as a custom metric, so
// `go test -bench=. -benchmem` doubles as the reproduction run. The
// rendered tables come from `go run ./cmd/benchtables`.

import (
	"context"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/core"
	"gemini/internal/derive"
	"gemini/internal/experiments"
	"gemini/internal/failure"
	"gemini/internal/parallel"
	"gemini/internal/placement"
	"gemini/internal/runsim"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
)

func benchExperiment(b *testing.B, id string) {
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		out, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(out)), "table-bytes")
}

func BenchmarkTable1InstanceCatalog(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2ModelConfigs(b *testing.B)    { benchExperiment(b, "table2") }

// BenchmarkAllTables regenerates the full evaluation — every table and
// figure — through the concurrent experiment runner, once serially and
// once at GOMAXPROCS workers. The gap between the two sub-benchmarks is
// the wall-clock win of the parallel layer on this machine.
func BenchmarkAllTables(b *testing.B) {
	exps := experiments.All()
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			if bc.workers == 0 && parallel.Workers() == 1 {
				b.Skip("GOMAXPROCS=1: parallel run would duplicate serial")
			}
			var bytes int
			for i := 0; i < b.N; i++ {
				bytes = 0
				for _, r := range experiments.RunAll(context.Background(), exps, bc.workers) {
					if r.Err != nil {
						b.Fatalf("%s: %v", r.ID, r.Err)
					}
					bytes += len(r.Output)
				}
			}
			b.ReportMetric(float64(bytes), "table-bytes")
		})
	}
}

// BenchmarkFig7IterationTime measures the iteration-time overhead of
// per-iteration GEMINI checkpointing on the 100B models (paper: none).
func BenchmarkFig7IterationTime(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	var overhead float64
	for i := 0; i < b.N; i++ {
		res, err := job.ExecuteScheme(SchemeGemini)
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.Overhead()
	}
	b.ReportMetric(overhead*100, "overhead-%")
}

// BenchmarkFig8NetworkIdle measures the network idle time left after
// checkpoint insertion (paper: still positive).
func BenchmarkFig8NetworkIdle(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	var idle, ckpt simclock.Duration
	for i := 0; i < b.N; i++ {
		res, err := job.ExecuteScheme(SchemeGemini)
		if err != nil {
			b.Fatal(err)
		}
		idle, ckpt = res.NetworkIdle, res.CheckpointTime
	}
	b.ReportMetric(idle.Seconds(), "idle-s")
	b.ReportMetric(ckpt.Seconds(), "ckpt-s")
}

// BenchmarkFig9RecoveryProbability computes the placement probability
// curves (paper: 0.933 / 0.800 at N=16, ring 25% lower).
func BenchmarkFig9RecoveryProbability(b *testing.B) {
	var p2, p3 float64
	for i := 0; i < b.N; i++ {
		var err error
		if p2, err = placement.Corollary1(16, 2, 2); err != nil {
			b.Fatal(err)
		}
		if p3, err = placement.Corollary1(16, 2, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(p2, "P(k=2)")
	b.ReportMetric(p3, "P(k=3)")
}

// BenchmarkFig10WastedTime computes the average wasted time per failure
// (paper: GEMINI >13× better than HighFreq).
func BenchmarkFig10WastedTime(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	var ratio float64
	for i := 0; i < b.N; i++ {
		gem := job.GeminiSpec().AverageWasted(FromPeerCPU)
		high := job.HighFreqSpec().AverageWasted(FromPersistentRemote)
		ratio = high.Seconds() / gem.Seconds()
	}
	b.ReportMetric(ratio, "speedup-x")
}

// BenchmarkFig11CheckpointTimeReduction computes GEMINI's checkpoint-time
// reduction at 16 machines / 400 Gbps (paper: >250×).
func BenchmarkFig11CheckpointTimeReduction(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	var reduction float64
	for i := 0; i < b.N; i++ {
		reduction = job.StrawmanSpec().CheckpointTime.Seconds() / job.GeminiSpec().CheckpointTime.Seconds()
	}
	b.ReportMetric(reduction, "reduction-x")
}

// BenchmarkFig12CheckpointFrequency computes the frequency ratios
// (paper: 8× over HighFreq, >170× over Strawman).
func BenchmarkFig12CheckpointFrequency(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	var vsHigh, vsStraw float64
	for i := 0; i < b.N; i++ {
		vsHigh = baselines.FrequencyRatio(job.GeminiSpec(), job.HighFreqSpec())
		vsStraw = baselines.FrequencyRatio(job.GeminiSpec(), job.StrawmanSpec())
	}
	b.ReportMetric(vsHigh, "vs-highfreq-x")
	b.ReportMetric(vsStraw, "vs-strawman-x")
}

// BenchmarkFig13P3dn runs the p3dn generalization sweep.
func BenchmarkFig13P3dn(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14RecoveryTimeline drives the live agent system through a
// hardware failure and reports the end-to-end recovery time
// (paper: ≈12 minutes without standby machines).
func BenchmarkFig14RecoveryTimeline(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	var recovery simclock.Duration
	for i := 0; i < b.N; i++ {
		engine, sys, err := job.RecoverySystem(DefaultCloudConfig())
		if err != nil {
			b.Fatal(err)
		}
		sys.Start()
		iter := Time(job.Timeline.Iteration)
		engine.At(3*iter+iter/2, func() { sys.InjectFailure(7, HardwareFailure) })
		engine.Run(30 * iter)
		det, ok1 := sys.Log().Last("failure-detected")
		rec, ok2 := sys.Log().Last("recovery-complete")
		if !ok1 || !ok2 {
			b.Fatal("recovery did not complete")
		}
		recovery = rec.At.Sub(det.At)
	}
	b.ReportMetric(recovery.Seconds()/60, "recovery-min")
}

// BenchmarkFig15aFailureRates runs the failure-rate sweep.
func BenchmarkFig15aFailureRates(b *testing.B) { benchExperiment(b, "fig15a") }

// BenchmarkFig15bScaling runs the cluster-size sweep.
func BenchmarkFig15bScaling(b *testing.B) { benchExperiment(b, "fig15b") }

// BenchmarkFig16Interleaving runs the §7.4 scheme ablation and reports
// the blocking scheme's overhead (paper: ≈10%).
func BenchmarkFig16Interleaving(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16})
	var blocking float64
	for i := 0; i < b.N; i++ {
		res, err := job.ExecuteScheme(SchemeBlocking)
		if err != nil {
			b.Fatal(err)
		}
		blocking = res.Overhead()
	}
	b.ReportMetric(blocking*100, "blocking-overhead-%")
}

// BenchmarkCampaign1000 is the campaign-engine headline (DESIGN.md §12):
// 1000 seeded long-horizon runs spread over 4 job specs, the shape of a
// scenario-campaign sweep where runs differ only in their failure
// schedule. The warm sub-benchmark resolves every job through the
// derivation cache (4 derivations total, 996 hits) and recycles the
// runsim arenas; cold runs each schedule on a private derive.Build and
// pays the full derivation per run. warm/cold runs-per-second is the cache's
// campaign speedup; results are bit-identical either way (asserted by
// the determinism suite, and by the checksum metric matching across the
// two sub-benchmarks).
func BenchmarkCampaign1000(b *testing.B) {
	specs := []JobSpec{
		{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16},
		{Model: "RoBERTa 100B", Instance: "p4d.24xlarge", Machines: 16},
		{Model: "BERT 100B", Instance: "p4d.24xlarge", Machines: 16},
		{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
	}
	const runs = 1000
	horizon := 10 * Day
	schedules := make([]failure.Schedule, runs)
	model := failure.OPTModel()
	for r := range schedules {
		fs, err := model.Generate(16, horizon, int64(r+1))
		if err != nil {
			b.Fatal(err)
		}
		schedules[r] = fs
	}
	warm := func(spec JobSpec, fs failure.Schedule) (*runsim.Result, error) {
		job, err := NewJob(spec)
		if err != nil {
			return nil, err
		}
		cfg, err := job.RunConfig(job.GeminiSpec(), spec.Machines, fs, horizon, 0, 0)
		if err != nil {
			return nil, err
		}
		return runsim.Run(cfg)
	}
	cold := func(spec JobSpec, fs failure.Schedule) (*runsim.Result, error) {
		art, err := derive.Build(spec.CacheKey())
		if err != nil {
			return nil, err
		}
		return runsim.Run(runsim.Config{Spec: art.Gemini, Placement: art.Placement,
			Machines: spec.Machines, Failures: fs, Horizon: horizon})
	}
	campaign := func(b *testing.B, run func(JobSpec, failure.Schedule) (*runsim.Result, error)) {
		var sum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum = 0
			for r := 0; r < runs; r++ {
				res, err := run(specs[r%len(specs)], schedules[r])
				if err != nil {
					b.Fatal(err)
				}
				sum += res.EffectiveRatio
				res.Release()
			}
		}
		b.ReportMetric(float64(runs)*float64(b.N)/b.Elapsed().Seconds(), "runs/s")
		b.ReportMetric(sum/runs, "mean-ratio")
	}
	b.Run("cold", func(b *testing.B) { campaign(b, cold) })
	b.Run("warm", func(b *testing.B) {
		// Prime the cache so every timed NewJob is a hit.
		for _, s := range specs {
			core.MustNewJob(s)
		}
		campaign(b, warm)
	})
}

// --- Ablations beyond the paper's figures (DESIGN.md §5) ---

// BenchmarkAblationPlacementStrategies compares group vs ring recovery
// probability at k=m=2 for N=16.
func BenchmarkAblationPlacementStrategies(b *testing.B) {
	group := placement.MustMixed(16, 2)
	ring, err := placement.Ring(16, 2)
	if err != nil {
		b.Fatal(err)
	}
	var pg, pr float64
	for i := 0; i < b.N; i++ {
		pg = placement.BitmaskProbability(group, 2)
		pr = placement.BitmaskProbability(ring, 2)
	}
	b.ReportMetric(pg, "group")
	b.ReportMetric(pr, "ring")
}

// BenchmarkAblationPipelineDepth sweeps the sub-buffer count p.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16})
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(benchName("p", p), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				res, err := job.ExecuteSchemeWithBuffers(SchemeGemini, 8*128e6, p)
				if err != nil {
					b.Fatal(err)
				}
				overhead = res.Overhead()
			}
			b.ReportMetric(overhead*100, "overhead-%")
		})
	}
}

// BenchmarkAblationReplicaCount sweeps m and reports the recovery
// probability at k=3 against the checkpoint traffic volume.
func BenchmarkAblationReplicaCount(b *testing.B) {
	for _, m := range []int{1, 2, 3, 4} {
		b.Run(benchName("m", m), func(b *testing.B) {
			var prob float64
			for i := 0; i < b.N; i++ {
				p := placement.MustMixed(16, m)
				prob = placement.BitmaskProbability(p, 3)
			}
			b.ReportMetric(prob, "P(recover|k=3)")
			b.ReportMetric(float64(m-1)*75, "remote-GB-per-iter")
		})
	}
}

// BenchmarkAblationGamma sweeps Algorithm 2's safety coefficient.
func BenchmarkAblationGamma(b *testing.B) {
	job := core.MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16})
	for _, gamma := range []float64{0.5, 0.7, 0.9, 1.0} {
		b.Run(benchName("gamma-x100", int(gamma*100)), func(b *testing.B) {
			var fits float64
			for i := 0; i < b.N; i++ {
				plan, err := schedule.Partition(schedule.Params{
					Spans:                job.Profile.Spans,
					CheckpointBytes:      job.Config.ShardBytesPerMachine(),
					Replicas:             2,
					BufferBytes:          8 * 128e6,
					BufferParts:          4,
					BandwidthBytesPerSec: job.Config.Instance.NetworkBytesPerSec,
					Alpha:                job.Config.Calib.CollectiveAlpha,
					Gamma:                gamma,
				})
				if err != nil {
					b.Fatal(err)
				}
				if plan.Fits {
					fits = 1
				} else {
					fits = 0
				}
			}
			b.ReportMetric(fits, "fits")
		})
	}
}

// BenchmarkAblationStandbyMachines runs the standby-pool ablation.
func BenchmarkAblationStandbyMachines(b *testing.B) { benchExperiment(b, "ablation-standby") }

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v < 10 {
		return prefix + "=" + digits[v:v+1]
	}
	out := ""
	for v > 0 {
		out = digits[v%10:v%10+1] + out
		v /= 10
	}
	return prefix + "=" + out
}
