package experiments

import (
	"gemini/internal/core"
	"gemini/internal/failure"
	"gemini/internal/placement"
	"gemini/internal/runsim"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/training"
)

// Ablations returns the design-choice studies beyond the paper's figures
// (DESIGN.md §5), in the same Experiment shape as the tables/figures.
func Ablations() []Experiment {
	return []Experiment{
		{"ablation-replicas", "Ablation: replica count m vs recovery probability and cost", AblationReplicas},
		{"ablation-pipeline", "Ablation: pipeline sub-buffer count p", AblationPipeline},
		{"ablation-gamma", "Ablation: Algorithm 2 safety coefficient γ", AblationGamma},
		{"ablation-standby", "Ablation: standby machines vs on-demand replacement", AblationStandby},
		{"ablation-parallelism", "Extension: checkpoint scheduling under other parallelisms (§9)", AblationParallelism},
		{"ablation-correlated", "Ablation: independent vs correlated rack failures, group vs rack-aware placement", Correlated},
		{"strategy-race", "Comparison: checkpoint strategies under one mixed-failure schedule", StrategyRace},
	}
}

// AblationParallelism builds the §9 future-work extension table: the
// same model under ZeRO-3, data-parallel, and pipeline-parallel training
// — differently shaped idle time, same Algorithm 2 scheduling on top.
// Iteration times are not comparable across rows (each parallelism
// implies a different global batch); the point is the idle-time shape
// and that the checkpoint still fits.
func AblationParallelism() (string, error) {
	t := newTable("Parallelism", "Iteration", "Network busy", "Idle", "Ckpt fits in idle")
	for _, p := range []training.Parallelism{training.ZeRO3, training.DataParallel, training.PipelineParallel} {
		job, err := core.NewJob(core.JobSpec{
			Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: testbedMachines, Parallelism: p,
		})
		if err != nil {
			return "", err
		}
		tr := job.Timeline.Trace()
		t.addf("%v|%.1f s|%.1f s|%.1f s|%v", p,
			job.Timeline.Iteration.Seconds(), tr.BusyTime().Seconds(),
			job.Timeline.IdleTime().Seconds(), job.Plan.Fits)
	}
	return t.String(), nil
}

// AblationReplicas sweeps the replica count m: recovery probability under
// k simultaneous failures vs the CPU memory and network traffic m costs.
func AblationReplicas() (string, error) {
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		return "", err
	}
	shard := job.Config.ShardBytesPerMachine()
	t := newTable("m", "P(recover|k=2)", "P(recover|k=3)", "CPU memory/machine", "Remote traffic/iter")
	for _, m := range []int{1, 2, 3, 4} {
		p, err := placement.Mixed(16, m)
		if err != nil {
			return "", err
		}
		t.addf("%d|%.3f|%.3f|%s|%s", m,
			placement.BitmaskProbability(p, 2),
			placement.BitmaskProbability(p, 3),
			gb(2*float64(m)*shard),
			gb(float64(m-1)*shard))
	}
	return t.String(), nil
}

// AblationPipeline sweeps the sub-buffer count p on GPT-2 40B / p3dn.
func AblationPipeline() (string, error) {
	job, err := jobFor("GPT-2 40B", "p3dn.24xlarge")
	if err != nil {
		return "", err
	}
	t := newTable("p", "Iteration time", "Overhead", "Chunk size")
	for _, p := range []int{1, 2, 4, 8, 16} {
		res, err := job.ExecuteSchemeWithBuffers(schedule.SchemeGemini, schedule.DefaultBufferBytes, p)
		if err != nil {
			return "", err
		}
		t.addf("%d|%.2f s|%+.2f%%|%.0f MB", p,
			res.IterationTime.Seconds(), res.Overhead()*100, schedule.DefaultBufferBytes/float64(p)/1e6)
	}
	return t.String(), nil
}

// AblationGamma sweeps Algorithm 2's idle-span discount and reports where
// the checkpoint stops fitting and what overflow costs.
func AblationGamma() (string, error) {
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		return "", err
	}
	t := newTable("γ", "Fits", "Overflow", "Overflow time")
	for _, gamma := range []float64{0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0} {
		plan, err := schedule.Partition(schedule.Params{
			Spans:                job.Profile.Spans,
			CheckpointBytes:      job.Config.ShardBytesPerMachine(),
			Replicas:             job.Spec.Replicas,
			BufferBytes:          schedule.DefaultBufferBytes,
			BufferParts:          schedule.DefaultBufferParts,
			BandwidthBytesPerSec: job.Config.Instance.NetworkBytesPerSec,
			Alpha:                job.Config.Calib.CollectiveAlpha,
			Gamma:                gamma,
		})
		if err != nil {
			return "", err
		}
		t.addf("%.1f|%v|%s|%.2f s", gamma, plan.Fits, gb(plan.OverflowBytes), plan.OverflowTime.Seconds())
	}
	return t.String(), nil
}

// AblationStandby compares standby-pool and on-demand replacement under
// hardware-failure load: both replacement delays walk one schedule in
// one runsim.RunAll.
func AblationStandby() (string, error) {
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		return "", err
	}
	horizon := 10 * simclock.Day
	fs, err := failure.FixedRate(testbedMachines, 4, 1.0, horizon)
	if err != nil {
		return "", err
	}
	rows := []struct {
		name  string
		delay simclock.Duration
	}{
		{"standby pool (instant)", 0},
		{"on-demand ASG (5.5 min)", simclock.Duration(5.5 * 60)},
	}
	cfgs := make([]runsim.Config, len(rows))
	for i, row := range rows {
		if cfgs[i], err = job.RunConfig(job.GeminiSpec(), testbedMachines, fs, horizon, row.delay, 0); err != nil {
			return "", err
		}
	}
	out := make([]*runsim.Result, len(rows))
	if err := runsim.RunAll(cfgs, out); err != nil {
		return "", err
	}
	t := newTable("Replacement", "Effective ratio", "Mean wasted", "p99 wasted")
	for i, row := range rows {
		sum := out[i].WastedSummary()
		t.addf("%s|%.4f|%.1f min|%.1f min", row.name, out[i].EffectiveRatio, sum.Mean/60, sum.P99/60)
	}
	return t.String(), nil
}
