package experiments

import (
	"gemini/internal/core"
	"gemini/internal/schedule"
)

// the 16-machine testbeds of §7.1.
const testbedMachines = 16

var p4dModels = []string{"GPT-2 100B", "RoBERTa 100B", "BERT 100B"}

var p3dnModels = []string{"GPT-2 10B", "GPT-2 20B", "GPT-2 40B", "RoBERTa 40B", "BERT 40B"}

func jobFor(modelName, instance string) (*core.Job, error) {
	return core.NewJob(core.JobSpec{Model: modelName, Instance: instance, Machines: testbedMachines})
}

// Fig7 compares iteration times without checkpointing and with GEMINI's
// per-iteration checkpointing for the three 100B models on p4d.
func Fig7() (string, error) {
	t := newTable("Model", "No checkpoint", "GEMINI", "Overhead")
	for _, name := range p4dModels {
		job, err := jobFor(name, "p4d.24xlarge")
		if err != nil {
			return "", err
		}
		res, err := job.ExecuteScheme(schedule.SchemeGemini)
		if err != nil {
			return "", err
		}
		t.addf("%s|%.1f s|%.1f s|%.2f%%",
			name, res.BaselineIteration.Seconds(), res.IterationTime.Seconds(), res.Overhead()*100)
	}
	return t.String(), nil
}

// Fig8 reports the network idle time without checkpoints, GEMINI's
// checkpoint time, and the idle time left after checkpoint insertion.
func Fig8() (string, error) {
	t := newTable("Model", "Idle w/o ckpt", "GEMINI ckpt time", "Idle w/ GEMINI")
	for _, name := range p4dModels {
		job, err := jobFor(name, "p4d.24xlarge")
		if err != nil {
			return "", err
		}
		res, err := job.ExecuteScheme(schedule.SchemeGemini)
		if err != nil {
			return "", err
		}
		t.addf("%s|%.1f s|%.1f s|%.1f s",
			name, job.Timeline.IdleTime().Seconds(), res.CheckpointTime.Seconds(), res.NetworkIdle.Seconds())
	}
	return t.String(), nil
}

// Fig13 runs the p3dn generalization: iteration times (13a) and idle
// times (13b) for the 10B–40B models.
func Fig13() (string, error) {
	t := newTable("Model", "No checkpoint", "GEMINI", "Overhead", "Idle w/o ckpt", "Ckpt time", "Idle w/ GEMINI")
	for _, name := range p3dnModels {
		job, err := jobFor(name, "p3dn.24xlarge")
		if err != nil {
			return "", err
		}
		res, err := job.ExecuteScheme(schedule.SchemeGemini)
		if err != nil {
			return "", err
		}
		t.addf("%s|%.1f s|%.1f s|%.2f%%|%.1f s|%.1f s|%.1f s",
			name, res.BaselineIteration.Seconds(), res.IterationTime.Seconds(), res.Overhead()*100,
			job.Timeline.IdleTime().Seconds(), res.CheckpointTime.Seconds(), res.NetworkIdle.Seconds())
	}
	return t.String(), nil
}

// Fig16 is the §7.4 ablation: GPT-2 40B on p3dn under the five
// interleaving schemes.
func Fig16() (string, error) {
	job, err := jobFor("GPT-2 40B", "p3dn.24xlarge")
	if err != nil {
		return "", err
	}
	t := newTable("Scheme", "Iteration time", "Overhead", "GPU buffer needed")
	for _, s := range []schedule.Scheme{
		schedule.SchemeBaseline, schedule.SchemeBlocking, schedule.SchemeNaive,
		schedule.SchemeNoPipeline, schedule.SchemeGemini,
	} {
		res, err := job.ExecuteScheme(s)
		if err != nil {
			return "", err
		}
		if res.OOM {
			t.addf("%s|OOM|—|%s", s, gb(res.RequiredBufferBytes))
			continue
		}
		t.addf("%s|%.1f s|%+.1f%%|%s", s, res.IterationTime.Seconds(), res.Overhead()*100,
			gb(res.RequiredBufferBytes))
	}
	return t.String(), nil
}
