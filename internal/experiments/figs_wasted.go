package experiments

import (
	"fmt"

	"gemini/internal/baselines"
	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/training"
)

// Fig10 reports the average wasted time (Equation 1) for GPT-2 100B on
// 16 p4d machines as a function of how many instances must be replaced:
// 0 (software failure), 1 or 2-recoverable (peer retrieval), and the
// 2-instances-same-group case where GEMINI degrades to Strawman.
func Fig10() (string, error) {
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		return "", err
	}
	straw, high, gem := job.StrawmanSpec(), job.HighFreqSpec(), job.GeminiSpec()
	t := newTable("Replaced instances", "Strawman", "HighFreq", "GEMINI")
	row := func(label string, src baselines.RecoverySource) {
		t.addf("%s|%.0f s|%.0f s|%.0f s", label,
			straw.AverageWasted(baselines.FromRemote).Seconds(),
			high.AverageWasted(baselines.FromRemote).Seconds(),
			gem.AverageWasted(src).Seconds())
	}
	row("0 (software failure)", baselines.FromLocal)
	row("1", baselines.FromPeer)
	row("2 (different groups, p=93.3%)", baselines.FromPeer)
	row("2 (same group, p=6.7%)", baselines.FromRemote)
	return t.String(), nil
}

// Fig11 reports GEMINI's checkpoint-time reduction over the remote-
// storage baselines as the cluster and its network bandwidth grow. The
// baselines' checkpoint time is pinned by the remote store's fixed
// 20 Gbps aggregate; GEMINI's shrinks with the aggregate NIC bandwidth.
func Fig11() (string, error) {
	m := model.MustByName("GPT-2 100B")
	t := newTable("Machines", "100 Gbps network", "200 Gbps network", "400 Gbps network")
	for _, n := range []int{4, 8, 12, 16} {
		cells := make([]string, 0, 3)
		for _, gbit := range []float64{100, 200, 400} {
			r, err := checkpointReduction(m, n, gbit)
			if err != nil {
				return "", err
			}
			cells = append(cells, fmtTimes(r))
		}
		t.addf("%d|%s|%s|%s", n, cells[0], cells[1], cells[2])
	}
	return t.String(), nil
}

// checkpointReduction is one Fig. 11 cell: the remote baselines'
// checkpoint time over GEMINI's t_ckpt, for the model on n p4d machines
// whose network and GPU→CPU copies both run at gbit Gbps.
func checkpointReduction(m model.Config, n int, gbit float64) (float64, error) {
	it := cluster.MustInstance("p4d.24xlarge")
	it.NetworkBytesPerSec = gbit * 1e9 / 8
	it.GPUToCPUBytesPerSec = it.NetworkBytesPerSec
	cfg, err := training.NewConfig(m, it, n)
	if err != nil {
		return 0, err
	}
	gem := training.StandaloneCheckpointTime(cfg, 2, schedule.DefaultBufferBytes, schedule.DefaultBufferParts)
	return remoteCkptTime(cfg).Seconds() / gem.Seconds(), nil
}

func remoteCkptTime(cfg training.Config) simclock.Duration {
	return simclock.Duration(cfg.Model.CheckpointBytes() / baselines.DefaultRemoteBandwidth)
}

func fmtTimes(x float64) string { return fmt.Sprintf("%.0f×", x) }

// Fig12 reports the checkpoint frequency of the three solutions.
func Fig12() (string, error) {
	job, err := jobFor("GPT-2 100B", "p4d.24xlarge")
	if err != nil {
		return "", err
	}
	t := newTable("Solution", "Interval", "Checkpoints/day", "vs GEMINI")
	gem := job.GeminiSpec()
	for _, s := range []baselines.Spec{gem, job.HighFreqSpec(), job.StrawmanSpec()} {
		t.addf("%s|%.0f s|%.0f|%s", s.Name, s.Interval.Seconds(), s.CheckpointsPerDay(),
			fmt.Sprintf("%.0f× less frequent", baselines.FrequencyRatio(gem, s)))
	}
	return t.String(), nil
}
