// Package baselines describes checkpointing solutions — the paper's two
// baselines (§7.1) and GEMINI itself — in one uniform Spec that the
// long-run simulator consumes:
//
//   - Strawman: checkpoint to remote persistent storage every three hours
//     (the BLOOM training setup).
//   - HighFreq: saturate the remote store's bandwidth — checkpoint every
//     ⌈t_ckpt/T_iter⌉ iterations; the best any remote-storage solution
//     can do.
//   - GEMINI: checkpoint to CPU memory every iteration, falling back to a
//     three-hourly remote checkpoint only when CPU-memory recovery is
//     impossible.
package baselines

import (
	"fmt"
	"math"

	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/tensor"
	"gemini/internal/training"
)

// Recovery anchor constants measured in §7.3 (Fig. 14).
const (
	// DetectionTime is how long the root agent takes to notice a failure.
	DetectionTime = 15 * simclock.Second
	// RestartWarmup is the framework restart time before training resumes.
	RestartWarmup = 4 * simclock.Minute
	// RemoteCheckpointInterval is the Strawman / fallback cadence.
	RemoteCheckpointInterval = 3 * simclock.Hour
	// DefaultRemoteBandwidth is the FSx aggregate bandwidth (20 Gbps).
	DefaultRemoteBandwidth = 20e9 / 8
)

// Spec describes one checkpointing solution's behavior for a given
// training job, in the terms Equation 1 needs plus recovery overheads.
type Spec struct {
	Name string
	// Interval is 1/f: wall time between checkpoint starts.
	Interval simclock.Duration
	// CheckpointTime is t_ckpt: the standalone time to write one
	// checkpoint to its storage tier.
	CheckpointTime simclock.Duration
	// CompletionLag is the wall time between a checkpoint's logical point
	// (the iteration it captures) and its completion. For the remote
	// baselines this equals CheckpointTime; for GEMINI the chunks are
	// spread over the following iteration's idle spans, so the lag is one
	// iteration — which is why §7.2 reports the software-failure wasted
	// time as 1.5× the iteration time.
	CompletionLag simclock.Duration
	// PerCheckpointStall is the training stall each checkpoint imposes
	// (torch.save serialization for remote-storage solutions; zero for
	// GEMINI, which serializes only on recovery).
	PerCheckpointStall simclock.Duration
	// SerializeOnRecovery is the stall to serialize CPU-memory
	// checkpoints when a failure occurs (GEMINI's 162 s; zero for
	// remote-storage solutions).
	SerializeOnRecovery simclock.Duration
	// RetrievalLocal/Peer/Remote are t_rtvl by recovery source.
	RetrievalLocal  simclock.Duration
	RetrievalPeer   simclock.Duration
	RetrievalRemote simclock.Duration
	// UsesCPUMemory marks GEMINI-style solutions that can recover from
	// local/peer CPU memory; others always pay RetrievalRemote.
	UsesCPUMemory bool
	// RemoteInterval is the cadence of the persistent-storage checkpoint
	// that backs the CPU-memory tier (equals Interval for the baselines).
	RemoteInterval simclock.Duration
}

// Validate checks internal consistency: every duration is finite, the
// two intervals are positive, and every cost and retrieval time is
// nonnegative. An error names the offending field.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("baselines: spec needs a name")
	}
	durations := [...]struct {
		field    string
		v        simclock.Duration
		positive bool
	}{
		{"interval", s.Interval, true},
		{"checkpoint time", s.CheckpointTime, false},
		{"completion lag", s.CompletionLag, false},
		{"per-checkpoint stall", s.PerCheckpointStall, false},
		{"serialize-on-recovery stall", s.SerializeOnRecovery, false},
		{"local retrieval time", s.RetrievalLocal, false},
		{"peer retrieval time", s.RetrievalPeer, false},
		{"remote retrieval time", s.RetrievalRemote, false},
		{"remote interval", s.RemoteInterval, true},
	}
	for _, d := range durations {
		// The lower bounds are comparisons that NaN fails.
		bound, ok := "nonnegative", d.v >= 0
		if d.positive {
			bound, ok = "positive", d.v > 0
		}
		if !ok || d.v > math.MaxFloat64 {
			return fmt.Errorf("baselines: %s %s is %v, want finite and %s", s.Name, d.field, d.v, bound)
		}
	}
	return nil
}

// remoteCheckpointTime is the time to push a full checkpoint through the
// remote store's aggregate bandwidth.
func remoteCheckpointTime(cfg training.Config, remoteBW float64) simclock.Duration {
	return simclock.Duration(cfg.Model.CheckpointBytes() / remoteBW)
}

// serializeStall is the per-machine torch.save stall for one shard.
func serializeStall(cfg training.Config, costs tensor.CostModel) simclock.Duration {
	return costs.SerializeTime(cfg.ShardBytesPerMachine())
}

// Strawman builds the three-hourly remote-storage baseline.
func Strawman(cfg training.Config, remoteBW float64, costs tensor.CostModel) (Spec, error) {
	if !(remoteBW > 0) { // also rejects NaN
		return Spec{}, fmt.Errorf("baselines: remote bandwidth must be positive, got %v", remoteBW)
	}
	tCkpt := remoteCheckpointTime(cfg, remoteBW)
	s := Spec{
		Name:               "Strawman",
		Interval:           RemoteCheckpointInterval,
		CheckpointTime:     tCkpt,
		CompletionLag:      tCkpt,
		PerCheckpointStall: serializeStall(cfg, costs),
		RetrievalLocal:     tCkpt, // never used: no CPU tier
		RetrievalPeer:      tCkpt,
		RetrievalRemote:    tCkpt,
		RemoteInterval:     RemoteCheckpointInterval,
	}
	return s, s.Validate()
}

// HighFreq builds the saturate-the-remote-store baseline: checkpoint
// every ⌈t_ckpt/T_iter⌉ iterations (§7.1). The timeline must be the
// job's actual iteration timeline — under an alternative parallelism
// the cadence follows that parallelism's iteration, not ZeRO-3's.
func HighFreq(cfg training.Config, tl *training.Timeline, remoteBW float64, costs tensor.CostModel) (Spec, error) {
	if !(remoteBW > 0) { // also rejects NaN
		return Spec{}, fmt.Errorf("baselines: remote bandwidth must be positive, got %v", remoteBW)
	}
	if tl == nil {
		return Spec{}, fmt.Errorf("baselines: HighFreq needs the job's iteration timeline")
	}
	tCkpt := remoteCheckpointTime(cfg, remoteBW)
	iters := math.Ceil(float64(tCkpt / tl.Iteration))
	if iters < 1 {
		iters = 1
	}
	s := Spec{
		Name:               "HighFreq",
		Interval:           simclock.Duration(iters) * tl.Iteration,
		CheckpointTime:     tCkpt,
		CompletionLag:      tCkpt,
		PerCheckpointStall: serializeStall(cfg, costs),
		RetrievalLocal:     tCkpt,
		RetrievalPeer:      tCkpt,
		RetrievalRemote:    tCkpt,
		RemoteInterval:     simclock.Duration(iters) * tl.Iteration,
	}
	return s, s.Validate()
}

// Gemini builds GEMINI's spec: per-iteration CPU-memory checkpoints with
// m replicas, peer retrieval in seconds, and a three-hourly remote
// checkpoint as the last-resort tier.
func Gemini(cfg training.Config, tl *training.Timeline, replicas int, remoteBW float64, costs tensor.CostModel) (Spec, error) {
	if replicas < 1 {
		return Spec{}, fmt.Errorf("baselines: GEMINI needs at least one replica, got %d", replicas)
	}
	if !(remoteBW > 0) { // also rejects NaN
		return Spec{}, fmt.Errorf("baselines: remote bandwidth must be positive, got %v", remoteBW)
	}
	if tl == nil {
		return Spec{}, fmt.Errorf("baselines: GEMINI needs the job's iteration timeline")
	}
	shard := cfg.ShardBytesPerMachine()
	s := Spec{
		Name:           "GEMINI",
		Interval:       tl.Iteration, // every iteration
		CheckpointTime: training.StandaloneCheckpointTime(cfg, replicas, schedule.DefaultBufferBytes, schedule.DefaultBufferParts),
		CompletionLag:  tl.Iteration, // interleaved across the next iteration
		// Serialization of the two resident checkpoint generations with
		// torch.save when a failure occurs (§7.3 measures 162 s).
		SerializeOnRecovery: costs.SerializeTime(2 * shard),
		RetrievalLocal:      costs.DeserializeTime(shard) / 8, // local load, no network
		RetrievalPeer:       simclock.Duration(shard / cfg.Instance.NetworkBytesPerSec),
		RetrievalRemote:     remoteCheckpointTime(cfg, remoteBW),
		UsesCPUMemory:       true,
		RemoteInterval:      RemoteCheckpointInterval,
	}
	return s, s.Validate()
}

// CheckpointsPerDay returns the solution's checkpoint frequency per day.
func (s Spec) CheckpointsPerDay() float64 {
	return simclock.Day.Seconds() / s.Interval.Seconds()
}

// FrequencyRatio returns how many times more frequently a checkpoints
// than b.
func FrequencyRatio(a, b Spec) float64 {
	return b.Interval.Seconds() / a.Interval.Seconds()
}
