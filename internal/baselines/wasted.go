package baselines

import (
	"fmt"

	"gemini/internal/metrics"
	"gemini/internal/simclock"
)

// RecoverySource says which storage tier a recovery reads from.
type RecoverySource int

const (
	// FromLocal: checkpoints are in the machine's own CPU memory
	// (software failures under GEMINI).
	FromLocal RecoverySource = iota
	// FromPeer: fetched from another machine's CPU memory (hardware
	// failure, replicas survive).
	FromPeer
	// FromRemote: fetched from the remote persistent store (baselines
	// always; GEMINI only when a whole replica group was lost).
	FromRemote
)

func (s RecoverySource) String() string {
	switch s {
	case FromLocal:
		return "local"
	case FromPeer:
		return "peer"
	case FromRemote:
		return "remote"
	default:
		return fmt.Sprintf("RecoverySource(%d)", int(s))
	}
}

// Retrieval returns the spec's t_rtvl for a recovery source. Solutions
// without a CPU-memory tier always pay the remote cost.
func (s Spec) Retrieval(src RecoverySource) simclock.Duration {
	if !s.UsesCPUMemory {
		return s.RetrievalRemote
	}
	switch src {
	case FromLocal:
		return s.RetrievalLocal
	case FromPeer:
		return s.RetrievalPeer
	default:
		return s.RetrievalRemote
	}
}

// WastedModel returns the Equation 1 model for a recovery source: the
// interval and completion lag (CheckpointTime) of the checkpoint tier
// the recovery reads. It is the one definition of a tier's cadence.
// Eq. 1 prices from it, runsim rolls every recovery back by it, and the
// agent's default remote cadence is the remote tier's interval in whole
// iterations. When a CPU-memory solution falls back to the remote tier,
// the interval is the remote cadence, not the per-iteration one, and the
// lag is the remote push.
func (s Spec) WastedModel(src RecoverySource) metrics.WastedTimeModel {
	interval := s.Interval
	lag := s.CompletionLag
	if s.UsesCPUMemory && src == FromRemote {
		interval = s.RemoteInterval
		lag = s.RetrievalRemote // remote push takes its own transfer time
	}
	return metrics.WastedTimeModel{
		CheckpointTime: lag,
		Interval:       interval,
		RetrievalTime:  s.Retrieval(src),
	}
}

// AverageWasted is Equation 1's expected wasted time for a failure
// recovered from the given source.
func (s Spec) AverageWasted(src RecoverySource) simclock.Duration {
	return s.WastedModel(src).Average()
}

// Phases is one recovery's Fig. 14 timeline (§7.3): the overhead a
// failure costs beyond Eq. 1's lost time, phase by phase.
type Phases struct {
	Detect, Serialize, Replace, Retrieve, Warmup simclock.Duration
}

// Total is the recovery's downtime: its phases back to back. The order
// of the sum is fixed, because runsim's pinned results depend on its
// rounding.
func (p Phases) Total() simclock.Duration {
	return p.Detect + p.Retrieve + p.Replace + p.Warmup + p.Serialize
}

// Phases prices one recovery from src: detection, serialization of the
// in-memory checkpoints (CPU-memory solutions only), machine
// replacement when hardware failed, retrieval, and the framework
// restart warm-up. replacementDelay is zero for software failures or
// when a standby machine absorbs the replacement.
func (s Spec) Phases(src RecoverySource, replacementDelay simclock.Duration) Phases {
	p := Phases{Detect: DetectionTime, Replace: replacementDelay, Retrieve: s.Retrieval(src), Warmup: RestartWarmup}
	if s.UsesCPUMemory {
		p.Serialize = s.SerializeOnRecovery
	}
	return p
}
