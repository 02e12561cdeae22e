// Package training simulates ZeRO-3 distributed training at the machine
// granularity: the per-iteration compute/communication timeline whose
// idle spans GEMINI's scheduler fills (§5.1), a fluid-network executor
// that lets checkpoint/training interference emerge rather than be
// assumed (§7.4), and a long-horizon run simulator that reproduces the
// failure-recovery economics of §7.2–7.3.
package training

import (
	"fmt"
	"math"

	"gemini/internal/cluster"
	"gemini/internal/model"
	"gemini/internal/netsim"
	"gemini/internal/simclock"
)

// Calibration holds the constants that map architecture-level quantities
// (FLOPs, parameter bytes) to simulated time. They are fit so the
// simulated testbed reproduces the paper's measured anchors:
//
//   - GPT-2 100B on 16× p4d.24xlarge: iteration ≈ 62 s with ≈ 12 s of
//     network idle time and a GEMINI checkpoint time < 3 s (§7.2, Fig. 7/8);
//   - GPT-2/RoBERTa/BERT 10B–40B on 16× p3dn.24xlarge: iteration times in
//     the 15–45 s band with idle time left over (Fig. 13).
//
// CollectiveEfficiency captures that NCCL collectives — many small
// latency-bound steps — achieve a fraction of wire bandwidth, while
// GEMINI's large point-to-point checkpoint chunks run near wire speed.
type Calibration struct {
	// MFU is the model FLOPs utilization of the compute phases.
	MFU float64
	// CollectiveEfficiency scales the NIC bandwidth for training
	// collectives (all-gather / reduce-scatter).
	CollectiveEfficiency float64
	// CollectiveAlpha is the startup latency per collective operation.
	CollectiveAlpha simclock.Duration
	// UpdatePhaseSecondsPerGB is the optimizer-step duration per GB of
	// per-machine checkpoint shard — the communication-free window at the
	// end of each iteration (Fig. 4's "Update").
	UpdatePhaseSecondsPerGB float64
}

// Validate checks calibration sanity. Every check is negated so that
// NaN, which compares false against everything, fails it too; the
// MaxFloat64 bounds reject +Inf.
func (c Calibration) Validate() error {
	switch {
	case !(c.MFU > 0 && c.MFU <= 1):
		return fmt.Errorf("training: MFU must be in (0,1], got %v", c.MFU)
	case !(c.CollectiveEfficiency > 0 && c.CollectiveEfficiency <= 1):
		return fmt.Errorf("training: CollectiveEfficiency must be in (0,1], got %v", c.CollectiveEfficiency)
	case !(c.CollectiveAlpha >= 0 && c.CollectiveAlpha <= math.MaxFloat64):
		return fmt.Errorf("training: CollectiveAlpha must be finite and non-negative, got %v", c.CollectiveAlpha)
	case !(c.UpdatePhaseSecondsPerGB >= 0 && c.UpdatePhaseSecondsPerGB <= math.MaxFloat64):
		return fmt.Errorf("training: UpdatePhaseSecondsPerGB must be finite and non-negative, got %v", c.UpdatePhaseSecondsPerGB)
	}
	return nil
}

// DefaultCalibration returns the calibration fit for an instance type.
// The two testbed instance types carry measured fits; anything else gets
// a conservative generic fit.
func DefaultCalibration(it cluster.InstanceType) Calibration {
	switch it.Name {
	case "p4d.24xlarge":
		return Calibration{
			MFU:                     0.45,
			CollectiveEfficiency:    0.25,
			CollectiveAlpha:         simclock.Millisecond,
			UpdatePhaseSecondsPerGB: 0.13,
		}
	case "p3dn.24xlarge":
		return Calibration{
			MFU:                     0.40,
			CollectiveEfficiency:    0.50,
			CollectiveAlpha:         simclock.Millisecond,
			UpdatePhaseSecondsPerGB: 0.13,
		}
	default:
		return Calibration{
			MFU:                     0.40,
			CollectiveEfficiency:    0.30,
			CollectiveAlpha:         simclock.Millisecond,
			UpdatePhaseSecondsPerGB: 0.13,
		}
	}
}

// Config describes one training job.
type Config struct {
	Model    model.Config
	Instance cluster.InstanceType
	Machines int
	Calib    Calibration
}

// NewConfig assembles a training configuration with the default
// calibration for the instance type.
func NewConfig(m model.Config, it cluster.InstanceType, machines int) (Config, error) {
	cfg := Config{Model: m, Instance: it, Machines: machines, Calib: DefaultCalibration(it)}
	return cfg, cfg.Validate()
}

// MustNewConfig is NewConfig for known-good parameters.
func MustNewConfig(m model.Config, it cluster.InstanceType, machines int) Config {
	cfg, err := NewConfig(m, it, machines)
	if err != nil {
		panic(err)
	}
	return cfg
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if err := c.Instance.Validate(); err != nil {
		return err
	}
	if c.Machines < 1 {
		return fmt.Errorf("training: need at least one machine, got %d", c.Machines)
	}
	return c.Calib.Validate()
}

// Sharding returns the ZeRO-3 sharding shape of the job.
func (c Config) Sharding() model.Sharding {
	return model.Sharding{Machines: c.Machines, GPUsPerNode: c.Instance.GPUs}
}

// ShardBytesPerMachine is the per-machine checkpoint shard size — the C
// of Algorithm 2.
func (c Config) ShardBytesPerMachine() float64 {
	return c.Sharding().ShardBytesPerMachine(c.Model)
}

// layerForward is one layer's forward compute per GPU: 2·P_layer·tokens
// FLOPs at the calibrated rate.
func (c Config) layerForward() simclock.Duration {
	m := c.Model
	tokens := float64(m.SeqLen * m.MicroBatch)
	return simclock.Duration(2 * float64(m.NominalParams) / float64(m.Layers) * tokens /
		(c.Instance.PeakFLOPsPerGPU * c.Calib.MFU))
}

// layerCompute is a ZeRO-3 layer's forward and backward compute. The
// backward, with activation recomputation, costs 3× the forward: one
// recompute forward plus the 2× backward.
func (c Config) layerCompute() (fwd, bwd simclock.Duration) {
	fwd = c.layerForward()
	return fwd, 3 * fwd
}

// layerCollective is one layer's ring collective over the job's
// machines, at the effective bandwidth of training collectives.
func (c Config) layerCollective(kind netsim.CollectiveKind) simclock.Duration {
	return netsim.CollectiveTime(kind, c.Machines, c.Model.LayerFP16Bytes(),
		c.Instance.NetworkBytesPerSec*c.Calib.CollectiveEfficiency, c.Calib.CollectiveAlpha)
}

// updatePhase is the optimizer update that ends each iteration: no
// network traffic, its length proportional to the machine's shard.
func (c Config) updatePhase() simclock.Duration {
	return simclock.Duration(c.ShardBytesPerMachine() / 1e9 * c.Calib.UpdatePhaseSecondsPerGB)
}

// GPUMemoryDemandBytes estimates per-GPU memory demand: the ZeRO-3 shard
// of model states, the retained activations (with recomputation only
// layer inputs persist, times a workspace factor covering norm statistics
// and attention scratch), and a fixed framework overhead (CUDA context,
// NCCL buffers).
func (c Config) GPUMemoryDemandBytes() float64 {
	const (
		activationFactor  = 2.5
		frameworkOverhead = 3e9
	)
	states := c.Sharding().ResidentBytesPerGPU(c.Model)
	m := c.Model
	activations := float64(m.MicroBatch) * float64(m.SeqLen) * float64(m.HiddenSize) *
		float64(m.Layers) * 2 /* fp16 */ * activationFactor
	return states + activations + frameworkOverhead
}

// FitsInGPUMemory reports whether the job fits — the paper could not grow
// models past 100B on 16 p4d machines or 40B-class models far past that
// on p3dn (§7.2).
func (c Config) FitsInGPUMemory() bool {
	return c.GPUMemoryDemandBytes() <= float64(c.Instance.GPUMemBytes)*0.95
}
