// Package model describes the transformer language models GEMINI is
// evaluated on (Table 2 of the paper), derives their parameter counts and
// model-state sizes, and computes the per-GPU / per-machine shards that
// ZeRO-3 training produces. Checkpoint sizes — the quantity everything in
// GEMINI revolves around — come from here.
package model

import (
	"fmt"
	"math"
)

// Family is a model architecture family from Table 2.
type Family string

const (
	GPT2    Family = "GPT-2"
	BERT    Family = "BERT"
	RoBERTa Family = "RoBERTa"
)

// Config is one row of Table 2 plus the training hyperparameters used in
// §7.1 (sequence length 512, vocabulary 50265, micro-batch 8, Adam,
// mixed precision with activation recomputation).
type Config struct {
	Family         Family
	NominalParams  int64 // the "10B" in "GPT-2 10B", in parameters
	HiddenSize     int
	Intermediate   int
	Layers         int
	AttentionHeads int
	VocabSize      int
	SeqLen         int
	MicroBatch     int
}

// Name returns the paper's name for the configuration, e.g. "GPT-2 100B".
func (c Config) Name() string {
	return fmt.Sprintf("%s %s", c.Family, FormatParams(c.NominalParams))
}

// FormatParams renders a parameter count the way the paper does (10B, 100B).
func FormatParams(p int64) string {
	switch {
	case p >= 1e9:
		return fmt.Sprintf("%gB", float64(p)/1e9)
	case p >= 1e6:
		return fmt.Sprintf("%gM", float64(p)/1e6)
	default:
		return fmt.Sprintf("%d", p)
	}
}

// Validate checks that the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.HiddenSize <= 0:
		return fmt.Errorf("model: hidden size must be positive, got %d", c.HiddenSize)
	case c.Intermediate <= 0:
		return fmt.Errorf("model: intermediate size must be positive, got %d", c.Intermediate)
	case c.Layers <= 0:
		return fmt.Errorf("model: layer count must be positive, got %d", c.Layers)
	case c.AttentionHeads <= 0:
		return fmt.Errorf("model: attention heads must be positive, got %d", c.AttentionHeads)
	case c.HiddenSize%c.AttentionHeads != 0:
		return fmt.Errorf("model: hidden size %d not divisible by %d heads", c.HiddenSize, c.AttentionHeads)
	case c.NominalParams <= 0:
		return fmt.Errorf("model: nominal parameter count must be positive, got %d", c.NominalParams)
	case c.VocabSize <= 0 || c.SeqLen <= 0 || c.MicroBatch <= 0:
		return fmt.Errorf("model: vocab/seq/batch must be positive, got %d/%d/%d", c.VocabSize, c.SeqLen, c.MicroBatch)
	}
	return nil
}

// DerivedParams counts parameters from the architecture: per transformer
// layer 4·h² attention (Q,K,V,O) + 2·h·intermediate MLP + biases and
// norms, plus token and position embeddings. Table 2's nominal sizes are
// rounded marketing numbers; this is the exact count the config implies.
func (c Config) DerivedParams() int64 {
	h := int64(c.HiddenSize)
	inter := int64(c.Intermediate)
	perLayer := 4*h*h + 4*h + // attention projections + biases
		2*h*inter + h + inter + // MLP weights + biases
		4*h // two layer norms (scale + shift)
	emb := int64(c.VocabSize)*h + int64(c.SeqLen)*h
	return int64(c.Layers)*perLayer + emb + 2*h // final layer norm
}

// Bytes-per-parameter constants for mixed-precision Adam training under
// ZeRO-3 (Rajbhandari et al.): the checkpointed model states are the fp32
// master parameters plus the two fp32 Adam moments (12 bytes/param). The
// resident GPU model states additionally hold fp16 parameters and fp16
// gradients (4 more bytes/param). These reproduce the paper's numbers:
// GPT-2 100B ⇒ 1.2 TB checkpoint ⇒ 9.4 GB per GPU on 128 GPUs.
const (
	CheckpointBytesPerParam = 12
	ResidentBytesPerParam   = 16
)

// CheckpointBytes returns the size of a full model-state checkpoint
// (fp32 master weights + Adam moments), using the nominal parameter count
// so sizes match the paper's reported figures.
func (c Config) CheckpointBytes() float64 {
	return float64(c.NominalParams) * CheckpointBytesPerParam
}

// ResidentStateBytes returns the GPU-resident model state size (adds fp16
// params and grads to the checkpointed states).
func (c Config) ResidentStateBytes() float64 {
	return float64(c.NominalParams) * ResidentBytesPerParam
}

// FP16ParamBytes returns the bytes of fp16 parameters, the payload of the
// per-layer all-gathers ZeRO-3 issues during forward and backward passes.
func (c Config) FP16ParamBytes() float64 {
	return float64(c.NominalParams) * 2
}

// LayerFP16Bytes returns the fp16 parameter bytes of a single transformer
// layer — the unit of ZeRO-3 all-gather traffic.
func (c Config) LayerFP16Bytes() float64 {
	return c.FP16ParamBytes() / float64(c.Layers)
}

// FLOPsPerIteration estimates the compute of one training iteration for
// one data-parallel rank: 6·P·tokens for forward+backward, plus one extra
// forward (2·P·tokens) for activation recomputation, i.e. 8·P·tokens.
func (c Config) FLOPsPerIteration() float64 {
	tokens := float64(c.SeqLen * c.MicroBatch)
	return 8 * float64(c.NominalParams) * tokens
}

// Sharding describes how ZeRO-3 spreads model states over a cluster.
type Sharding struct {
	Machines    int
	GPUsPerNode int
}

// GPUs returns the world size.
func (s Sharding) GPUs() int { return s.Machines * s.GPUsPerNode }

// ShardBytesPerGPU returns each GPU's slice of the checkpoint under
// ZeRO-3's flat partitioning. The last rank may hold slightly fewer bytes;
// the simulator uses the ceiling, which is what capacity planning needs.
func (s Sharding) ShardBytesPerGPU(c Config) float64 {
	return math.Ceil(c.CheckpointBytes() / float64(s.GPUs()))
}

// ShardBytesPerMachine returns each machine's slice of the checkpoint —
// the unit GEMINI replicates into CPU memory.
func (s Sharding) ShardBytesPerMachine(c Config) float64 {
	return math.Ceil(c.CheckpointBytes() / float64(s.Machines))
}

// ResidentBytesPerGPU returns each GPU's resident model-state bytes.
func (s Sharding) ResidentBytesPerGPU(c Config) float64 {
	return math.Ceil(c.ResidentStateBytes() / float64(s.GPUs()))
}

// Table2 returns the eight model configurations of Table 2, in paper order.
func Table2() []Config {
	base := func(f Family, nominal int64, hidden, inter, layers, heads int) Config {
		return Config{
			Family: f, NominalParams: nominal,
			HiddenSize: hidden, Intermediate: inter, Layers: layers, AttentionHeads: heads,
			VocabSize: 50265, SeqLen: 512, MicroBatch: 8,
		}
	}
	return []Config{
		base(GPT2, 10e9, 2560, 10240, 46, 40),
		base(GPT2, 20e9, 5120, 20480, 64, 40),
		base(GPT2, 40e9, 5120, 20480, 128, 40),
		base(RoBERTa, 40e9, 5120, 20480, 128, 40),
		base(BERT, 40e9, 5120, 20480, 128, 40),
		base(GPT2, 100e9, 8192, 32768, 124, 64),
		base(RoBERTa, 100e9, 8192, 32768, 124, 64),
		base(BERT, 100e9, 8192, 32768, 124, 64),
	}
}

// ByName returns the Table 2 config with the given paper name
// (e.g. "GPT-2 100B").
func ByName(name string) (Config, error) {
	for _, c := range Table2() {
		if c.Name() == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: no Table 2 config named %q", name)
}

// MustByName is ByName for statically-known names.
func MustByName(name string) Config {
	c, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return c
}
