// Package cluster models the GPU machines GEMINI trains on: the instance
// catalog of Table 1, per-machine CPU-memory accounting for checkpoint
// buffers, and the machine lifecycle (healthy → failed → replaced) that
// drives failure recovery.
package cluster

import (
	"fmt"
	"math"
)

// InstanceType describes a GPU machine model. Memory figures are Table 1
// of the paper; bandwidth and compute figures come from §7.1 and public
// instance specifications.
type InstanceType struct {
	Name  string
	Cloud string
	// GPUs per machine and per-GPU memory in bytes.
	GPUs        int
	GPUMemBytes int64
	// CPUMemBytes is the host memory, the resource GEMINI checkpoints into.
	CPUMemBytes int64
	// NetworkBytesPerSec is the inter-machine network bandwidth
	// (e.g. 400 Gbps EFA on p4d.24xlarge).
	NetworkBytesPerSec float64
	// GPUToCPUBytesPerSec is the aggregate device-to-host copy bandwidth;
	// on p4d it is comparable to the network bandwidth (§5.2 footnote).
	GPUToCPUBytesPerSec float64
	// PeakFLOPsPerGPU is the per-GPU fp16 peak used by the compute model.
	PeakFLOPsPerGPU float64
}

const (
	gib  = int64(1) << 30
	gbps = 1e9 / 8 // bytes/sec per Gbit/s
)

// Validate checks the instance description. Every float check is
// negated so that NaN, which compares false against everything, fails
// it too; the MaxFloat64 bounds reject +Inf.
func (it InstanceType) Validate() error {
	switch {
	case it.Name == "":
		return fmt.Errorf("cluster: instance type needs a name")
	case it.GPUs <= 0:
		return fmt.Errorf("cluster: %s has %d GPUs", it.Name, it.GPUs)
	case it.GPUMemBytes <= 0 || it.CPUMemBytes <= 0:
		return fmt.Errorf("cluster: %s has nonpositive memory", it.Name)
	case !(it.NetworkBytesPerSec > 0 && it.NetworkBytesPerSec <= math.MaxFloat64):
		return fmt.Errorf("cluster: %s network bandwidth (NetworkBytesPerSec) must be positive and finite, got %v", it.Name, it.NetworkBytesPerSec)
	case !(it.GPUToCPUBytesPerSec > 0 && it.GPUToCPUBytesPerSec <= math.MaxFloat64):
		return fmt.Errorf("cluster: %s copy bandwidth (GPUToCPUBytesPerSec) must be positive and finite, got %v", it.Name, it.GPUToCPUBytesPerSec)
	case !(it.PeakFLOPsPerGPU > 0 && it.PeakFLOPsPerGPU <= math.MaxFloat64):
		return fmt.Errorf("cluster: %s peak FLOPs (PeakFLOPsPerGPU) must be positive and finite, got %v", it.Name, it.PeakFLOPsPerGPU)
	}
	return nil
}

// TotalGPUMemBytes returns the machine's aggregate GPU memory.
func (it InstanceType) TotalGPUMemBytes() int64 {
	return int64(it.GPUs) * it.GPUMemBytes
}

// CPUOverGPURatio returns CPU memory divided by total GPU memory — the
// headroom observation of Table 1 that motivates in-memory checkpoints.
func (it InstanceType) CPUOverGPURatio() float64 {
	return float64(it.CPUMemBytes) / float64(it.TotalGPUMemBytes())
}

const (
	v100FLOPs = 125e12 // fp16 tensor-core peak
	a100FLOPs = 312e12
)

// Table1 returns the instance catalog of Table 1, in paper order.
func Table1() []InstanceType {
	return []InstanceType{
		{Name: "p3dn.24xlarge", Cloud: "AWS", GPUs: 8, GPUMemBytes: 32 * gib, CPUMemBytes: 768 * gib,
			NetworkBytesPerSec: 100 * gbps, GPUToCPUBytesPerSec: 100 * gbps, PeakFLOPsPerGPU: v100FLOPs},
		{Name: "p4d.24xlarge", Cloud: "AWS", GPUs: 8, GPUMemBytes: 40 * gib, CPUMemBytes: 1152 * gib,
			NetworkBytesPerSec: 400 * gbps, GPUToCPUBytesPerSec: 400 * gbps, PeakFLOPsPerGPU: a100FLOPs},
		{Name: "ND40rs_v2", Cloud: "Azure", GPUs: 8, GPUMemBytes: 32 * gib, CPUMemBytes: 672 * gib,
			NetworkBytesPerSec: 100 * gbps, GPUToCPUBytesPerSec: 100 * gbps, PeakFLOPsPerGPU: v100FLOPs},
		{Name: "ND96asr_v4", Cloud: "Azure", GPUs: 8, GPUMemBytes: 40 * gib, CPUMemBytes: 900 * gib,
			NetworkBytesPerSec: 200 * gbps, GPUToCPUBytesPerSec: 200 * gbps, PeakFLOPsPerGPU: a100FLOPs},
		{Name: "n1-8-v100", Cloud: "GCP", GPUs: 8, GPUMemBytes: 32 * gib, CPUMemBytes: 624 * gib,
			NetworkBytesPerSec: 100 * gbps, GPUToCPUBytesPerSec: 100 * gbps, PeakFLOPsPerGPU: v100FLOPs},
		{Name: "a2-highgpu-8g", Cloud: "GCP", GPUs: 8, GPUMemBytes: 40 * gib, CPUMemBytes: 640 * gib,
			NetworkBytesPerSec: 100 * gbps, GPUToCPUBytesPerSec: 100 * gbps, PeakFLOPsPerGPU: a100FLOPs},
		{Name: "DGX A100", Cloud: "NVIDIA", GPUs: 8, GPUMemBytes: 80 * gib, CPUMemBytes: 2048 * gib,
			NetworkBytesPerSec: 200 * gbps, GPUToCPUBytesPerSec: 400 * gbps, PeakFLOPsPerGPU: a100FLOPs},
	}
}

// InstanceByName returns the catalog entry with the given name.
func InstanceByName(name string) (InstanceType, error) {
	for _, it := range Table1() {
		if it.Name == name {
			return it, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cluster: no instance type named %q", name)
}

// MustInstance is InstanceByName for statically-known names.
func MustInstance(name string) InstanceType {
	it, err := InstanceByName(name)
	if err != nil {
		panic(err)
	}
	return it
}
