package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gemini/internal/simclock"
)

func TestTable1MatchesPaper(t *testing.T) {
	// CPU-memory figures straight out of Table 1.
	wantCPU := map[string]int64{
		"p3dn.24xlarge": 768 * gib,
		"p4d.24xlarge":  1152 * gib,
		"ND40rs_v2":     672 * gib,
		"ND96asr_v4":    900 * gib,
		"n1-8-v100":     624 * gib,
		"a2-highgpu-8g": 640 * gib,
		"DGX A100":      2048 * gib,
	}
	rows := Table1()
	if len(rows) != len(wantCPU) {
		t.Fatalf("Table 1 has %d rows, want %d", len(rows), len(wantCPU))
	}
	for _, it := range rows {
		if err := it.Validate(); err != nil {
			t.Errorf("%s invalid: %v", it.Name, err)
		}
		if it.CPUMemBytes != wantCPU[it.Name] {
			t.Errorf("%s CPU mem %d, want %d", it.Name, it.CPUMemBytes, wantCPU[it.Name])
		}
		if it.GPUs != 8 {
			t.Errorf("%s has %d GPUs, want 8", it.Name, it.GPUs)
		}
		// The motivating observation: CPU memory exceeds total GPU memory
		// on every instance type in the table.
		if it.CPUOverGPURatio() <= 1 {
			t.Errorf("%s CPU/GPU memory ratio %.2f, want > 1", it.Name, it.CPUOverGPURatio())
		}
	}
}

func TestInstanceBandwidths(t *testing.T) {
	p4d := MustInstance("p4d.24xlarge")
	if p4d.NetworkBytesPerSec != 400*gbps {
		t.Errorf("p4d network %v, want 400 Gbps", p4d.NetworkBytesPerSec)
	}
	if p4d.GPUToCPUBytesPerSec != p4d.NetworkBytesPerSec {
		t.Error("p4d copy bandwidth should match network bandwidth (§5.2 footnote)")
	}
	p3dn := MustInstance("p3dn.24xlarge")
	if p3dn.NetworkBytesPerSec != 100*gbps {
		t.Errorf("p3dn network %v, want 100 Gbps", p3dn.NetworkBytesPerSec)
	}
}

func TestInstanceByNameUnknown(t *testing.T) {
	if _, err := InstanceByName("x1e.32xlarge"); err == nil {
		t.Fatal("unknown instance accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustInstance on unknown name did not panic")
		}
	}()
	MustInstance("nope")
}

func TestInstanceValidate(t *testing.T) {
	good := MustInstance("p4d.24xlarge")
	mutations := []func(*InstanceType){
		func(it *InstanceType) { it.Name = "" },
		func(it *InstanceType) { it.GPUs = 0 },
		func(it *InstanceType) { it.GPUMemBytes = 0 },
		func(it *InstanceType) { it.CPUMemBytes = -1 },
		func(it *InstanceType) { it.NetworkBytesPerSec = 0 },
		func(it *InstanceType) { it.GPUToCPUBytesPerSec = 0 },
		func(it *InstanceType) { it.PeakFLOPsPerGPU = 0 },
	}
	for i, mutate := range mutations {
		it := good
		mutate(&it)
		if err := it.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// Every float field fails Validate on NaN and ±Inf with an error naming
// the field.
func TestInstanceValidateRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*InstanceType, float64)
	}{
		{"NetworkBytesPerSec", func(it *InstanceType, v float64) { it.NetworkBytesPerSec = v }},
		{"GPUToCPUBytesPerSec", func(it *InstanceType, v float64) { it.GPUToCPUBytesPerSec = v }},
		{"PeakFLOPsPerGPU", func(it *InstanceType, v float64) { it.PeakFLOPsPerGPU = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			it := MustInstance("p4d.24xlarge")
			f.set(&it, v)
			if err := it.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: error %v, want one naming %s", f.name, v, err, f.name)
			}
		}
	}
}

func newTestCluster(t *testing.T, n int) (*simclock.Engine, *Cluster) {
	t.Helper()
	e := simclock.NewEngine()
	c, err := New(n, MustInstance("p4d.24xlarge"))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, c
}

func TestClusterLifecycle(t *testing.T) {
	e, c := newTestCluster(t, 4)
	if c.Size() != 4 || !allHealthy(c) {
		t.Fatalf("fresh cluster size=%d, want 4 healthy", c.Size())
	}
	e.At(100, func() {
		c.Fail(1, SoftwareFailed)
		c.Fail(2, HardwareFailed)
	})
	e.RunAll()
	for rank, want := range []MachineState{Healthy, SoftwareFailed, HardwareFailed, Healthy} {
		if got := c.Machine(rank).State(); got != want {
			t.Fatalf("rank %d is %v, want %v", rank, got, want)
		}
	}

	// Software failure restarts in place.
	if err := c.Restart(1); err != nil {
		t.Fatalf("Restart(1): %v", err)
	}
	if !c.Machine(1).Healthy() || c.Machine(1).Incarnation != 0 {
		t.Fatal("software restart should keep the same incarnation")
	}

	// Hardware failure needs replacement.
	if err := c.Restart(2); err == nil {
		t.Fatal("restart of hardware-failed machine accepted")
	}
	fresh := c.Replace(2)
	if fresh.Incarnation != 1 || !fresh.Healthy() || fresh.Rank != 2 {
		t.Fatalf("replacement machine wrong: %+v", fresh)
	}
	if c.Machine(2) != fresh {
		t.Fatal("slot does not hold the replacement")
	}
	if !allHealthy(c) {
		t.Fatal("cluster not fully healthy after recovery")
	}
}

func allHealthy(c *Cluster) bool {
	for rank := 0; rank < c.Size(); rank++ {
		if !c.Machine(rank).Healthy() {
			return false
		}
	}
	return true
}

func TestHardwareFailureDominatesSoftware(t *testing.T) {
	_, c := newTestCluster(t, 2)
	c.Fail(0, HardwareFailed)
	c.Fail(0, SoftwareFailed) // must not downgrade
	if c.Machine(0).State() != HardwareFailed {
		t.Fatalf("state %v, want hardware-failed", c.Machine(0).State())
	}
}

func TestRestartHealthyIsNoop(t *testing.T) {
	_, c := newTestCluster(t, 1)
	if err := c.Restart(0); err != nil {
		t.Fatalf("restart of healthy machine errored: %v", err)
	}
}

func TestFailWithHealthyStatePanics(t *testing.T) {
	_, c := newTestCluster(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Fail(Healthy) did not panic")
		}
	}()
	c.Fail(0, Healthy)
}

func TestClusterConstructorErrors(t *testing.T) {
	if _, err := New(0, MustInstance("p4d.24xlarge")); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := New(2, InstanceType{}); err == nil {
		t.Error("invalid instance type accepted")
	}
	c := MustNew(2, MustInstance("p4d.24xlarge"))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank did not panic")
		}
	}()
	c.Machine(5)
}

// Property: any sequence of fail/restart/replace operations keeps the
// invariant that every slot holds exactly one machine with the slot's
// rank, and incarnations never decrease.
func TestPropertyLifecycleInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		c := MustNew(4, MustInstance("p3dn.24xlarge"))
		inc := make([]int, 4)
		for _, op := range ops {
			rank := int(op) % 4
			switch (op / 4) % 4 {
			case 0:
				c.Fail(rank, SoftwareFailed)
			case 1:
				c.Fail(rank, HardwareFailed)
			case 2:
				_ = c.Restart(rank)
			case 3:
				c.Replace(rank)
			}
			for r := 0; r < 4; r++ {
				m := c.Machine(r)
				if m.Rank != r || m.Incarnation < inc[r] {
					return false
				}
				inc[r] = m.Incarnation
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMachineStateString(t *testing.T) {
	cases := map[MachineState]string{
		Healthy: "healthy", SoftwareFailed: "software-failed",
		HardwareFailed: "hardware-failed", MachineState(7): "MachineState(7)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}
