package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTable2HasEightRows(t *testing.T) {
	rows := Table2()
	if len(rows) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(rows))
	}
	for _, c := range rows {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name(), err)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	cases := []struct {
		name                  string
		hidden, inter, layers int
		heads                 int
	}{
		{"GPT-2 10B", 2560, 10240, 46, 40},
		{"GPT-2 20B", 5120, 20480, 64, 40},
		{"GPT-2 40B", 5120, 20480, 128, 40},
		{"RoBERTa 40B", 5120, 20480, 128, 40},
		{"BERT 40B", 5120, 20480, 128, 40},
		{"GPT-2 100B", 8192, 32768, 124, 64},
		{"RoBERTa 100B", 8192, 32768, 124, 64},
		{"BERT 100B", 8192, 32768, 124, 64},
	}
	for _, want := range cases {
		c, err := ByName(want.name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", want.name, err)
		}
		if c.HiddenSize != want.hidden || c.Intermediate != want.inter ||
			c.Layers != want.layers || c.AttentionHeads != want.heads {
			t.Errorf("%s config %+v does not match paper row %+v", want.name, c, want)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("LLaMA 7B"); err == nil {
		t.Fatal("unknown model accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName on unknown model did not panic")
		}
	}()
	MustByName("nope")
}

func TestCheckpointSizeMatchesPaperGPT2100B(t *testing.T) {
	// §5.2: "the checkpoint size of GPT2-100B on each GPU is 9.4GB"
	// with 16 machines × 8 GPUs.
	c := MustByName("GPT-2 100B")
	s := Sharding{Machines: 16, GPUsPerNode: 8}
	perGPU := s.ShardBytesPerGPU(c)
	gib := perGPU / (1 << 30)
	if math.Abs(gib-8.7) > 0.2 { // 1.2e12/128 bytes = 8.73 GiB = 9.375 GB
		t.Errorf("per-GPU shard %.2f GiB, want ≈8.7 GiB", gib)
	}
	gb := perGPU / 1e9
	if math.Abs(gb-9.375) > 0.1 {
		t.Errorf("per-GPU shard %.2f GB, want ≈9.4 GB", gb)
	}
}

func TestDerivedParamsCloseToNominalFor100B(t *testing.T) {
	// The 100B configs follow the standard 12·h²·L scaling, so the derived
	// count should land within a few percent of nominal.
	c := MustByName("GPT-2 100B")
	derived := float64(c.DerivedParams())
	if ratio := derived / float64(c.NominalParams); ratio < 0.95 || ratio > 1.1 {
		t.Errorf("derived/nominal = %.3f, want ≈1 for 100B config", ratio)
	}
}

func TestDerivedParamsPositiveAndMonotone(t *testing.T) {
	small := Config{Family: GPT2, NominalParams: 1, HiddenSize: 8, Intermediate: 32,
		Layers: 2, AttentionHeads: 2, VocabSize: 100, SeqLen: 16, MicroBatch: 1}
	big := small
	big.Layers = 4
	if small.DerivedParams() <= 0 {
		t.Fatal("derived params not positive")
	}
	if big.DerivedParams() <= small.DerivedParams() {
		t.Fatal("more layers did not increase parameter count")
	}
}

func TestShardingMath(t *testing.T) {
	c := MustByName("GPT-2 10B")
	s := Sharding{Machines: 4, GPUsPerNode: 8}
	if s.GPUs() != 32 {
		t.Fatalf("GPUs = %d, want 32", s.GPUs())
	}
	total := c.CheckpointBytes()
	perMachine := s.ShardBytesPerMachine(c)
	perGPU := s.ShardBytesPerGPU(c)
	if perMachine < total/4 || perMachine > total/4+1 {
		t.Errorf("per-machine shard %v, want ≈%v", perMachine, total/4)
	}
	if perGPU < total/32 || perGPU > total/32+1 {
		t.Errorf("per-GPU shard %v, want ≈%v", perGPU, total/32)
	}
	if rb := s.ResidentBytesPerGPU(c); rb < perGPU {
		t.Errorf("resident bytes %v smaller than checkpoint shard %v", rb, perGPU)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := MustByName("GPT-2 10B")
	mutations := []func(*Config){
		func(c *Config) { c.HiddenSize = 0 },
		func(c *Config) { c.Intermediate = -1 },
		func(c *Config) { c.Layers = 0 },
		func(c *Config) { c.AttentionHeads = 0 },
		func(c *Config) { c.AttentionHeads = 7 }, // not dividing hidden
		func(c *Config) { c.NominalParams = 0 },
		func(c *Config) { c.VocabSize = 0 },
		func(c *Config) { c.SeqLen = 0 },
		func(c *Config) { c.MicroBatch = 0 },
	}
	for i, mutate := range mutations {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestFormatParams(t *testing.T) {
	cases := []struct {
		p    int64
		want string
	}{
		{100e9, "100B"},
		{10e9, "10B"},
		{1.5e9, "1.5B"},
		{350e6, "350M"},
		{999, "999"},
	}
	for _, c := range cases {
		if got := FormatParams(c.p); got != c.want {
			t.Errorf("FormatParams(%d) = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestNameFormat(t *testing.T) {
	c := MustByName("BERT 100B")
	if !strings.HasPrefix(c.Name(), "BERT") || !strings.HasSuffix(c.Name(), "100B") {
		t.Errorf("Name() = %q", c.Name())
	}
}

func TestFLOPsAndBytesScales(t *testing.T) {
	c := MustByName("GPT-2 100B")
	// 8·P·tokens with 8×512 tokens.
	want := 8 * 100e9 * 8 * 512
	if got := c.FLOPsPerIteration(); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("FLOPs = %v, want %v", got, want)
	}
	if c.FP16ParamBytes() != 200e9 {
		t.Errorf("fp16 bytes = %v, want 200e9", c.FP16ParamBytes())
	}
	perLayer := c.LayerFP16Bytes()
	if math.Abs(perLayer*float64(c.Layers)-c.FP16ParamBytes()) > 1 {
		t.Errorf("layer bytes %v × %d layers != total %v", perLayer, c.Layers, c.FP16ParamBytes())
	}
}

// Property: for any sharding shape, per-GPU × GPUs covers the checkpoint
// and per-machine × machines covers it too (ceiling semantics).
func TestPropertyShardCoverage(t *testing.T) {
	c := MustByName("GPT-2 40B")
	f := func(mRaw, gRaw uint8) bool {
		m := int(mRaw%64) + 1
		g := int(gRaw%8) + 1
		s := Sharding{Machines: m, GPUsPerNode: g}
		total := c.CheckpointBytes()
		if s.ShardBytesPerGPU(c)*float64(s.GPUs()) < total {
			return false
		}
		return s.ShardBytesPerMachine(c)*float64(m) >= total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: checkpoint bytes scale linearly in nominal parameters, and the
// 12/16 bytes-per-param relationship always holds.
func TestPropertyBytesPerParam(t *testing.T) {
	f := func(pRaw uint32) bool {
		p := int64(pRaw%1e6) + 1
		c := Config{Family: GPT2, NominalParams: p, HiddenSize: 8, Intermediate: 32,
			Layers: 2, AttentionHeads: 2, VocabSize: 10, SeqLen: 4, MicroBatch: 1}
		return c.CheckpointBytes() == float64(p)*12 &&
			c.ResidentStateBytes() == float64(p)*16 &&
			c.ResidentStateBytes() > c.CheckpointBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
