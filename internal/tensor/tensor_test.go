package tensor

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleState() *State {
	return &State{
		Iteration: 310,
		Shard:     3,
		Tensors: []Tensor{
			{Name: "layer.0.weight", DType: FP32, Shape: []int64{4, 2}, Data: make([]byte, 32)},
			{Name: "layer.0.bias", DType: FP16, Shape: []int64{8}, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}},
			{Name: "step", DType: INT64, Shape: []int64{1}, Data: make([]byte, 8)},
		},
	}
}

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int{FP32: 4, FP16: 2, BF16: 2, INT64: 8}
	for d, want := range cases {
		if d.Size() != want {
			t.Errorf("%v.Size() = %d, want %d", d, d.Size(), want)
		}
	}
	names := map[DType]string{FP32: "fp32", FP16: "fp16", BF16: "bf16", INT64: "int64"}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%v name wrong", d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown dtype Size did not panic")
		}
	}()
	DType(99).Size()
}

func TestTensorValidate(t *testing.T) {
	good := Tensor{Name: "w", DType: FP32, Shape: []int64{2, 3}, Data: make([]byte, 24)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid tensor rejected: %v", err)
	}
	bad := []Tensor{
		{Name: "", DType: FP32, Shape: []int64{1}, Data: make([]byte, 4)},
		{Name: "w", DType: FP32, Shape: []int64{-1}, Data: nil},
		{Name: "w", DType: FP32, Shape: []int64{2}, Data: make([]byte, 7)},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad tensor %d accepted", i)
		}
	}
}

func TestStateValidateRejectsDuplicates(t *testing.T) {
	s := sampleState()
	s.Tensors = append(s.Tensors, s.Tensors[0])
	if err := s.Validate(); err == nil {
		t.Fatal("duplicate tensor names accepted")
	}
}

// A state's bytes on the wire: 56 bytes of data plus the framing, 32
// bytes of magic, header and footer and, per tensor, 16 bytes plus its
// name and 8 bytes per dimension.
func TestStateBytes(t *testing.T) {
	s := sampleState()
	want := 56 + 32 + (16 + 14 + 16) + (16 + 12 + 8) + (16 + 4 + 8)
	if got := EncodedSize(s); got != int64(want) {
		t.Fatalf("EncodedSize = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != want {
		t.Fatalf("encoded %d bytes, want %d", buf.Len(), want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := sampleState()
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Tensors[0].Data[0] = 0xFF
	c.Tensors[0].Shape[0] = 99
	if s.Tensors[0].Data[0] == 0xFF || s.Tensors[0].Shape[0] == 99 {
		t.Fatal("clone shares storage with original")
	}
	if s.Equal(c) {
		t.Fatal("mutated clone still equal")
	}
}

func TestEqualDiscriminates(t *testing.T) {
	s := sampleState()
	cases := []func(*State){
		func(o *State) { o.Iteration++ },
		func(o *State) { o.Shard++ },
		func(o *State) { o.Tensors = o.Tensors[:2] },
		func(o *State) { o.Tensors[1].Name = "x" },
		func(o *State) { o.Tensors[1].DType = BF16 },
		func(o *State) { o.Tensors[0].Shape = []int64{2, 4} },
		func(o *State) { o.Tensors[1].Data[3] ^= 1 },
	}
	for i, mutate := range cases {
		o := s.Clone()
		mutate(o)
		if s.Equal(o) {
			t.Errorf("mutation %d not detected by Equal", i)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	s := sampleState()
	base := s.Fingerprint()
	o := s.Clone()
	o.Tensors[0].Data[5] ^= 0x80
	if o.Fingerprint() == base {
		t.Fatal("fingerprint ignored data flip")
	}
	o2 := s.Clone()
	o2.Iteration = 311
	if o2.Fingerprint() == base {
		t.Fatal("fingerprint ignored iteration change")
	}
	if s.Clone().Fingerprint() != base {
		t.Fatal("fingerprint not deterministic")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleState()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if int64(buf.Len()) != EncodedSize(s) {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", buf.Len(), EncodedSize(s))
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !s.Equal(got) {
		t.Fatal("round trip changed state")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := sampleState()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := buf.Bytes()

	// Flip one byte at several positions; decode must fail with ErrCorrupt
	// (or at minimum not return a state equal to the original).
	for _, pos := range []int{0, 8, 20, len(raw) / 2, len(raw) - 2} {
		cp := append([]byte(nil), raw...)
		cp[pos] ^= 0xA5
		got, err := Decode(bytes.NewReader(cp))
		if err == nil && got.Equal(s) {
			t.Errorf("flip at %d silently accepted", pos)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("flip at %d: error %v does not wrap ErrCorrupt", pos, err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	s := sampleState()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 4, 8, 16, len(raw) / 2, len(raw) - 1} {
		if _, err := Decode(bytes.NewReader(raw[:n])); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestEncodeRejectsInvalidState(t *testing.T) {
	s := sampleState()
	s.Tensors[0].Data = s.Tensors[0].Data[:5]
	var buf bytes.Buffer
	if err := Encode(&buf, s); err == nil {
		t.Fatal("invalid state encoded")
	}
}

func TestSyntheticStateDeterministic(t *testing.T) {
	a := NewSyntheticState(100, 3, 1<<16, 42)
	b := NewSyntheticState(100, 3, 1<<16, 42)
	if !a.Equal(b) {
		t.Fatal("same seed produced different states")
	}
	c := NewSyntheticState(100, 3, 1<<16, 43)
	if a.Equal(c) {
		t.Fatal("different seed produced identical states")
	}
	d := NewSyntheticState(101, 3, 1<<16, 42)
	if a.Equal(d) {
		t.Fatal("different iteration produced identical states")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("synthetic state invalid: %v", err)
	}
	payload := 0
	for _, tn := range a.Tensors {
		payload += len(tn.Data)
	}
	if payload == 0 || payload > 1<<16 {
		t.Fatalf("synthetic state %d bytes, want (0, %d]", payload, 1<<16)
	}
	if len(a.Tensors) != 3 {
		t.Fatalf("synthetic state has %d tensors, want 3 (params + 2 moments)", len(a.Tensors))
	}
}

func TestCostModelCalibration(t *testing.T) {
	m := DefaultCostModel()
	// Two replicas of a 16-machine GPT-2 100B shard: 2 × 75 GB at the
	// calibrated rate should take ≈161 s (the paper reports 162 s).
	shard := 1.2e12 / 16
	got := m.SerializeTime(2 * shard).Seconds()
	if math.Abs(got-162) > 10 {
		t.Errorf("serialize(2 shards) = %.0fs, want ≈162s", got)
	}
	// One shard ≈ 81 s (HighFreq's per-checkpoint serialization).
	got = m.SerializeTime(shard).Seconds()
	if math.Abs(got-81) > 5 {
		t.Errorf("serialize(1 shard) = %.0fs, want ≈81s", got)
	}
	if m.DeserializeTime(shard) >= m.SerializeTime(shard) {
		t.Error("deserialize should be faster than serialize")
	}
	zero := CostModel{}
	if zero.SerializeTime(1e9) != 0 || zero.DeserializeTime(1e9) != 0 {
		t.Error("zero cost model should cost nothing")
	}
}

// Property: encode→decode is the identity on randomly generated states.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(seed int64, iter uint16, shard uint8, size uint16) bool {
		s := NewSyntheticState(int64(iter), int(shard), int64(size), seed)
		var buf bytes.Buffer
		if err := Encode(&buf, s); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return got.Equal(s) && got.Fingerprint() == s.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single random byte flip in the encoding is either detected
// or yields a state identical to the original (flips in dead padding do
// not exist in this format, but equality is the safety condition).
func TestPropertyCorruptionDetected(t *testing.T) {
	s := NewSyntheticState(7, 1, 4096, 99)
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := func(posRaw uint16, bit uint8) bool {
		pos := int(posRaw) % len(raw)
		cp := append([]byte(nil), raw...)
		cp[pos] ^= 1 << (bit % 8)
		got, err := Decode(bytes.NewReader(cp))
		if err != nil {
			return true
		}
		return got.Equal(s)
	}
	if err := quick.Check(f, &quick.Config{
		MaxCount: 200,
		Rand:     rand.New(rand.NewSource(1)),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestElems(t *testing.T) {
	tt := Tensor{Shape: []int64{3, 4, 5}}
	if tt.Elems() != 60 {
		t.Fatalf("Elems = %d, want 60", tt.Elems())
	}
	scalar := Tensor{Shape: nil}
	if scalar.Elems() != 1 {
		t.Fatalf("scalar Elems = %d, want 1", scalar.Elems())
	}
}

func TestNegativeSyntheticSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	NewSyntheticState(0, 0, -1, 0)
}
