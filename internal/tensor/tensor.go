// Package tensor represents model states — the learnable parameters and
// optimizer moments that a checkpoint captures — as named, typed tensors,
// and provides the binary serialization GEMINI uses in place of
// torch.save/torch.load. Checkpoint integrity across failures is verified
// through per-tensor and whole-state checksums.
package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
)

// DType is the element type of a tensor.
type DType uint8

const (
	FP32 DType = iota
	FP16
	BF16
	INT64
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case FP32:
		return 4
	case FP16, BF16:
		return 2
	case INT64:
		return 8
	default:
		panic(fmt.Sprintf("tensor: unknown dtype %d", uint8(d)))
	}
}

func (d DType) String() string {
	switch d {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case BF16:
		return "bf16"
	case INT64:
		return "int64"
	default:
		return fmt.Sprintf("DType(%d)", uint8(d))
	}
}

// Tensor is a named block of typed data.
type Tensor struct {
	Name  string
	DType DType
	Shape []int64
	Data  []byte
}

// Elems returns the number of elements implied by the shape.
func (t *Tensor) Elems() int64 {
	n := int64(1)
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Validate checks that the data length matches shape × dtype.
func (t *Tensor) Validate() error {
	if t.Name == "" {
		return errors.New("tensor: empty tensor name")
	}
	for _, d := range t.Shape {
		if d < 0 {
			return fmt.Errorf("tensor: %s has negative dimension %d", t.Name, d)
		}
	}
	want := t.Elems() * int64(t.DType.Size())
	if int64(len(t.Data)) != want {
		return fmt.Errorf("tensor: %s has %d data bytes, shape wants %d", t.Name, len(t.Data), want)
	}
	return nil
}

// Checksum returns the CRC-32C of the tensor's data.
func (t *Tensor) Checksum() uint32 {
	return crc32.Checksum(t.Data, castagnoli)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// State is a complete set of model states for one shard: the unit GEMINI
// checkpoints. Iteration stamps which training step the state belongs to;
// all shards of a consistent checkpoint carry the same iteration.
type State struct {
	Iteration int64
	Shard     int // which machine rank this shard belongs to
	Tensors   []Tensor
}

// Validate checks every tensor and that names are unique.
func (s *State) Validate() error {
	seen := make(map[string]bool, len(s.Tensors))
	for i := range s.Tensors {
		t := &s.Tensors[i]
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("tensor: duplicate tensor name %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// Fingerprint returns a checksum over the entire state, including
// iteration, shard, names, shapes and data. Two states are
// interchangeable for recovery iff their fingerprints match.
func (s *State) Fingerprint() uint32 {
	h := crc32.New(castagnoli)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(s.Iteration))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(s.Shard))
	h.Write(buf[:])
	for i := range s.Tensors {
		t := &s.Tensors[i]
		h.Write([]byte(t.Name))
		h.Write([]byte{byte(t.DType)})
		for _, d := range t.Shape {
			binary.LittleEndian.PutUint64(buf[:], uint64(d))
			h.Write(buf[:])
		}
		h.Write(t.Data)
	}
	return h.Sum32()
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	out := &State{Iteration: s.Iteration, Shard: s.Shard, Tensors: make([]Tensor, len(s.Tensors))}
	for i := range s.Tensors {
		t := s.Tensors[i]
		out.Tensors[i] = Tensor{
			Name:  t.Name,
			DType: t.DType,
			Shape: append([]int64(nil), t.Shape...),
			Data:  append([]byte(nil), t.Data...),
		}
	}
	return out
}

// Equal reports whether two states are byte-for-byte identical.
func (s *State) Equal(o *State) bool {
	if s.Iteration != o.Iteration || s.Shard != o.Shard || len(s.Tensors) != len(o.Tensors) {
		return false
	}
	for i := range s.Tensors {
		a, b := &s.Tensors[i], &o.Tensors[i]
		if a.Name != b.Name || a.DType != b.DType || len(a.Shape) != len(b.Shape) {
			return false
		}
		for j := range a.Shape {
			if a.Shape[j] != b.Shape[j] {
				return false
			}
		}
		if string(a.Data) != string(b.Data) {
			return false
		}
	}
	return true
}

// NewSyntheticState builds a deterministic pseudo-random model-state shard
// of approximately targetBytes, structured like a ZeRO-3 shard: fp32
// master parameters and two fp32 Adam moments in equal thirds. The same
// (iteration, shard, seed) always yields identical contents, so recovery
// tests can verify byte-exact restoration.
func NewSyntheticState(iteration int64, shard int, targetBytes int64, seed int64) *State {
	if targetBytes < 0 {
		panic(fmt.Sprintf("tensor: negative target size %d", targetBytes))
	}
	rng := rand.New(rand.NewSource(seed ^ iteration<<20 ^ int64(shard)<<40))
	elemsPerPart := targetBytes / 3 / 4 // three fp32 tensors
	mk := func(name string) Tensor {
		data := make([]byte, elemsPerPart*4)
		for i := int64(0); i < elemsPerPart; i++ {
			binary.LittleEndian.PutUint32(data[i*4:], math.Float32bits(rng.Float32()))
		}
		return Tensor{Name: name, DType: FP32, Shape: []int64{elemsPerPart}, Data: data}
	}
	return &State{
		Iteration: iteration,
		Shard:     shard,
		Tensors: []Tensor{
			mk("optimizer.master_params"),
			mk("optimizer.exp_avg"),
			mk("optimizer.exp_avg_sq"),
		},
	}
}
