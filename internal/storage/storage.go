// Package storage provides the per-machine CPU-memory stores GEMINI
// writes its recovery checkpoints into. The remote persistent tier (the
// FSx-like filesystem whose ~20 Gbps aggregate bandwidth limits existing
// checkpointing solutions, §2.2) lives elsewhere: baselines turns its
// bandwidth into checkpoint and retrieval times, and statemgr keeps the
// shard bytes it holds.
package storage

import (
	"fmt"

	"gemini/internal/tensor"
)

// Object is a stored checkpoint shard: sized payload plus the metadata
// recovery needs. Payload may be nil when only timing is simulated.
type Object struct {
	Key       string
	Bytes     float64
	Iteration int64
	Payload   *tensor.State
}

// MemoryStore is one machine's CPU-memory checkpoint area. Capacity is
// enforced: GEMINI reserves exactly two checkpoint buffers per replica
// (one complete, one in progress, §7.1), and the store refuses writes
// that would exceed what was provisioned.
type MemoryStore struct {
	capacity float64
	used     float64
	objects  map[string]Object
}

// NewMemoryStore creates a store with the given byte capacity.
func NewMemoryStore(capacity float64) (*MemoryStore, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("storage: negative capacity %v", capacity)
	}
	return &MemoryStore{capacity: capacity, objects: make(map[string]Object)}, nil
}

// MustNewMemoryStore is NewMemoryStore for known-good capacities.
func MustNewMemoryStore(capacity float64) *MemoryStore {
	s, err := NewMemoryStore(capacity)
	if err != nil {
		panic(err)
	}
	return s
}

// Put stores an object, replacing any object under the same key. It fails
// if the store would exceed capacity.
func (s *MemoryStore) Put(obj Object) error {
	if obj.Bytes < 0 {
		return fmt.Errorf("storage: object %q has negative size", obj.Key)
	}
	prev := 0.0
	if old, ok := s.objects[obj.Key]; ok {
		prev = old.Bytes
	}
	if s.used-prev+obj.Bytes > s.capacity {
		return fmt.Errorf("storage: %q (%.0f bytes) exceeds capacity: used %.0f of %.0f",
			obj.Key, obj.Bytes, s.used, s.capacity)
	}
	s.used += obj.Bytes - prev
	s.objects[obj.Key] = obj
	return nil
}

// Get returns the object under key.
func (s *MemoryStore) Get(key string) (Object, bool) {
	obj, ok := s.objects[key]
	return obj, ok
}

// Wipe drops everything — what a hardware failure does to a machine's
// CPU-memory checkpoints.
func (s *MemoryStore) Wipe() {
	s.objects = make(map[string]Object)
	s.used = 0
}
