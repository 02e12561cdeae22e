// Package storage provides the two checkpoint destinations below the
// training machines' own CPU memory: the remote persistent store (the
// FSx-like filesystem whose ~20 Gbps aggregate bandwidth is what limits
// existing checkpointing solutions, §2.2) and the per-machine CPU-memory
// stores GEMINI writes its recovery checkpoints into.
package storage

import (
	"fmt"
	"sort"

	"gemini/internal/netsim"
	"gemini/internal/simclock"
	"gemini/internal/tensor"
)

// Object is a stored checkpoint shard: sized payload plus the metadata
// recovery needs. Payload may be nil when only timing is simulated.
type Object struct {
	Key       string
	Bytes     float64
	Iteration int64
	Shard     int
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

// Capacity returns the store's byte capacity.
func (s *MemoryStore) Capacity() float64 { return s.capacity }

// Used returns the bytes currently stored.
func (s *MemoryStore) Used() float64 { return s.used }

// Len returns the number of stored objects.
func (s *MemoryStore) Len() int { return len(s.objects) }

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

// Delete removes the object under key, if present.
func (s *MemoryStore) Delete(key string) {
	if obj, ok := s.objects[key]; ok {
		s.used -= obj.Bytes
		delete(s.objects, key)
	}
}

// Keys returns all keys in sorted order.
func (s *MemoryStore) Keys() []string {
	out := make([]string, 0, len(s.objects))
	for k := range s.objects {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Wipe drops everything — what a hardware failure does to a machine's
// CPU-memory checkpoints.
func (s *MemoryStore) Wipe() {
	s.objects = make(map[string]Object)
	s.used = 0
}

// RemoteStore is the remote persistent storage service. All machines'
// reads and writes share its aggregate bandwidth; transfers are carried
// as flows on the cluster fabric, to and from a dedicated storage node,
// so they contend with any concurrent training traffic on the machines'
// NICs as well.
type RemoteStore struct {
	engine  *simclock.Engine
	fabric  *netsim.Fabric
	node    int // the storage endpoint on the fabric
	objects map[string]Object
}

// NewRemoteStore attaches a persistent store to fabric endpoint node with
// the given aggregate bandwidth in bytes/sec.
func NewRemoteStore(engine *simclock.Engine, fabric *netsim.Fabric, node int, aggBytesPerSec float64) (*RemoteStore, error) {
	if aggBytesPerSec <= 0 {
		return nil, fmt.Errorf("storage: aggregate bandwidth must be positive, got %v", aggBytesPerSec)
	}
	fabric.SetNodeCapacity(node, aggBytesPerSec, aggBytesPerSec)
	return &RemoteStore{
		engine:  engine,
		fabric:  fabric,
		node:    node,
		objects: make(map[string]Object),
	}, nil
}

// Node returns the fabric endpoint the store occupies.
func (r *RemoteStore) Node() int { return r.node }

// Has reports whether an object exists under key.
func (r *RemoteStore) Has(key string) bool {
	_, ok := r.objects[key]
	return ok
}

// Lookup returns the object's metadata without transferring it.
func (r *RemoteStore) Lookup(key string) (Object, bool) {
	obj, ok := r.objects[key]
	return obj, ok
}

// Keys returns all keys in sorted order.
func (r *RemoteStore) Keys() []string {
	out := make([]string, 0, len(r.objects))
	for k := range r.objects {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Write uploads an object from machine node src. done fires when the
// upload completes (ok) or the source fails mid-transfer (!ok). The
// object becomes visible only on completion — a failure mid-upload leaves
// the previous version intact, never a torn object.
func (r *RemoteStore) Write(src int, obj Object, done func(ok bool)) {
	r.fabric.StartFlow(src, r.node, obj.Bytes, "ckpt-upload:"+obj.Key, func(fl *netsim.Flow) {
		ok := fl.State() == netsim.FlowDone
		fl.Release()
		if ok {
			r.objects[obj.Key] = obj
		}
		if done != nil {
			done(ok)
		}
	})
}

// Read downloads the object under key to machine node dst. done receives
// the object and ok=true on success; a missing key or failed transfer
// reports ok=false.
func (r *RemoteStore) Read(key string, dst int, done func(Object, bool)) {
	obj, ok := r.objects[key]
	if !ok {
		r.engine.After(0, func() { done(Object{}, false) })
		return
	}
	r.fabric.StartFlow(r.node, dst, obj.Bytes, "ckpt-download:"+key, func(fl *netsim.Flow) {
		ok := fl.State() == netsim.FlowDone
		fl.Release()
		if ok {
			done(obj, true)
		} else {
			done(Object{}, false)
		}
	})
}

// Delete removes an object.
func (r *RemoteStore) Delete(key string) { delete(r.objects, key) }
