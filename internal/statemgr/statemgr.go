// Package statemgr is the checkpoint data plane: where the ckpt package
// tracks *which* shard versions live where, statemgr moves the actual
// bytes. Each machine owns a tensor.State shard of the model states;
// checkpoints replicate serialized shards into per-machine CPU-memory
// stores according to the placement, and recovery reassembles byte-exact
// shards — verified by content fingerprints — from local memory, peers,
// or the remote persistent store.
package statemgr

import (
	"bytes"
	"fmt"

	"gemini/internal/ckpt"
	"gemini/internal/placement"
	"gemini/internal/storage"
	"gemini/internal/tensor"
)

// Manager moves checkpoint bytes for one training cluster.
type Manager struct {
	placement *placement.Placement
	shardSize int64
	seed      int64

	// live[i] is machine i's current in-GPU model state shard.
	live []*tensor.State
	// cpu[i] is machine i's CPU-memory checkpoint area, holding encoded
	// shards under keys "owner/<rank>/<generation>".
	cpu []*storage.MemoryStore
	// remote holds the persistent-tier encodings (keyed by shard rank);
	// nil when the manager runs without a remote tier.
	remote map[int][]byte
	// remoteIteration is the iteration the remote tier captures.
	remoteIteration int64
}

// New creates a manager whose machines each own a synthetic model-state
// shard of shardSize bytes, deterministically derived from seed. Each
// machine's CPU store is sized for the double-buffered replicas the
// placement requires (2 generations × m shards, encoded).
func New(p *placement.Placement, shardSize int64, seed int64) (*Manager, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if shardSize <= 0 {
		return nil, fmt.Errorf("statemgr: shard size must be positive, got %d", shardSize)
	}
	m := &Manager{
		placement: p,
		shardSize: shardSize,
		seed:      seed,
		live:      make([]*tensor.State, p.N),
		cpu:       make([]*storage.MemoryStore, p.N),
		remote:    make(map[int][]byte),
	}
	// Encoded shards carry a small framing overhead; budget 2 generations
	// of m shards with 1 KiB of headroom each.
	capacity := float64(2*p.M) * (float64(shardSize) + 1024)
	for i := range m.cpu {
		store, err := storage.NewMemoryStore(capacity)
		if err != nil {
			return nil, err
		}
		m.cpu[i] = store
		m.live[i] = tensor.NewSyntheticState(0, i, shardSize, seed)
	}
	return m, nil
}

// MustNew is New for known-good arguments.
func MustNew(p *placement.Placement, shardSize int64, seed int64) *Manager {
	m, err := New(p, shardSize, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Placement returns the replica placement the manager follows.
func (m *Manager) Placement() *placement.Placement { return m.placement }

// Live returns machine rank's current in-GPU shard.
func (m *Manager) Live(rank int) *tensor.State { return m.live[rank] }

// Step advances every healthy machine's live state to the next iteration
// — the synthetic stand-in for an optimizer step. Failed machines
// (healthy(rank) == false) do not advance; synchronous training never
// lets that happen outside a failure window.
func (m *Manager) Step(iteration int64, healthy func(int) bool) {
	for rank := range m.live {
		if healthy != nil && !healthy(rank) {
			continue
		}
		m.live[rank] = tensor.NewSyntheticState(iteration, rank, m.shardSize, m.seed)
	}
}

// ckptKey names a shard generation in a CPU store. Two generations per
// owner rotate, mirroring the ckpt package's double buffer.
func ckptKey(owner int, generation int64) string {
	return fmt.Sprintf("owner/%04d/gen%d", owner, generation%2)
}

// Replicate writes owner's live shard, serialized, into holder's CPU
// store as the replica for iteration and returns its content
// fingerprint for the version tracker to record. The encoding is
// deterministic, so every holder of one iteration's shard stores
// bit-identical bytes.
func (m *Manager) Replicate(holder, owner int, iteration int64) (uint32, error) {
	state := m.live[owner]
	if state.Iteration != iteration {
		return 0, fmt.Errorf("statemgr: machine %d live state at iteration %d, checkpointing %d",
			owner, state.Iteration, iteration)
	}
	var buf bytes.Buffer
	buf.Grow(int(tensor.EncodedSize(state)))
	if err := tensor.Encode(&buf, state); err != nil {
		return 0, err
	}
	if err := m.cpu[holder].Put(storage.Object{
		Key:       ckptKey(owner, iteration),
		Bytes:     float64(buf.Len()),
		Iteration: iteration,
		Payload:   mustDecode(buf.Bytes()),
	}); err != nil {
		return 0, err
	}
	return state.Fingerprint(), nil
}

// Checkpoint replicates every healthy machine's live shard into the CPU
// stores of its healthy replica holders and commits each replica in the
// version tracker — a standalone driver for callers without a control
// plane (the agent commits from its strategy's plan through Replicate).
func (m *Manager) Checkpoint(tracker *ckpt.Engine, iteration int64, healthy func(int) bool) error {
	for owner := range m.live {
		if healthy != nil && !healthy(owner) {
			continue
		}
		for _, holder := range m.placement.Replicas(owner) {
			if healthy != nil && !healthy(holder) {
				continue
			}
			fp, err := m.Replicate(holder, owner, iteration)
			if err != nil {
				return err
			}
			tracker.Commit(holder, owner, iteration, fp)
		}
	}
	return nil
}

// mustDecode round-trips an encoding, guaranteeing the stored payload is
// an independent copy that later mutation of the live state cannot touch,
// and that what we stored actually decodes.
func mustDecode(encoded []byte) *tensor.State {
	s, err := tensor.Decode(bytes.NewReader(encoded))
	if err != nil {
		panic(fmt.Sprintf("statemgr: self-decode failed: %v", err))
	}
	return s
}

// CheckpointRemote captures every live shard into the remote persistent
// tier (the low-frequency checkpoint kept for fallback recovery).
func (m *Manager) CheckpointRemote(iteration int64) error {
	for owner := range m.live {
		state := m.live[owner]
		if state.Iteration != iteration {
			return fmt.Errorf("statemgr: machine %d live state at iteration %d, checkpointing %d remotely",
				owner, state.Iteration, iteration)
		}
		var buf bytes.Buffer
		buf.Grow(int(tensor.EncodedSize(state)))
		if err := tensor.Encode(&buf, state); err != nil {
			return err
		}
		m.remote[owner] = append([]byte(nil), buf.Bytes()...)
	}
	m.remoteIteration = iteration
	return nil
}

// RemoteIteration returns the iteration captured in the remote tier.
func (m *Manager) RemoteIteration() int64 { return m.remoteIteration }

// WipeMachine simulates a hardware failure: the machine's CPU store and
// live state vanish.
func (m *Manager) WipeMachine(rank int) {
	m.cpu[rank].Wipe()
	m.live[rank] = nil
}

// Recover restores every machine's live shard to the given version,
// following a recovery plan from the version tracker: local decode, a
// byte copy from a peer's CPU store, or the remote tier. Every restored
// shard is checksum-verified against the tracker's recorded fingerprint.
func (m *Manager) Recover(tracker *ckpt.Engine, plan []ckpt.Retrieval, version int64) error {
	for _, r := range plan {
		var obj storage.Object
		var ok bool
		switch r.Source {
		case ckpt.SourceLocal:
			obj, ok = m.cpu[r.Rank].Get(ckptKey(r.Rank, version))
		case ckpt.SourceRemoteCPU:
			obj, ok = m.cpu[r.Peer].Get(ckptKey(r.Rank, version))
		case ckpt.SourcePersistent:
			encoded, has := m.remote[r.Rank]
			if !has {
				return fmt.Errorf("statemgr: no remote shard for rank %d", r.Rank)
			}
			state, err := tensor.Decode(bytes.NewReader(encoded))
			if err != nil {
				return fmt.Errorf("statemgr: remote shard for rank %d: %w", r.Rank, err)
			}
			if state.Iteration != version {
				return fmt.Errorf("statemgr: remote shard for rank %d at iteration %d, want %d",
					r.Rank, state.Iteration, version)
			}
			m.live[r.Rank] = state
			continue
		default:
			return fmt.Errorf("statemgr: unknown retrieval source %v", r.Source)
		}
		if !ok || obj.Iteration != version {
			return fmt.Errorf("statemgr: shard for rank %d at version %d not found via %v",
				r.Rank, version, r.Source)
		}
		state := obj.Payload.Clone()
		// Verify content integrity against the tracked fingerprint.
		if sh, tracked := trackedShard(tracker, r, version); tracked && sh.Fingerprint != 0 &&
			state.Fingerprint() != sh.Fingerprint {
			return fmt.Errorf("statemgr: shard for rank %d failed fingerprint verification", r.Rank)
		}
		m.live[r.Rank] = state
		// A machine that fetched from a peer reseeds its own local copy.
		if r.Source == ckpt.SourceRemoteCPU {
			if _, err := m.Replicate(r.Rank, r.Rank, version); err != nil {
				return err
			}
		}
	}
	return nil
}

func trackedShard(tracker *ckpt.Engine, r ckpt.Retrieval, version int64) (ckpt.Shard, bool) {
	holder := r.Rank
	if r.Source == ckpt.SourceRemoteCPU {
		holder = r.Peer
	}
	for _, sh := range tracker.CompletedVersions(holder, r.Rank) {
		if sh.Iteration == version {
			return sh, true
		}
	}
	return ckpt.Shard{}, false
}

// CorruptStoredShard flips bytes in holder's stored copy of owner's shard
// at the given iteration — a fault-injection hook for integrity tests.
// It panics if no such replica exists.
func (m *Manager) CorruptStoredShard(holder, owner int, iteration int64) {
	obj, ok := m.cpu[holder].Get(ckptKey(owner, iteration))
	if !ok || obj.Iteration != iteration {
		panic(fmt.Sprintf("statemgr: machine %d holds no shard of rank %d at iteration %d", holder, owner, iteration))
	}
	corrupted := obj.Payload.Clone()
	corrupted.Tensors[0].Data[0] ^= 0xFF
	obj.Payload = corrupted
	if err := m.cpu[holder].Put(obj); err != nil {
		panic(err)
	}
}

// VerifyConsistent checks that every machine's live shard is at the given
// iteration and matches the canonical synthetic content for that
// (iteration, rank, seed) — the end-to-end byte-exactness criterion.
func (m *Manager) VerifyConsistent(iteration int64) error {
	for rank, state := range m.live {
		if state == nil {
			return fmt.Errorf("statemgr: machine %d has no live state", rank)
		}
		if state.Iteration != iteration {
			return fmt.Errorf("statemgr: machine %d at iteration %d, want %d", rank, state.Iteration, iteration)
		}
		want := tensor.NewSyntheticState(iteration, rank, m.shardSize, m.seed)
		if !state.Equal(want) {
			return fmt.Errorf("statemgr: machine %d shard content diverged at iteration %d", rank, iteration)
		}
	}
	return nil
}
