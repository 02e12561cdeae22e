// Package derive is the content-keyed cache for the immutable derivation
// pipeline behind core.NewJob. Deriving a job — model and instance lookup,
// training config, Algorithm 1 placement, iteration timeline, §5.4 profile,
// Algorithm 2 plan, cost model, and the three baseline specs — is a pure
// function of six spec fields, yet a campaign re-derives it for every run.
// This package computes that derivation once per distinct Key and shares
// the read-only Artifacts across all jobs (and goroutines) that name it,
// so a warm-key core.NewJob does zero derivation work.
//
// The immutability contract: everything inside Artifacts is read-only
// after Build. Placement, Timeline, Profile, and Plan are never written
// past construction anywhere in the repo (the executor and runsim keep
// their mutable state in per-run arenas), and the guard test in
// internal/core fails if a run ever violates that.
package derive

import (
	"fmt"
	"sync"

	"gemini/internal/baselines"
	"gemini/internal/cluster"
	"gemini/internal/metrics"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/profile"
	"gemini/internal/schedule"
	"gemini/internal/tensor"
	"gemini/internal/training"
)

// Key is the canonical cache key: exactly the JobSpec fields the
// derivation pipeline reads. Faults, strategy, and observability sinks
// (tracer, metrics) deliberately do not appear — they configure runs,
// not derivations, so jobs differing only in those collapse onto one
// cache entry.
type Key struct {
	Model           string
	Instance        string
	Machines        int
	Replicas        int
	RemoteBandwidth float64
	Parallelism     training.Parallelism
}

// Artifacts is everything the pipeline derives from a Key. All fields
// are shared and read-only; see the package comment for the contract.
type Artifacts struct {
	Config    training.Config
	Placement *placement.Placement
	Timeline  *training.Timeline
	Profile   *profile.Profile
	Plan      *schedule.Plan

	Gemini, Strawman, HighFreq baselines.Spec
}

// Build runs the full derivation pipeline for a key, uncached. Replicas
// and RemoteBandwidth must already carry their defaults (core's
// withDefaults applies them before keying).
func Build(k Key) (*Artifacts, error) {
	m, err := model.ByName(k.Model)
	if err != nil {
		return nil, err
	}
	it, err := cluster.InstanceByName(k.Instance)
	if err != nil {
		return nil, err
	}
	cfg, err := training.NewConfig(m, it, k.Machines)
	if err != nil {
		return nil, err
	}
	if !cfg.FitsInGPUMemory() {
		return nil, fmt.Errorf("derive: %s does not fit in GPU memory on %d× %s (needs %.1f GB/GPU of %.1f GB)",
			k.Model, k.Machines, k.Instance,
			cfg.GPUMemoryDemandBytes()/1e9, float64(it.GPUMemBytes)/1e9)
	}
	plc, err := placement.Mixed(k.Machines, k.Replicas)
	if err != nil {
		return nil, err
	}
	// The checkpoint double buffers must fit in host memory.
	needed := 2 * float64(k.Replicas) * cfg.ShardBytesPerMachine()
	if needed > float64(it.CPUMemBytes) {
		return nil, fmt.Errorf("derive: m=%d needs %.0f GB of CPU memory per machine, %s has %.0f GB",
			k.Replicas, needed/1e9, k.Instance, float64(it.CPUMemBytes)/1e9)
	}
	tl, err := training.BuildTimelineFor(cfg, k.Parallelism)
	if err != nil {
		return nil, err
	}
	prof, err := tl.Profile(schedule.DefaultProfileWindow)
	if err != nil {
		return nil, err
	}
	plan, err := schedule.Partition(schedule.Params{
		Spans:                prof.Spans,
		CheckpointBytes:      cfg.ShardBytesPerMachine(),
		Replicas:             k.Replicas,
		BufferBytes:          schedule.DefaultBufferBytes,
		BufferParts:          schedule.DefaultBufferParts,
		BandwidthBytesPerSec: it.NetworkBytesPerSec,
		Alpha:                cfg.Calib.CollectiveAlpha,
		Gamma:                schedule.DefaultGamma,
	})
	if err != nil {
		return nil, err
	}
	a := &Artifacts{Config: cfg, Placement: plc, Timeline: tl, Profile: prof, Plan: plan}
	costs := tensor.DefaultCostModel()
	// The specs take the parallelism-aware timeline built above: the
	// checkpoint cadence and completion lag follow the job's actual
	// iteration, not an assumed ZeRO-3 one.
	if a.Gemini, err = baselines.Gemini(cfg, tl, k.Replicas, k.RemoteBandwidth, costs); err != nil {
		return nil, err
	}
	if a.Strawman, err = baselines.Strawman(cfg, k.RemoteBandwidth, costs); err != nil {
		return nil, err
	}
	if a.HighFreq, err = baselines.HighFreq(cfg, tl, k.RemoteBandwidth, costs); err != nil {
		return nil, err
	}
	return a, nil
}

// entry is one cache slot. ready closes when the build finishes; hits
// arriving mid-build wait on it instead of re-deriving (singleflight).
// The intrusive prev/next links form the LRU list.
type entry struct {
	key        Key
	ready      chan struct{}
	art        *Artifacts
	err        error
	prev, next *entry
}

// Cache is a concurrency-safe, content-keyed LRU over Build. Concurrent
// misses on the same key build once; builds for different keys proceed
// in parallel (the derivation runs outside the lock). Failed builds are
// not cached, so a transiently invalid key does not poison the slot.
type Cache struct {
	mu         sync.Mutex
	cap        int
	entries    map[Key]*entry
	head, tail *entry // head = most recently used

	hits, misses, evictions uint64
}

// DefaultCapacity bounds the shared cache. An Artifacts retains what its
// timeline holds: 30–80 KB for the 16- to 1,000-machine ZeRO-3 and
// data-parallel jobs, but 8.6 MB for a 10,000-machine pipeline-parallel
// job, whose timeline has 120,001 ops (heap growth after GC per Build).
// A full cache of the largest jobs would hold about 2 GB; campaigns name
// one or a few keys.
const DefaultCapacity = 256

// NewCache creates a cache holding at most capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{cap: capacity, entries: make(map[Key]*entry, capacity)}
}

var shared = NewCache(DefaultCapacity)

// Shared returns the process-wide cache core.NewJob resolves against.
func Shared() *Cache { return shared }

// Get returns the artifacts for k, building them on first use. The warm
// path — key present and built — takes the lock briefly and allocates
// nothing. The returned Artifacts is shared: callers must treat it as
// read-only.
func (c *Cache) Get(k Key) (*Artifacts, error) {
	if k != k {
		// A NaN field: the key could never hit, and a map slot under it
		// could never be deleted. Build rejects it.
		return Build(k)
	}
	c.mu.Lock()
	if e, ok := c.entries[k]; ok {
		c.hits++
		c.moveToFront(e)
		c.mu.Unlock()
		<-e.ready
		return e.art, e.err
	}
	c.misses++
	e := &entry{key: k, ready: make(chan struct{})}
	c.entries[k] = e
	c.pushFront(e)
	c.evictOverCap()
	c.mu.Unlock()

	e.art, e.err = Build(k)
	if e.err != nil {
		c.mu.Lock()
		if cur, ok := c.entries[k]; ok && cur == e {
			c.unlink(e)
			delete(c.entries, k)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.art, e.err
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
}

// HitRate returns hits / (hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.entries)}
}

// Clear drops every entry and zeroes the counters. In-flight builds
// complete for their waiters but are not re-admitted.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[Key]*entry, c.cap)
	c.head, c.tail = nil, nil
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// Export writes a snapshot of the counters into a metrics registry as
// derive.cache.* instruments. The registry is a per-run, single-threaded
// sink, so Export copies values instead of wiring live instruments into
// the concurrent cache; calling it again refreshes the counters
// monotonically. A nil registry no-ops.
func (c *Cache) Export(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := c.Stats()
	raise := func(name string, v float64) {
		ctr := reg.Counter(name)
		if d := v - ctr.Value(); d > 0 {
			ctr.Add(d)
		}
	}
	raise("derive.cache.hits", float64(s.Hits))
	raise("derive.cache.misses", float64(s.Misses))
	raise("derive.cache.evictions", float64(s.Evictions))
	reg.Gauge("derive.cache.entries").Set(float64(s.Entries))
}

// --- intrusive LRU list (callers hold c.mu) ---

func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// evictOverCap drops least-recently-used entries until the cache fits.
// Evicting a still-building entry is safe: its waiters hold the pointer
// and see the result; only the map slot is reclaimed.
func (c *Cache) evictOverCap() {
	for len(c.entries) > c.cap && c.tail != nil {
		e := c.tail
		c.unlink(e)
		delete(c.entries, e.key)
		c.evictions++
	}
}
