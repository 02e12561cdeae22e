// Package kvstore is the distributed key-value store GEMINI's failure
// recovery module coordinates through (§3.2) — an etcd stand-in with the
// semantics the agents need: revisioned keys, compare-and-swap, leases
// with TTL expiry (heartbeats), prefix watches, and lease-based leader
// election for promoting a new root machine.
//
// The store runs in process, driven by the simulation's virtual clock.
// It is safe for concurrent use: one mutex guards the state, and watch
// events are delivered in revision order outside it.
package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gemini/internal/simclock"
)

// ErrUnavailable is returned by store operations while the store is inside
// an injected unavailability window (chaos testing): the etcd cluster has
// lost quorum and serves nothing. Clients are expected to retry.
var ErrUnavailable = errors.New("kvstore: store unavailable")

// LeaseID identifies a granted lease. Zero means "no lease".
type LeaseID int64

// Entry is a stored key-value pair.
type Entry struct {
	Key   string
	Value string
	// Rev is the revision at which the key was last written.
	Rev int64
	// Lease is the lease the key is attached to, if any.
	Lease LeaseID
}

// EventType distinguishes watch events.
type EventType int

const (
	// EventPut fires on creation or update.
	EventPut EventType = iota
	// EventDelete fires on explicit deletion or lease expiry.
	EventDelete
)

func (t EventType) String() string {
	switch t {
	case EventPut:
		return "put"
	case EventDelete:
		return "delete"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is delivered to watchers in revision order.
type Event struct {
	Type  EventType
	Entry Entry
}

type watcher struct {
	prefix string
	fn     func(Event)
}

type lease struct {
	id      LeaseID
	ttl     simclock.Duration
	expires simclock.Time
	keys    map[string]bool
	index   int // slot in Store.expiry
}

// leaseHeap is the expiry index: a min-heap of every live lease by
// deadline, so the next deadline is the root and a sweep with nothing
// due costs one comparison. Every lease's index is its slot. Ties are
// left in any order: a sweep re-sorts what it pops by id.
type leaseHeap []*lease

func (h *leaseHeap) push(l *lease) {
	l.index = len(*h)
	*h = append(*h, l)
	h.up(l.index)
}

// pop removes and returns the lease with the earliest deadline.
func (h *leaseHeap) pop() *lease {
	old := *h
	n := len(old) - 1
	l := old[0]
	old[0] = old[n]
	old[0].index = 0
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return l
}

// fix restores heap order after the lease at slot i changed its expiry.
func (h leaseHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h leaseHeap) up(i int) {
	l := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if l.expires >= h[p].expires {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = l
	l.index = i
}

// down sifts the lease at slot i toward the leaves and reports whether
// it moved.
func (h leaseHeap) down(i int) bool {
	l := h[i]
	start, n := i, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].expires < h[c].expires {
			c = r
		}
		if h[c].expires >= l.expires {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = l
	l.index = i
	return i > start
}

// Store is a revisioned, lease-aware key-value store.
type Store struct {
	mu        sync.Mutex
	now       func() simclock.Time
	rev       int64
	data      map[string]Entry
	leases    map[LeaseID]*lease
	expiry    leaseHeap // the same leases, by deadline
	nextLease LeaseID
	watchers  []*watcher

	// Watch events are queued under the mutex and delivered after it is
	// released, so callbacks may freely call back into the store.
	pending    []Event
	delivering bool
	deliverMu  sync.Mutex

	// Chaos controls. While down, every operation fails (reads return
	// nothing, writes return ErrUnavailable) and lease TTLs are frozen:
	// an etcd cluster that lost quorum cannot expire leases either.
	down      bool
	downSince simclock.Time
	// jitterMax > 0 adds a deterministic pseudo-random extension of up to
	// jitterMax to every lease expiry computed by Grant and KeepAlive.
	jitterMax   simclock.Duration
	jitterState uint64
}

// New creates a store whose lease clock is supplied by now. A nil now
// disables lease expiry (leases never time out).
func New(now func() simclock.Time) *Store {
	if now == nil {
		now = func() simclock.Time { return 0 }
	}
	return &Store{
		now:    now,
		data:   make(map[string]Entry),
		leases: make(map[LeaseID]*lease),
	}
}

// SetAvailable opens (up=false) or closes (up=true) an unavailability
// window. While down the store serves nothing and lease clocks freeze;
// on restore every outstanding lease expiry is shifted by the outage
// duration, so a lease that had 3s of TTL left when the outage began
// still has 3s left when it ends.
func (s *Store) SetAvailable(up bool) {
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if up == !s.down {
		return
	}
	if !up {
		s.down = true
		s.downSince = s.now()
		return
	}
	pause := s.now().Sub(s.downSince)
	s.down = false
	// Rounded addition is monotone, so shifting every deadline by the
	// same pause keeps the expiry index in heap order.
	for _, l := range s.expiry {
		l.expires = l.expires.Add(pause)
	}
	s.sweepLocked()
}

// Available reports whether the store is currently serving requests.
func (s *Store) Available() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down
}

// SetLeaseJitter makes Grant and KeepAlive extend each computed lease
// expiry by a deterministic pseudo-random duration in [0, max). Zero max
// disables jitter. The seed fixes the pseudo-random sequence so chaos
// runs are reproducible.
func (s *Store) SetLeaseJitter(max simclock.Duration, seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jitterMax = max
	s.jitterState = uint64(seed)
}

// jitterLocked draws the next jitter amount (SplitMix64). Callers hold s.mu.
func (s *Store) jitterLocked() simclock.Duration {
	if s.jitterMax <= 0 {
		return 0
	}
	s.jitterState += 0x9E3779B97F4A7C15
	z := s.jitterState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	frac := float64(z%(1<<20)) / float64(1<<20)
	return simclock.Duration(float64(s.jitterMax) * frac)
}

// sweepLocked expires leases due at the current instant, deleting their
// keys and emitting delete events. Callers hold s.mu.
func (s *Store) sweepLocked() {
	if s.down || len(s.expiry) == 0 {
		return
	}
	t := s.now()
	if s.expiry[0].expires > t {
		return
	}
	var expired []*lease
	for len(s.expiry) > 0 && s.expiry[0].expires <= t {
		expired = append(expired, s.expiry.pop())
	}
	// Deterministic order for event delivery: by id, whatever the deadlines.
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	for _, l := range expired {
		delete(s.leases, l.id)
		keys := make([]string, 0, len(l.keys))
		for k := range l.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if e, ok := s.data[k]; ok && e.Lease == l.id {
				delete(s.data, k)
				s.rev++
				s.notifyLocked(Event{Type: EventDelete, Entry: Entry{Key: k, Rev: s.rev, Lease: l.id}})
			}
		}
	}
}

func (s *Store) notifyLocked(ev Event) {
	s.pending = append(s.pending, ev)
}

// flush delivers queued events in revision order. It must be called
// without s.mu held. A single flusher drains everything, including events
// produced by the callbacks themselves, preserving order; deliverMu
// serializes flushers from different goroutines.
func (s *Store) flush() {
	s.deliverMu.Lock()
	if s.delivering {
		s.deliverMu.Unlock()
		return
	}
	s.delivering = true
	s.deliverMu.Unlock()
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.mu.Unlock()
			break
		}
		ev := s.pending[0]
		s.pending = s.pending[1:]
		ws := append([]*watcher(nil), s.watchers...)
		s.mu.Unlock()
		for _, w := range ws {
			if strings.HasPrefix(ev.Entry.Key, w.prefix) {
				w.fn(ev)
			}
		}
	}
	s.deliverMu.Lock()
	s.delivering = false
	s.deliverMu.Unlock()
	// Close the race where another goroutine queued an event and bounced
	// off the delivering flag just as this flusher drained: re-check.
	s.mu.Lock()
	again := len(s.pending) > 0
	s.mu.Unlock()
	if again {
		s.flush()
	}
}

// mutators and sweeping readers call flush via defer, after the mutex
// defer releases — defers run LIFO, so the lock is dropped first.

// Rev returns the store's current revision.
func (s *Store) Rev() int64 {
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	return s.rev
}

// Put writes key=value, optionally attached to a lease, and returns the
// new revision. Writing to an expired or unknown lease fails.
func (s *Store) Put(key, value string, leaseID LeaseID) (int64, error) {
	if key == "" {
		return 0, fmt.Errorf("kvstore: empty key")
	}
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return 0, ErrUnavailable
	}
	s.sweepLocked()
	return s.putLocked(key, value, leaseID)
}

func (s *Store) putLocked(key, value string, leaseID LeaseID) (int64, error) {
	var l *lease
	if leaseID != 0 {
		l = s.leases[leaseID]
		if l == nil {
			return 0, fmt.Errorf("kvstore: lease %d not found", leaseID)
		}
	}
	if old, ok := s.data[key]; ok && old.Lease != 0 && old.Lease != leaseID {
		if prev := s.leases[old.Lease]; prev != nil {
			delete(prev.keys, key)
		}
	}
	s.rev++
	e := Entry{Key: key, Value: value, Rev: s.rev, Lease: leaseID}
	s.data[key] = e
	if l != nil {
		l.keys[key] = true
	}
	s.notifyLocked(Event{Type: EventPut, Entry: e})
	return s.rev, nil
}

// Get returns the entry under key.
func (s *Store) Get(key string) (Entry, bool) {
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return Entry{}, false
	}
	s.sweepLocked()
	e, ok := s.data[key]
	return e, ok
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key string) bool {
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return false
	}
	s.sweepLocked()
	e, ok := s.data[key]
	if !ok {
		return false
	}
	if e.Lease != 0 {
		if l := s.leases[e.Lease]; l != nil {
			delete(l.keys, key)
		}
	}
	delete(s.data, key)
	s.rev++
	s.notifyLocked(Event{Type: EventDelete, Entry: Entry{Key: key, Rev: s.rev, Lease: e.Lease}})
	return true
}

// CompareAndSwap writes key=value only if the key's current revision is
// expectRev (0 means the key must not exist). It reports success and the
// new revision.
func (s *Store) CompareAndSwap(key string, expectRev int64, value string, leaseID LeaseID) (int64, bool, error) {
	if key == "" {
		return 0, false, fmt.Errorf("kvstore: empty key")
	}
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return 0, false, ErrUnavailable
	}
	s.sweepLocked()
	cur, exists := s.data[key]
	if expectRev == 0 {
		if exists {
			return 0, false, nil
		}
	} else if !exists || cur.Rev != expectRev {
		return 0, false, nil
	}
	rev, err := s.putLocked(key, value, leaseID)
	if err != nil {
		return 0, false, err
	}
	return rev, true, nil
}

// Range returns all entries whose key has the given prefix, sorted by key.
func (s *Store) Range(prefix string) []Entry {
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil
	}
	s.sweepLocked()
	var out []Entry
	for k, e := range s.data {
		if strings.HasPrefix(k, prefix) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Grant creates a lease with the given TTL.
func (s *Store) Grant(ttl simclock.Duration) (LeaseID, error) {
	if ttl <= 0 {
		return 0, fmt.Errorf("kvstore: lease TTL must be positive, got %v", ttl)
	}
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return 0, ErrUnavailable
	}
	s.sweepLocked()
	s.nextLease++
	id := s.nextLease
	l := &lease{id: id, ttl: ttl, expires: s.now().Add(ttl + s.jitterLocked()), keys: make(map[string]bool)}
	s.leases[id] = l
	s.expiry.push(l)
	return id, nil
}

// KeepAlive renews a lease's TTL — the heartbeat primitive. Renewing an
// expired or unknown lease fails, exactly like etcd: the client must
// re-grant and re-put its keys.
func (s *Store) KeepAlive(id LeaseID) error {
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return ErrUnavailable
	}
	s.sweepLocked()
	l := s.leases[id]
	if l == nil {
		return fmt.Errorf("kvstore: lease %d not found (expired?)", id)
	}
	l.expires = s.now().Add(l.ttl + s.jitterLocked())
	s.expiry.fix(l.index)
	return nil
}

// LeaseRemaining returns the time until a lease expires, and whether the
// lease exists.
func (s *Store) LeaseRemaining(id LeaseID) (simclock.Duration, bool) {
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	l := s.leases[id]
	if l == nil {
		return 0, false
	}
	return l.expires.Sub(s.now()), true
}

// NextExpiry returns the earliest lease expiry time, or simclock.Forever
// when no leases exist. Simulation drivers schedule a sweep then.
func (s *Store) NextExpiry() simclock.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down || len(s.expiry) == 0 {
		return simclock.Forever
	}
	return s.expiry[0].expires
}

// Sweep expires due leases eagerly (delivering watch events); drivers
// call it from a scheduled event at NextExpiry.
func (s *Store) Sweep() {
	defer s.flush()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
}

// Watch registers fn for events on keys with the given prefix. Events
// are delivered one at a time in revision order, after the mutating
// operation releases the store's mutex, so the callback may call back
// into the store; events its own writes produce follow once it returns.
func (s *Store) Watch(prefix string, fn func(Event)) {
	if fn == nil {
		panic("kvstore: nil watch callback")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchers = append(s.watchers, &watcher{prefix: prefix, fn: fn})
}
