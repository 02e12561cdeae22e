// Package kvstore is the distributed key-value store GEMINI's failure
// recovery module coordinates through (§3.2) — an etcd stand-in with the
// semantics the agents need: revisioned keys, compare-and-swap, leases
// with TTL expiry (heartbeats), prefix watches, and lease-based leader
// election for promoting a new root machine.
//
// The store runs in process, driven by the simulation's virtual clock.
// Like the simclock.Engine it runs on, a Store belongs to one goroutine
// and takes no locks. Watch events are delivered in revision order once
// the operation that produced them has finished, so a callback may call
// back into the store.
package kvstore

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

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
	id    LeaseID
	ttl   simclock.Duration
	keys  []string // attached keys, in no order
	index int      // slot in Store.expiry; while held, -1 minus its place in the hold
}

// leaseSlot is one entry of the expiry set. The slot holds the lease's
// deadline itself, so a scan for the earliest deadline reads one flat
// slice without loading the leases; it is the only copy of the
// deadline.
type leaseSlot struct {
	expires simclock.Time
	l       *lease
}

// Store is a revisioned, lease-aware key-value store.
type Store struct {
	now       func() simclock.Time
	rev       int64
	data      map[string]Entry
	leases    []*lease    // by id - 1; nil once expired
	expiry    []leaseSlot // the live leases, in no order
	nextLease LeaseID
	watchers  []*watcher
	holds     []*Hold // the holds in force, in no order

	// earliest is the smallest deadline in expiry (Forever when it is
	// empty) unless stale is set; a renewal that moves the slot holding
	// it later sets stale, and the next reader rescans. Every write of an
	// earlier deadline lowers it, so even a stale earliest is a lower
	// bound on every deadline in expiry.
	earliest simclock.Time
	stale    bool

	// Watch events are queued as operations produce them and delivered
	// once the operation is done, so callbacks may call back into the
	// store; delivering marks a drain in progress, so events a callback's
	// own writes produce wait until it returns.
	pending    []Event
	delivering bool

	// Chaos controls. While down, every operation fails (reads return
	// nothing, writes return ErrUnavailable) and lease TTLs are frozen:
	// an etcd cluster that lost quorum cannot expire leases either.
	down      bool
	downSince simclock.Time
	// jitterMax > 0 adds a deterministic pseudo-random extension of up to
	// jitterMax to every lease expiry computed by Grant and KeepAlive.
	// The n-th draw since SetLeaseJitter mixes jitterSeed + n·γ
	// (SplitMix64, whose state is a Weyl counter), so draws counts them
	// and any draw's value is computed in O(1).
	jitterMax  simclock.Duration
	jitterSeed uint64
	draws      uint64
}

// New creates a store whose lease clock is supplied by now. A nil now
// disables lease expiry (leases never time out).
func New(now func() simclock.Time) *Store {
	if now == nil {
		now = func() simclock.Time { return 0 }
	}
	return &Store{
		now:      now,
		data:     make(map[string]Entry),
		earliest: simclock.Forever,
	}
}

// SetAvailable opens (up=false) or closes (up=true) an unavailability
// window. While down the store serves nothing and lease clocks freeze;
// on restore every outstanding lease expiry is shifted by the outage
// duration, so a lease that had 3s of TTL left when the outage began
// still has 3s left when it ends.
func (s *Store) SetAvailable(up bool) {
	defer s.flush()
	if up == !s.down {
		return
	}
	if !up {
		// Nobody renews during the outage, so each held lease keeps the
		// deadline of its last renewal, and shifts with the rest.
		for len(s.holds) > 0 {
			s.holds[0].Settle()
		}
		s.down = true
		s.downSince = s.now()
		return
	}
	pause := s.now().Sub(s.downSince)
	s.down = false
	for i := range s.expiry {
		s.expiry[i].expires = s.expiry[i].expires.Add(pause)
	}
	s.stale = true
	s.expire()
}

// Available reports whether the store is currently serving requests.
func (s *Store) Available() bool {
	return !s.down
}

// SetLeaseJitter makes Grant and KeepAlive extend each computed lease
// expiry by a deterministic pseudo-random duration in [0, max). Zero max
// disables jitter. The seed fixes the pseudo-random sequence so chaos
// runs are reproducible. A negative or non-finite max panics: a NaN
// jitter would give every later lease a deadline no sweep ever reaches.
func (s *Store) SetLeaseJitter(max simclock.Duration, seed int64) {
	if !(max >= 0) || math.IsInf(float64(max), 1) {
		panic(fmt.Sprintf("kvstore: lease jitter must be finite and non-negative, got %v", max))
	}
	// Held leases' grid renewals so far drew from the old stream: fix
	// their deadlines before it goes.
	for _, h := range s.holds {
		h.reanchor()
	}
	s.jitterMax = max
	s.jitterSeed, s.draws = uint64(seed), 0
}

// nextJitter draws the next jitter amount.
func (s *Store) nextJitter() simclock.Duration {
	if s.jitterMax <= 0 {
		return 0
	}
	s.draws++
	return s.jitterAt(s.draws)
}

// jitterAt is the n-th jitter draw of the current stream (SplitMix64).
func (s *Store) jitterAt(n uint64) simclock.Duration {
	if s.jitterMax <= 0 {
		return 0
	}
	z := s.jitterSeed + n*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	frac := float64(z%(1<<20)) / float64(1<<20)
	return simclock.Duration(float64(s.jitterMax) * frac)
}

// minExpiry returns the earliest deadline in the expiry set, rescanning
// the set only when a renewal moved the slot that held the cached one.
func (s *Store) minExpiry() simclock.Time {
	if s.stale {
		earliest := simclock.Forever
		for _, sl := range s.expiry {
			if sl.expires < earliest {
				earliest = sl.expires
			}
		}
		s.earliest, s.stale = earliest, false
	}
	return s.earliest
}

// setExpiry writes a lease's new deadline into its slot and keeps the
// cached earliest deadline exact, or marks it stale when the slot that
// held it moved later.
func (s *Store) setExpiry(l *lease, t simclock.Time) {
	sl := &s.expiry[l.index]
	if t < s.earliest {
		s.earliest = t
	} else if sl.expires == s.earliest && t != s.earliest {
		s.stale = true
	}
	sl.expires = t
}

// expire expires leases due at the current instant, deleting their
// keys and queueing delete events.
func (s *Store) expire() {
	// A lower bound past now means nothing is due, so a run of renewals
	// at one instant does not rescan after each one.
	if s.down || s.earliest > s.now() {
		return
	}
	// One pass moves the due leases out and the rest down, and finds the
	// earliest deadline among those that stay.
	t := s.now()
	var expired []*lease
	kept, earliest := 0, simclock.Forever
	for _, sl := range s.expiry {
		if sl.expires <= t {
			expired = append(expired, sl.l)
			continue
		}
		sl.l.index = kept
		s.expiry[kept] = sl
		kept++
		if sl.expires < earliest {
			earliest = sl.expires
		}
	}
	clear(s.expiry[kept:])
	s.expiry, s.earliest = s.expiry[:kept], earliest
	// Deterministic order for event delivery: by id, whatever the
	// deadlines. Slots are not in id order: a settled hold appends its
	// leases at the end.
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	for _, l := range expired {
		s.leases[l.id-1] = nil
		sort.Strings(l.keys)
		for _, k := range l.keys {
			if e, ok := s.data[k]; ok && e.Lease == l.id {
				delete(s.data, k)
				s.rev++
				s.notify(Event{Type: EventDelete, Entry: Entry{Key: k, Rev: s.rev, Lease: l.id}})
			}
		}
	}
}

func (s *Store) notify(ev Event) {
	s.pending = append(s.pending, ev)
}

// flush delivers queued events in revision order, including the events
// the callbacks' own writes queue. Every operation that can queue an
// event flushes on return; one made from inside a callback finds a drain
// in progress and leaves its events to it, so they follow once the
// callback returns.
func (s *Store) flush() {
	if s.delivering || len(s.pending) == 0 {
		return
	}
	s.delivering = true
	for i := 0; i < len(s.pending); i++ {
		ev := s.pending[i]
		for _, w := range s.watchers {
			if strings.HasPrefix(ev.Entry.Key, w.prefix) {
				w.fn(ev)
			}
		}
	}
	clear(s.pending)
	s.pending = s.pending[:0]
	s.delivering = false
}

// Rev returns the store's current revision.
func (s *Store) Rev() int64 {
	defer s.flush()
	s.expire()
	return s.rev
}

// Put writes key=value, optionally attached to a lease, and returns the
// new revision. Writing to an expired or unknown lease fails.
func (s *Store) Put(key, value string, leaseID LeaseID) (int64, error) {
	if key == "" {
		return 0, fmt.Errorf("kvstore: empty key")
	}
	defer s.flush()
	if s.down {
		return 0, ErrUnavailable
	}
	s.expire()
	return s.put(key, value, leaseID)
}

func (s *Store) put(key, value string, leaseID LeaseID) (int64, error) {
	var l *lease
	if leaseID != 0 {
		l = s.live(leaseID)
		if l == nil {
			return 0, fmt.Errorf("kvstore: lease %d not found", leaseID)
		}
	}
	if old, ok := s.data[key]; ok && old.Lease != 0 && old.Lease != leaseID {
		if prev := s.live(old.Lease); prev != nil {
			prev.detach(key)
		}
	}
	s.rev++
	e := Entry{Key: key, Value: value, Rev: s.rev, Lease: leaseID}
	s.data[key] = e
	if l != nil && !slices.Contains(l.keys, key) {
		l.keys = append(l.keys, key)
	}
	s.notify(Event{Type: EventPut, Entry: e})
	return s.rev, nil
}

// Get returns the entry under key.
func (s *Store) Get(key string) (Entry, bool) {
	defer s.flush()
	if s.down {
		return Entry{}, false
	}
	s.expire()
	e, ok := s.data[key]
	return e, ok
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key string) bool {
	defer s.flush()
	if s.down {
		return false
	}
	s.expire()
	e, ok := s.data[key]
	if !ok {
		return false
	}
	if e.Lease != 0 {
		if l := s.live(e.Lease); l != nil {
			l.detach(key)
		}
	}
	delete(s.data, key)
	s.rev++
	s.notify(Event{Type: EventDelete, Entry: Entry{Key: key, Rev: s.rev, Lease: e.Lease}})
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
	if s.down {
		return 0, false, ErrUnavailable
	}
	s.expire()
	cur, exists := s.data[key]
	if expectRev == 0 {
		if exists {
			return 0, false, nil
		}
	} else if !exists || cur.Rev != expectRev {
		return 0, false, nil
	}
	rev, err := s.put(key, value, leaseID)
	if err != nil {
		return 0, false, err
	}
	return rev, true, nil
}

// Grant creates a lease with the given TTL.
func (s *Store) Grant(ttl simclock.Duration) (LeaseID, error) {
	if ttl <= 0 {
		return 0, fmt.Errorf("kvstore: lease TTL must be positive, got %v", ttl)
	}
	defer s.flush()
	if s.down {
		return 0, ErrUnavailable
	}
	s.expire()
	s.nextLease++
	id := s.nextLease
	l := &lease{id: id, ttl: ttl}
	s.leases = append(s.leases, l)
	l.index = len(s.expiry)
	s.expiry = append(s.expiry, leaseSlot{expires: simclock.Forever, l: l})
	s.setExpiry(l, s.now().Add(ttl+s.nextJitter()))
	return id, nil
}

// detach removes key from the lease's keys, if it is there.
func (l *lease) detach(key string) {
	if i := slices.Index(l.keys, key); i >= 0 {
		last := len(l.keys) - 1
		l.keys[i] = l.keys[last]
		l.keys = l.keys[:last]
	}
}

// live returns the unexpired lease with the given id, or nil.
func (s *Store) live(id LeaseID) *lease {
	if id <= 0 || id > LeaseID(len(s.leases)) {
		return nil
	}
	return s.leases[id-1]
}

// KeepAlive renews a lease's TTL — the heartbeat primitive. Renewing an
// expired or unknown lease fails, exactly like etcd: the client must
// re-grant and re-put its keys.
func (s *Store) KeepAlive(id LeaseID) error {
	defer s.flush()
	if s.down {
		return ErrUnavailable
	}
	s.expire()
	l := s.live(id)
	if l == nil {
		return fmt.Errorf("kvstore: lease %d not found (expired?)", id)
	}
	t := s.now().Add(l.ttl + s.nextJitter())
	if l.index < 0 {
		// A renewal off the hold's grid: the lease stays held, and this
		// deadline stands until the next grid renewal.
		h, hl := s.holdOf(l)
		hl.anchor, hl.tick = t, h.ticks
		return nil
	}
	s.setExpiry(l, t)
	return nil
}

// NextExpiry returns the earliest expiry time of a lease that is not
// held, or simclock.Forever when there is none. Simulation drivers
// schedule a sweep then.
func (s *Store) NextExpiry() simclock.Time {
	if s.down {
		return simclock.Forever
	}
	return s.minExpiry()
}

// Sweep expires due leases eagerly (delivering watch events); drivers
// call it from a scheduled event at NextExpiry.
func (s *Store) Sweep() {
	defer s.flush()
	s.expire()
}

// Watch registers fn for events on keys with the given prefix. Events
// are delivered one at a time in revision order, after the mutating
// operation finishes, so the callback may call back into the store;
// events its own writes produce follow once it returns.
func (s *Store) Watch(prefix string, fn func(Event)) {
	if fn == nil {
		panic("kvstore: nil watch callback")
	}
	s.watchers = append(s.watchers, &watcher{prefix: prefix, fn: fn})
}
