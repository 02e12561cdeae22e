package kvstore

import (
	"fmt"

	"gemini/internal/simclock"
)

// Hold renews a batch of leases on a fixed grid without touching them.
// GEMINI's root learns of a failure only from a lease expiring (§6.2),
// and a renewal that lands before the deadline changes nothing anyone
// can observe. So a heartbeat cohort whose members are alive and
// reachable hands its leases to a Hold, and each tick of its heartbeat
// is one O(1) Renew instead of a KeepAlive per lease.
//
// A held lease is out of the expiry set: its TTL exceeds the grid's
// period, so it can never fall due before its next renewal, and neither
// expire nor NextExpiry reads it. Its deadline is settled only when
// something can observe it:
//   - Settle (its member died or was cut off, or the grid stops) puts
//     the leases back into the expiry set, each with the deadline its
//     last renewal gave it;
//   - SetAvailable(false) settles every hold, since an outage freezes
//     and then shifts the deadlines;
//   - SetLeaseJitter fixes each held deadline before the jitter stream
//     changes;
//   - a KeepAlive off the grid renews one held lease in place.
//
// Settling is exact. The lease's deadline is its last grid instant plus
// its TTL and that renewal's jitter draw, the same float operations
// KeepAlive makes. The draw is found in O(1): a grid renewal draws
// one value per lease, in the order the leases were held, so Renew only
// notes where its draws start and moves the stream's draw count on.
type Hold struct {
	s      *Store
	leases []heldLease // in renewal order
	slot   int         // index in Store.holds plus one; 0 when not held
	ticks  int64       // grid renewals since the leases were held
	last   simclock.Time
	base   uint64 // the stream's draw count just before the last renewal
}

// heldLease is one lease of a hold, with the deadline of its last
// renewal off the grid (or before the hold) and the hold's grid
// renewals by then. A held lease's index is -1 minus its place here.
type heldLease struct {
	l      *lease
	anchor simclock.Time
	tick   int64
}

// Hold hands the leases ids to h, in the order its grid renews them,
// first settling whatever h held. It reports false, holding nothing,
// when the store is down or a lease is not live, is held elsewhere or
// is due now: such leases must be renewed with KeepAlive. The
// caller must Renew h at intervals shorter than every lease's TTL, the
// first no later than one interval from now.
func (s *Store) Hold(h *Hold, ids []LeaseID) bool {
	h.Settle()
	if s.down {
		return false
	}
	now := s.now()
	for _, id := range ids {
		l := s.live(id)
		if l == nil || l.index < 0 || s.expiry[l.index].expires <= now {
			return false
		}
	}
	h.s, h.ticks = s, 0
	if cap(h.leases) < len(ids) {
		h.leases = make([]heldLease, 0, len(ids))
	}
	for _, id := range ids {
		l := s.live(id)
		if l.index < 0 {
			panic(fmt.Sprintf("kvstore: lease %d held twice", id))
		}
		h.leases = append(h.leases, heldLease{l: l, anchor: s.expiry[l.index].expires})
		s.removeSlot(l)
		l.index = -len(h.leases)
	}
	s.holds = append(s.holds, h)
	h.slot = len(s.holds)
	return true
}

// holdOf finds the hold of a held lease and its record there.
func (s *Store) holdOf(l *lease) (*Hold, *heldLease) {
	pos := -1 - l.index
	for _, h := range s.holds {
		if pos < len(h.leases) && h.leases[pos].l == l {
			return h, &h.leases[pos]
		}
	}
	panic(fmt.Sprintf("kvstore: held lease %d is in no hold", l.id))
}

// removeSlot takes l out of the expiry set.
func (s *Store) removeSlot(l *lease) {
	i, last := l.index, len(s.expiry)-1
	if s.expiry[i].expires == s.earliest {
		s.stale = true
	}
	s.expiry[i] = s.expiry[last]
	s.expiry[i].l.index = i
	s.expiry[last] = leaseSlot{}
	s.expiry = s.expiry[:last]
}

// Renew is one grid renewal of every held lease at t, the store's
// current time. It is exactly a KeepAlive of each held lease, in the
// order they were held, when those calls would only renew: it reports
// false, changing nothing, when h is not held, or when the store is
// down or a lease outside the hold is due at t, so that the calls would
// fail or expire the lease first. A hold of no leases renews nothing
// and calls nothing, so it is always silent.
func (h *Hold) Renew(t simclock.Time) bool {
	if h.slot == 0 {
		return false
	}
	if len(h.leases) == 0 {
		return true
	}
	s := h.s
	if s.down || s.minExpiry() <= t {
		return false
	}
	h.ticks++
	h.last, h.base = t, s.draws
	if s.jitterMax > 0 {
		s.draws += uint64(len(h.leases))
	}
	return true
}

// deadline is the expiry the last renewal of the i-th held lease gave
// it.
func (h *Hold) deadline(i int) simclock.Time {
	hl := &h.leases[i]
	if h.ticks == hl.tick {
		return hl.anchor
	}
	return h.last.Add(hl.l.ttl + h.s.jitterAt(h.base+uint64(i)+1))
}

// reanchor fixes each held lease's deadline as its anchor, so no
// settled deadline reads the jitter stream as it is now.
func (h *Hold) reanchor() {
	for i := range h.leases {
		h.leases[i].anchor, h.leases[i].tick = h.deadline(i), h.ticks
	}
}

// Settle ends the hold: each lease rejoins the expiry set with the
// deadline its last renewal gave it. Settling a hold that holds nothing
// does nothing.
func (h *Hold) Settle() {
	if h.slot == 0 {
		return
	}
	s := h.s
	for i, hl := range h.leases {
		t := h.deadline(i)
		hl.l.index = len(s.expiry)
		s.expiry = append(s.expiry, leaseSlot{expires: simclock.Forever, l: hl.l})
		s.setExpiry(hl.l, t)
	}
	clear(h.leases)
	h.leases = h.leases[:0]
	i, last := h.slot-1, len(s.holds)-1
	s.holds[i] = s.holds[last]
	s.holds[i].slot = i + 1
	s.holds[last] = nil
	s.holds = s.holds[:last]
	h.slot = 0
}
