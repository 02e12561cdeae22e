package kvstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gemini/internal/simclock"
)

// refStore is the lease model the expiry index must reproduce: the same
// semantics as Store, but every sweep and NextExpiry scans all leases.
type refStore struct {
	now         func() simclock.Time
	rev         int64
	data        map[string]Entry
	leases      map[LeaseID]*refLease
	nextLease   LeaseID
	down        bool
	downSince   simclock.Time
	jitterMax   simclock.Duration
	jitterState uint64
	events      []Event
	// held lists the leases a Hold renews on the grid; the model
	// renews each of them at every grid instant, as a run of
	// KeepAlives would.
	held []LeaseID
}

// refLease is a model lease, deadline included.
type refLease struct {
	id      LeaseID
	ttl     simclock.Duration
	expires simclock.Time
	keys    map[string]bool
}

func newRefStore(now func() simclock.Time) *refStore {
	return &refStore{now: now, data: map[string]Entry{}, leases: map[LeaseID]*refLease{}}
}

func (r *refStore) jitter() simclock.Duration {
	if r.jitterMax <= 0 {
		return 0
	}
	r.jitterState += 0x9E3779B97F4A7C15
	z := r.jitterState
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return simclock.Duration(float64(r.jitterMax) * (float64(z%(1<<20)) / float64(1<<20)))
}

func (r *refStore) sweep() {
	if r.down {
		return
	}
	t := r.now()
	var expired []*refLease
	for _, l := range r.leases {
		if l.expires <= t {
			expired = append(expired, l)
		}
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	for _, l := range expired {
		delete(r.leases, l.id)
		var keys []string
		for k := range l.keys {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if e, ok := r.data[k]; ok && e.Lease == l.id {
				delete(r.data, k)
				r.rev++
				r.events = append(r.events, Event{Type: EventDelete, Entry: Entry{Key: k, Rev: r.rev, Lease: l.id}})
			}
		}
	}
}

// nextExpiry is the earliest deadline of a lease outside the hold.
func (r *refStore) nextExpiry() simclock.Time {
	if r.down {
		return simclock.Forever
	}
	earliest := simclock.Forever
	for _, l := range r.leases {
		if l.expires < earliest && !slices.Contains(r.held, l.id) {
			earliest = l.expires
		}
	}
	return earliest
}

func (r *refStore) setAvailable(up bool) {
	if up == !r.down {
		return
	}
	if !up {
		r.down, r.downSince, r.held = true, r.now(), nil
		return
	}
	pause := r.now().Sub(r.downSince)
	r.down = false
	for _, l := range r.leases {
		l.expires = l.expires.Add(pause)
	}
	r.sweep()
}

func (r *refStore) grant(ttl simclock.Duration) (LeaseID, bool) {
	if r.down {
		return 0, false
	}
	r.sweep()
	r.nextLease++
	r.leases[r.nextLease] = &refLease{id: r.nextLease, ttl: ttl, expires: r.now().Add(ttl + r.jitter()), keys: map[string]bool{}}
	return r.nextLease, true
}

func (r *refStore) keepAlive(id LeaseID) bool {
	if r.down {
		return false
	}
	r.sweep()
	l := r.leases[id]
	if l == nil {
		return false
	}
	l.expires = r.now().Add(l.ttl + r.jitter())
	return true
}

// keepAliveAll renews ids one at a time and stops at the first failure.
func (r *refStore) keepAliveAll(ids []LeaseID) int {
	for n, id := range ids {
		if !r.keepAlive(id) {
			return n
		}
	}
	return len(ids)
}

func (r *refStore) put(key, value string, id LeaseID) (int64, bool) {
	if r.down {
		return 0, false
	}
	r.sweep()
	l := r.leases[id]
	if id != 0 && l == nil {
		return 0, false
	}
	if old, ok := r.data[key]; ok && old.Lease != 0 && old.Lease != id {
		if prev := r.leases[old.Lease]; prev != nil {
			delete(prev.keys, key)
		}
	}
	r.rev++
	e := Entry{Key: key, Value: value, Rev: r.rev, Lease: id}
	r.data[key] = e
	if l != nil {
		l.keys[key] = true
	}
	r.events = append(r.events, Event{Type: EventPut, Entry: e})
	return r.rev, true
}

func (r *refStore) delete(key string) bool {
	if r.down {
		return false
	}
	r.sweep()
	e, ok := r.data[key]
	if !ok {
		return false
	}
	if l := r.leases[e.Lease]; l != nil {
		delete(l.keys, key)
	}
	delete(r.data, key)
	r.rev++
	r.events = append(r.events, Event{Type: EventDelete, Entry: Entry{Key: key, Rev: r.rev, Lease: e.Lease}})
	return true
}

// checkIndex requires the expiry set to hold every live lease in
// exactly one slot, each lease's index naming its slot, and the cached
// earliest deadline to equal the linear minimum when it is fresh and to
// be no later than it when it is stale.
func checkIndex(s *Store) error {
	live := 0
	for i, l := range s.leases {
		if l == nil {
			continue
		}
		if l.id != LeaseID(i+1) {
			return fmt.Errorf("lease %d stored under id %d", l.id, i+1)
		}
		if l.index < 0 {
			held := 0
			for _, h := range s.holds {
				if pos := -1 - l.index; pos < len(h.leases) && h.leases[pos].l == l {
					held++
				}
			}
			if held != 1 {
				return fmt.Errorf("held lease %d is in %d holds at place %d", l.id, held, -1-l.index)
			}
			continue
		}
		live++
		if l.index >= len(s.expiry) || s.expiry[l.index].l != l {
			return fmt.Errorf("lease %d: index %d does not hold it", l.id, l.index)
		}
	}
	// Each live lease that is not held names one slot that holds it, so
	// equal counts leave no slot for a duplicate, an expired lease or a
	// held one.
	if live != len(s.expiry) {
		return fmt.Errorf("%d live leases outside holds, %d expiry slots", live, len(s.expiry))
	}
	earliest := simclock.Forever
	for _, sl := range s.expiry {
		earliest = min(earliest, sl.expires)
	}
	if s.stale && s.earliest > earliest {
		return fmt.Errorf("stale earliest deadline %v is past the linear minimum %v", s.earliest, earliest)
	}
	if !s.stale && s.earliest != earliest {
		return fmt.Errorf("cached earliest deadline %v, linear minimum %v", s.earliest, earliest)
	}
	return nil
}

// TestLeaseIndexMatchesLinearScan drives the store and the linear-scan
// model through the same seeded operation sequences and requires the
// same NextExpiry, revision and event stream after every step, and a
// valid expiry set. Times and TTLs come from small sets, so many leases
// fall due at one instant and the id tie-break decides the delete order;
// fractional steps make the outage shift round. Runs of KeepAlives at
// one instant mix live ids with zero, unknown and expired ones, and stop
// at the first that fails. Besides the random mix, each sequence aims at
// the cases that move the cached earliest deadline: renewing the
// earliest lease alone, a run that names one lease twice, two renewals
// of one lease at one instant, a sweep that expires every lease
// followed by a grant, and a whole outage. A Hold renews some leases
// on a grid shorter than every TTL while the model renews them eagerly
// at each grid instant; holds are replaced, settled, renewed off the
// grid, and cut by jitter changes and outages, some shorter than one
// grid interval. After every step every deadline, held or not, must be
// the model's, and so must the jitter stream's position. The test fails
// if some case never came up, so a change to the mix cannot drop one.
func TestLeaseIndexMatchesLinearScan(t *testing.T) {
	steps := []simclock.Duration{0, 0.1, 1.0 / 3, 0.5, 1, 2.5, 5}
	ttls := []simclock.Duration{1, 2, 3, 5, 7.5}
	jitters := []simclock.Duration{0, 0.7, 2}
	covered := map[string]int{}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &fakeClock{}
		s, ref := New(clk.now), newRefStore(clk.now)
		var got []Event
		s.Watch("", func(ev Event) { got = append(got, ev) })
		lease := func() LeaseID { return LeaseID(rng.Intn(int(ref.nextLease) + 2)) }
		liveLease := func() LeaseID {
			ids := make([]LeaseID, 0, len(ref.leases))
			for id := range ref.leases {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				return lease()
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			return ids[rng.Intn(len(ids))]
		}
		// earliestLease is the model's lease with the earliest deadline,
		// the lowest id among ties, or 0 when none is live.
		earliestLease := func() LeaseID {
			var best *refLease
			for _, l := range ref.leases {
				if best == nil || l.expires < best.expires || (l.expires == best.expires && l.id < best.id) {
					best = l
				}
			}
			if best == nil {
				return 0
			}
			return best.id
		}
		// renewRun renews ids one KeepAlive at a time at the current
		// instant and stops at the first that fails.
		renewRun := func(ids []LeaseID) string {
			op := fmt.Sprintf("KeepAlive run %v", ids)
			n := 0
			for n < len(ids) && s.KeepAlive(ids[n]) == nil {
				n++
			}
			if want := ref.keepAliveAll(ids); n != want {
				t.Fatalf("seed %d %s: renewed %d, want %d", seed, op, n, want)
			}
			return op
		}
		// One Hold renews its leases on a grid of period interval,
		// shorter than every TTL. At each grid instant the store renews
		// them with one Renew, or, when Renew declines, the caller
		// settles, renews each through KeepAlive and holds again; the
		// model renews them eagerly either way.
		const interval = simclock.Duration(0.75)
		h := &Hold{}
		var grid simclock.Time
		advance := func(to simclock.Time) {
			for len(ref.held) > 0 && grid <= to {
				clk.t = grid
				if h.Renew(grid) {
					covered["silent grid renewal"]++
				} else {
					h.Settle()
					for _, id := range ref.held {
						if err := s.KeepAlive(id); err != nil {
							t.Fatalf("seed %d at %v: grid renewal of %d through the store: %v", seed, grid, id, err)
						}
					}
					if !s.Hold(h, ref.held) {
						t.Fatalf("seed %d at %v: holding %v again after renewing them failed", seed, grid, ref.held)
					}
					covered["grid renewal through the store"]++
				}
				if ref.keepAliveAll(ref.held) != len(ref.held) {
					t.Fatalf("seed %d at %v: the model lost a held lease", seed, grid)
				}
				grid = grid.Add(interval)
			}
			clk.t = to
		}
		for step := 0; step < 400; step++ {
			var op string
			switch rng.Intn(18) {
			case 0, 1:
				d := steps[rng.Intn(len(steps))]
				op = fmt.Sprintf("advance %v", d)
				advance(clk.t.Add(d))
			case 2:
				ttl := ttls[rng.Intn(len(ttls))]
				op = fmt.Sprintf("Grant(%v)", ttl)
				id, err := s.Grant(ttl)
				wantID, ok := ref.grant(ttl)
				if id != wantID || (err == nil) != ok {
					t.Fatalf("seed %d step %d %s: got %d/%v, want %d/%v", seed, step, op, id, err, wantID, ok)
				}
			case 3:
				id := lease()
				op = fmt.Sprintf("KeepAlive(%d)", id)
				if err := s.KeepAlive(id); (err == nil) != ref.keepAlive(id) {
					t.Fatalf("seed %d step %d %s: err %v disagrees with the model", seed, step, op, err)
				}
			case 4:
				key, id := fmt.Sprintf("k%d", rng.Intn(8)), lease()
				op = fmt.Sprintf("Put(%s, %d)", key, id)
				rev, err := s.Put(key, op, id)
				wantRev, ok := ref.put(key, op, id)
				if rev != wantRev || (err == nil) != ok {
					t.Fatalf("seed %d step %d %s: got %d/%v, want %d/%v", seed, step, op, rev, err, wantRev, ok)
				}
			case 5:
				key := fmt.Sprintf("k%d", rng.Intn(8))
				op = fmt.Sprintf("Delete(%s)", key)
				if s.Delete(key) != ref.delete(key) {
					t.Fatalf("seed %d step %d %s: existence disagrees with the model", seed, step, op)
				}
			case 6:
				up := rng.Intn(3) != 0
				op = fmt.Sprintf("SetAvailable(%v)", up)
				if !up && !ref.down && len(ref.held) > 0 {
					covered["outage settles a hold"]++
				}
				s.SetAvailable(up)
				ref.setAvailable(up)
			case 7:
				max := jitters[rng.Intn(len(jitters))]
				op = fmt.Sprintf("SetLeaseJitter(%v)", max)
				if len(ref.held) > 0 {
					covered["jitter change under a hold"]++
				}
				s.SetLeaseJitter(max, seed)
				ref.jitterMax, ref.jitterState = max, uint64(seed)
			case 8:
				op = "Sweep"
				s.Sweep()
				ref.sweep()
			case 9:
				op = "Rev"
				ref.sweep()
				if got := s.Rev(); got != ref.rev {
					t.Fatalf("seed %d step %d: Rev %d, want %d", seed, step, got, ref.rev)
				}
			case 10:
				ids := make([]LeaseID, rng.Intn(13))
				for i := range ids {
					if rng.Intn(4) == 0 {
						ids[i] = lease()
					} else {
						ids[i] = liveLease()
					}
				}
				op = renewRun(ids)
			case 11:
				// The earliest lease renewed alone moves the cached
				// minimum's own slot.
				id := earliestLease()
				if id == 0 || ref.down {
					continue
				}
				covered["earliest alone"]++
				op = fmt.Sprintf("KeepAlive(earliest %d)", id)
				if err := s.KeepAlive(id); (err == nil) != ref.keepAlive(id) {
					t.Fatalf("seed %d step %d %s: err %v disagrees with the model", seed, step, op, err)
				}
			case 12:
				// A run that names a lease twice renews it twice, the
				// earliest lease among the candidates.
				id := liveLease()
				ids := []LeaseID{id, liveLease(), id}
				if e := earliestLease(); e != 0 && rng.Intn(2) == 0 {
					ids = append(ids, e, e)
				}
				if _, ok := ref.leases[id]; ok && !ref.down {
					covered["run with duplicates"]++
				}
				op = renewRun(ids)
			case 13:
				// Two renewals of one lease at one instant: with jitter
				// the second deadline may land before the first.
				id := liveLease()
				l := ref.leases[id]
				if l == nil || ref.down {
					continue
				}
				first := s.KeepAlive(id)
				if (first == nil) != ref.keepAlive(id) {
					t.Fatalf("seed %d step %d: first renewal of %d disagrees with the model", seed, step, id)
				}
				before := l.expires
				op = fmt.Sprintf("KeepAlive(%d) twice", id)
				if err := s.KeepAlive(id); (err == nil) != ref.keepAlive(id) {
					t.Fatalf("seed %d step %d %s: err %v disagrees with the model", seed, step, op, err)
				}
				if l.expires < before {
					covered["same-instant renewal moved earlier"]++
				}
			case 14:
				// Jump past every deadline so one sweep expires every
				// lease, then grant into the emptied set.
				if len(ref.leases) == 0 || ref.down || (len(ref.held) > 0 && rng.Intn(4) != 0) {
					continue
				}
				// Held leases never fall due: settle them first.
				h.Settle()
				ref.held = nil
				for _, l := range ref.leases {
					if l.expires > clk.t {
						clk.t = l.expires
					}
				}
				s.Sweep()
				ref.sweep()
				if len(s.expiry) != 0 || s.NextExpiry() != simclock.Forever {
					t.Fatalf("seed %d step %d: %d leases outlived a sweep past every deadline", seed, step, len(s.expiry))
				}
				covered["sweep of every lease"]++
				ttl := ttls[rng.Intn(len(ttls))]
				op = fmt.Sprintf("sweep all, Grant(%v)", ttl)
				id, err := s.Grant(ttl)
				wantID, ok := ref.grant(ttl)
				if id != wantID || (err == nil) != ok {
					t.Fatalf("seed %d step %d %s: got %d/%v, want %d/%v", seed, step, op, id, err, wantID, ok)
				}
			case 15:
				// A whole outage: down, time passes, restored.
				if ref.down || (len(ref.held) > 0 && rng.Intn(2) != 0) {
					continue
				}
				d := steps[rng.Intn(len(steps))]
				op = fmt.Sprintf("outage of %v", d)
				if len(ref.held) > 0 && d < interval {
					covered["outage shorter than a grid interval under a hold"]++
				}
				s.SetAvailable(false)
				ref.setAvailable(false)
				clk.t = clk.t.Add(d)
				s.SetAvailable(true)
				ref.setAvailable(true)
				if len(ref.leases) > 0 {
					covered["outage and restore"]++
				}
			case 16:
				// Hold a few leases, live or not, in a random order; the
				// hold settles what it held first. It must decline a
				// lease that is not live or is due now, and a down store.
				// Most draws leave a hold in force, so it lives long
				// enough to renew.
				if len(ref.held) > 0 && rng.Intn(4) != 0 {
					continue
				}
				var ids []LeaseID
				perm := rng.Perm(int(ref.nextLease) + 1)
				for _, i := range perm[:min(len(perm), rng.Intn(5))] {
					if i > 0 && rng.Intn(8) != 0 {
						ids = append(ids, LeaseID(i))
					}
				}
				op = fmt.Sprintf("Hold(%v)", ids)
				want := !ref.down
				for _, id := range ids {
					if l := ref.leases[id]; l == nil || l.expires <= clk.t {
						want = false
					}
				}
				if got := s.Hold(h, ids); got != want {
					t.Fatalf("seed %d step %d %s = %v, want %v", seed, step, op, got, want)
				}
				ref.held = nil
				if want {
					ref.held, grid = ids, clk.t.Add(interval)
					covered["hold"]++
				}
			case 17:
				op = "Settle"
				if len(ref.held) > 0 {
					covered["settle"]++
				}
				h.Settle()
				ref.held = nil
			}
			// The index is checked before NextExpiry, which refreshes a
			// stale cache.
			if err := checkIndex(s); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
			}
			if got, want := s.NextExpiry(), ref.nextExpiry(); got != want {
				t.Fatalf("seed %d step %d after %s: NextExpiry %v, want %v", seed, step, op, got, want)
			}
			if s.rev != ref.rev {
				t.Fatalf("seed %d step %d after %s: rev %d, want %d", seed, step, op, s.rev, ref.rev)
			}
			if !reflect.DeepEqual(got, ref.events) {
				t.Fatalf("seed %d step %d after %s: events\n%+v\nwant\n%+v", seed, step, op, got, ref.events)
			}
			if err := checkDeadlines(s, ref); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, op, err)
			}
			if ref.held != nil && slices.ContainsFunc(ref.held, func(id LeaseID) bool { return s.live(id).index >= 0 }) {
				t.Fatalf("seed %d step %d after %s: the model holds %v, the store does not", seed, step, op, ref.held)
			}
			if pos := s.jitterSeed + s.draws*0x9E3779B97F4A7C15; pos != ref.jitterState {
				t.Fatalf("seed %d step %d after %s: jitter stream at %#x, want %#x", seed, step, op, pos, ref.jitterState)
			}
		}
	}
	for _, c := range []string{"earliest alone", "run with duplicates", "same-instant renewal moved earlier", "sweep of every lease", "outage and restore",
		"hold", "settle", "silent grid renewal", "grid renewal through the store", "outage settles a hold",
		"jitter change under a hold", "outage shorter than a grid interval under a hold"} {
		if covered[c] == 0 {
			t.Errorf("no sequence covered %q", c)
		}
	}
	t.Logf("cases covered: %v", covered)
}

// checkDeadlines requires every live lease's deadline, held or not, to
// be the model's: a held lease's is the one settling it would give.
func checkDeadlines(s *Store, ref *refStore) error {
	for id, want := range ref.leases {
		l := s.live(id)
		if l == nil {
			return fmt.Errorf("lease %d is live in the model only", id)
		}
		var got simclock.Time
		if l.index < 0 {
			h, _ := s.holdOf(l)
			got = h.deadline(-1 - l.index)
		} else {
			got = s.expiry[l.index].expires
		}
		if got != want.expires {
			return fmt.Errorf("lease %d (held %v): deadline %v, model %v", id, l.index < 0, got, want.expires)
		}
	}
	return nil
}

// TestOutageShiftMovesEveryDeadline: restoring the store adds the pause
// to every inline deadline and marks the cached earliest deadline stale,
// so the next reader finds the shifted minimum. Deadlines spread over
// many magnitudes and a fractional pause make the additions round, some
// into ties.
func TestOutageShiftMovesEveryDeadline(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	s.SetLeaseJitter(0.7, 3)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		clk.t = simclock.Time(rng.Float64() * 1e-3)
		if _, err := s.Grant(simclock.Duration(1 + rng.Float64()*float64(int64(1)<<uint(rng.Intn(40))))); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[LeaseID]simclock.Time, len(s.expiry))
	earliest := simclock.Forever
	for _, sl := range s.expiry {
		before[sl.l.id] = sl.expires
		earliest = min(earliest, sl.expires)
	}
	s.SetAvailable(false)
	clk.t = clk.t.Add(1.0 / 3)
	pause := clk.t.Sub(s.downSince)
	s.SetAvailable(true)
	if err := checkIndex(s); err != nil {
		t.Fatal(err)
	}
	for _, sl := range s.expiry {
		if want := before[sl.l.id].Add(pause); sl.expires != want {
			t.Fatalf("lease %d: deadline %v after the outage, want %v", sl.l.id, sl.expires, want)
		}
	}
	if got, want := s.NextExpiry(), earliest.Add(pause); got != want {
		t.Fatalf("NextExpiry after the outage = %v, want %v", got, want)
	}
}

// TestSimultaneousExpiryDeletesInLeaseOrder: leases renewed in reverse
// id order hold deadlines in reverse id order, three of them tied; when
// one sweep finds them all due it must still delete lease by lease in
// id order.
func TestSimultaneousExpiryDeletesInLeaseOrder(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	var deleted []Entry
	s.Watch("", func(ev Event) {
		if ev.Type == EventDelete {
			deleted = append(deleted, ev.Entry)
		}
	})
	ids := make([]LeaseID, 5)
	for i := range ids {
		clk.t = simclock.Time(i)
		ids[i], _ = s.Grant(10)
		if _, err := s.Put(fmt.Sprintf("k%d", 4-i), "v", ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Deadlines: lease 5 at 15, 4 at 16, and 3, 2, 1 tied at 17.
	for _, r := range []struct {
		at simclock.Time
		id LeaseID
	}{{5, ids[4]}, {6, ids[3]}, {7, ids[2]}, {7, ids[1]}, {7, ids[0]}} {
		clk.t = r.at
		if err := s.KeepAlive(r.id); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.NextExpiry(); got != 15 {
		t.Fatalf("NextExpiry = %v, want 15", got)
	}
	clk.t = 20
	s.Sweep()
	want := []Entry{
		{Key: "k4", Rev: 6, Lease: 1},
		{Key: "k3", Rev: 7, Lease: 2},
		{Key: "k2", Rev: 8, Lease: 3},
		{Key: "k1", Rev: 9, Lease: 4},
		{Key: "k0", Rev: 10, Lease: 5},
	}
	if !reflect.DeepEqual(deleted, want) {
		t.Fatalf("deletes %+v, want %+v", deleted, want)
	}
	if got := s.NextExpiry(); got != simclock.Forever {
		t.Fatalf("NextExpiry after the sweep = %v, want Forever", got)
	}
}

// BenchmarkKeepAliveCohorts renews n leases in cohorts of k, the way
// the agent's heartbeat cohorts do when a tick fires: one op is one
// cohort's tick, which renews its k leases with one KeepAlive each and
// then reads NextExpiry to rearm the sweep. The cohorts tick in turn,
// evenly spaced over the heartbeat interval, so the ticking cohort
// always holds the earliest deadline, and k < n is the fragmented shape
// that restarts and healed partitions leave behind.
func BenchmarkKeepAliveCohorts(b *testing.B) {
	const interval, ttl = simclock.Duration(1), simclock.Duration(3)
	for _, n := range []int{16, 128, 1024} {
		for _, k := range []int{4, 16, n} {
			if k == n && k == 16 {
				continue // the same shape as k = 16
			}
			b.Run(fmt.Sprintf("n=%d/cohort=%d", n, k), func(b *testing.B) {
				clk := &fakeClock{}
				s := New(clk.now)
				ids := make([]LeaseID, n)
				for i := range ids {
					id, err := s.Grant(ttl)
					if err != nil {
						b.Fatal(err)
					}
					ids[i] = id
				}
				cohorts := n / k
				step := interval / simclock.Duration(cohorts)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clk.t = clk.t.Add(step)
					c := i % cohorts
					for _, id := range ids[c*k : (c+1)*k] {
						if err := s.KeepAlive(id); err != nil {
							b.Fatal(err)
						}
					}
					if s.NextExpiry() == simclock.Forever {
						b.Fatal("no lease left")
					}
				}
			})
		}
	}
}

// TestSettledLeasesExpireInLeaseOrder: holding leases takes them out of
// the expiry set and settling appends them at its end, so the set is
// no longer in id order. Leases that then fall due together must still
// be deleted lease by lease in id order.
func TestSettledLeasesExpireInLeaseOrder(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	var deleted []LeaseID
	s.Watch("", func(ev Event) {
		if ev.Type == EventDelete {
			deleted = append(deleted, ev.Entry.Lease)
		}
	})
	ids := make([]LeaseID, 4)
	for i := range ids {
		ids[i], _ = s.Grant(10)
		if _, err := s.Put(fmt.Sprintf("k%d", i), "v", ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	var h Hold
	if !s.Hold(&h, []LeaseID{ids[1], ids[0]}) {
		t.Fatal("Hold declined two live leases")
	}
	h.Settle()
	if slices.IsSortedFunc(s.expiry, func(a, b leaseSlot) int { return int(a.l.id - b.l.id) }) {
		t.Fatalf("expiry set still in id order after a settle: the test needs it out of order")
	}
	clk.t = 10
	s.Sweep()
	if want := ids; !slices.Equal(deleted, want) {
		t.Fatalf("leases deleted in order %v, want %v", deleted, want)
	}
}
