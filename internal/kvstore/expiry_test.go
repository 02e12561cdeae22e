package kvstore

import (
	"fmt"
	"math/rand"
	"reflect"
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
	leases      map[LeaseID]*lease
	nextLease   LeaseID
	down        bool
	downSince   simclock.Time
	jitterMax   simclock.Duration
	jitterState uint64
	events      []Event
}

func newRefStore(now func() simclock.Time) *refStore {
	return &refStore{now: now, data: map[string]Entry{}, leases: map[LeaseID]*lease{}}
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
	var expired []*lease
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

func (r *refStore) nextExpiry() simclock.Time {
	if r.down {
		return simclock.Forever
	}
	earliest := simclock.Forever
	for _, l := range r.leases {
		if l.expires < earliest {
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
		r.down, r.downSince = true, r.now()
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
	r.leases[r.nextLease] = &lease{id: r.nextLease, ttl: ttl, expires: r.now().Add(ttl + r.jitter()), keys: map[string]bool{}}
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

// TestLeaseIndexMatchesLinearScan drives the store and the linear-scan
// model through the same seeded operation sequences and requires the
// same NextExpiry, revision and event stream after every step. Times
// and TTLs come from small sets, so many leases fall due at one
// instant and the id tie-break decides the delete order; fractional
// steps make the outage shift round.
func TestLeaseIndexMatchesLinearScan(t *testing.T) {
	steps := []simclock.Duration{0, 0.1, 1.0 / 3, 0.5, 1, 2.5, 5}
	ttls := []simclock.Duration{1, 2, 3, 5, 7.5}
	jitters := []simclock.Duration{0, 0.7, 2}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := &fakeClock{}
		s, ref := New(clk.now), newRefStore(clk.now)
		var got []Event
		s.Watch("", func(ev Event) { got = append(got, ev) })
		lease := func() LeaseID { return LeaseID(rng.Intn(int(ref.nextLease) + 2)) }
		for step := 0; step < 400; step++ {
			var op string
			switch rng.Intn(10) {
			case 0, 1:
				d := steps[rng.Intn(len(steps))]
				op = fmt.Sprintf("advance %v", d)
				clk.t = clk.t.Add(d)
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
				s.SetAvailable(up)
				ref.setAvailable(up)
			case 7:
				max := jitters[rng.Intn(len(jitters))]
				op = fmt.Sprintf("SetLeaseJitter(%v)", max)
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
			}
			if got, want := s.NextExpiry(), ref.nextExpiry(); got != want {
				t.Fatalf("seed %d step %d after %s: NextExpiry %v, want %v", seed, step, op, got, want)
			}
			s.mu.Lock()
			rev := s.rev
			s.mu.Unlock()
			if rev != ref.rev {
				t.Fatalf("seed %d step %d after %s: rev %d, want %d", seed, step, op, rev, ref.rev)
			}
			if !reflect.DeepEqual(got, ref.events) {
				t.Fatalf("seed %d step %d after %s: events\n%+v\nwant\n%+v", seed, step, op, got, ref.events)
			}
		}
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
