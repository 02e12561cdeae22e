package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"gemini/internal/simclock"
)

// fakeClock is a settable virtual clock.
type fakeClock struct{ t simclock.Time }

func (c *fakeClock) now() simclock.Time { return c.t }

func TestPutGetDelete(t *testing.T) {
	s := New(nil)
	rev, err := s.Put("a", "1", 0)
	if err != nil || rev != 1 {
		t.Fatalf("Put: rev=%d err=%v", rev, err)
	}
	e, ok := s.Get("a")
	if !ok || e.Value != "1" || e.Rev != 1 {
		t.Fatalf("Get: %+v %v", e, ok)
	}
	rev2, _ := s.Put("a", "2", 0)
	if rev2 != 2 {
		t.Fatalf("second Put rev %d, want 2", rev2)
	}
	if !s.Delete("a") {
		t.Fatal("Delete reported missing key")
	}
	if s.Delete("a") {
		t.Fatal("double Delete reported success")
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if _, err := s.Put("", "x", 0); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := New(nil)
	// Create-if-absent.
	_, won, err := s.CompareAndSwap("k", 0, "v1", 0)
	if err != nil || !won {
		t.Fatalf("CAS create: won=%v err=%v", won, err)
	}
	// Second create fails.
	_, won, _ = s.CompareAndSwap("k", 0, "v2", 0)
	if won {
		t.Fatal("CAS create over existing key won")
	}
	e, _ := s.Get("k")
	// Guarded update with right rev wins.
	_, won, _ = s.CompareAndSwap("k", e.Rev, "v3", 0)
	if !won {
		t.Fatal("CAS with correct rev lost")
	}
	// Stale rev loses.
	_, won, _ = s.CompareAndSwap("k", e.Rev, "v4", 0)
	if won {
		t.Fatal("CAS with stale rev won")
	}
	if got, _ := s.Get("k"); got.Value != "v3" {
		t.Fatalf("value %q, want v3", got.Value)
	}
}

func TestRangeSortedByKey(t *testing.T) {
	s := New(nil)
	for _, k := range []string{"m/2", "m/10", "m/1", "other"} {
		if _, err := s.Put(k, "x", 0); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Range("m/")
	if len(got) != 3 || got[0].Key != "m/1" || got[1].Key != "m/10" || got[2].Key != "m/2" {
		t.Fatalf("Range = %+v", got)
	}
	if all := s.Range(""); len(all) != 4 {
		t.Fatalf("full range has %d entries", len(all))
	}
}

func TestLeaseExpiryDeletesKeys(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	id, err := s.Grant(10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("hb/1", "alive", id); err != nil {
		t.Fatal(err)
	}
	clk.t = 9
	if _, ok := s.Get("hb/1"); !ok {
		t.Fatal("key vanished before lease expiry")
	}
	clk.t = 10
	if _, ok := s.Get("hb/1"); ok {
		t.Fatal("key survived lease expiry")
	}
	if _, ok := s.LeaseRemaining(id); ok {
		t.Fatal("expired lease still exists")
	}
	// Writing under the expired lease fails.
	if _, err := s.Put("hb/1", "again", id); err == nil {
		t.Fatal("Put under expired lease accepted")
	}
}

func TestKeepAliveExtendsLease(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	id, _ := s.Grant(10)
	if _, err := s.Put("k", "v", id); err != nil {
		t.Fatal(err)
	}
	clk.t = 8
	if err := s.KeepAlive(id); err != nil {
		t.Fatalf("KeepAlive: %v", err)
	}
	clk.t = 17 // original expiry would be 10; renewed is 18
	if _, ok := s.Get("k"); !ok {
		t.Fatal("key expired despite keepalive")
	}
	clk.t = 18
	if _, ok := s.Get("k"); ok {
		t.Fatal("key survived renewed expiry")
	}
	if err := s.KeepAlive(id); err == nil {
		t.Fatal("KeepAlive on expired lease accepted")
	}
}

func TestGrantValidation(t *testing.T) {
	s := New(nil)
	if _, err := s.Grant(0); err == nil {
		t.Fatal("zero TTL accepted")
	}
	if _, err := s.Grant(-1); err == nil {
		t.Fatal("negative TTL accepted")
	}
	if _, err := s.Put("k", "v", 999); err == nil {
		t.Fatal("unknown lease accepted")
	}
}

func TestReattachKeyToDifferentLease(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	l1, _ := s.Grant(10)
	l2, _ := s.Grant(100)
	if _, err := s.Put("k", "v1", l1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("k", "v2", l2); err != nil {
		t.Fatal(err)
	}
	clk.t = 50 // l1 long expired
	if e, ok := s.Get("k"); !ok || e.Value != "v2" {
		t.Fatalf("key after lease move: %+v %v", e, ok)
	}
	clk.t = 100
	if _, ok := s.Get("k"); ok {
		t.Fatal("key survived second lease expiry")
	}
}

func TestWatchDeliversPutsAndDeletes(t *testing.T) {
	s := New(nil)
	var events []Event
	s.Watch("hb/", func(ev Event) { events = append(events, ev) })
	if _, err := s.Put("hb/1", "a", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("other", "x", 0); err != nil {
		t.Fatal(err)
	}
	s.Delete("hb/1")
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(events), events)
	}
	if events[0].Type != EventPut || events[0].Entry.Key != "hb/1" || events[0].Entry.Value != "a" {
		t.Fatalf("event 0 = %+v", events[0])
	}
	if events[1].Type != EventDelete || events[1].Entry.Key != "hb/1" {
		t.Fatalf("event 1 = %+v", events[1])
	}
}

func TestWatchFiresOnLeaseExpiry(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	var deleted []string
	s.Watch("", func(ev Event) {
		if ev.Type == EventDelete {
			deleted = append(deleted, ev.Entry.Key)
		}
	})
	id, _ := s.Grant(5)
	if _, err := s.Put("a", "1", id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", "2", id); err != nil {
		t.Fatal(err)
	}
	clk.t = 5
	s.Sweep()
	if len(deleted) != 2 || deleted[0] != "a" || deleted[1] != "b" {
		t.Fatalf("expiry deletions %v, want [a b]", deleted)
	}
}

func TestWatchCallbackMayReenterStore(t *testing.T) {
	s := New(nil)
	reacted := false
	s.Watch("trigger", func(ev Event) {
		if ev.Type == EventPut && !reacted {
			reacted = true
			if _, err := s.Put("reaction", "done", 0); err != nil {
				t.Errorf("reentrant Put: %v", err)
			}
		}
	})
	if _, err := s.Put("trigger", "go", 0); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Get("reaction"); !ok || e.Value != "done" {
		t.Fatalf("reentrant write missing: %+v %v", e, ok)
	}
}

// The store is safe for concurrent use: goroutines mixing writes,
// reads, contended CAS and lease traffic under a registered prefix
// watch leave one revision per successful write, and the watch sees
// every write under its prefix exactly once, in strictly increasing
// revision order. Run it under -race.
func TestStoreConcurrentClients(t *testing.T) {
	s := New(nil)       // lease clock frozen at 0: no expiry deletes
	var watched []int64 // no lock: the store serializes deliveries
	s.Watch("w/", func(ev Event) { watched = append(watched, ev.Entry.Rev) })

	const clients, perClient = 8, 50
	var writes, prefixWrites atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- func() error {
				for i := 0; i < perClient; i++ {
					lease, err := s.Grant(100)
					if err != nil {
						return err
					}
					key := fmt.Sprintf("w/c%d/k%d", c, i)
					if _, err := s.Put(key, "v1", lease); err != nil {
						return err
					}
					e, ok := s.Get(key)
					if !ok || e.Value != "v1" {
						return fmt.Errorf("get %s: %+v %v", key, e, ok)
					}
					// Nobody else writes this key, so the guarded update wins.
					if _, won, err := s.CompareAndSwap(key, e.Rev, "v2", lease); err != nil || !won {
						return fmt.Errorf("CAS %s: won=%v err=%v", key, won, err)
					}
					// Every client races on one shared key; some CAS lose.
					cur, _ := s.Get("w/shared")
					_, won, err := s.CompareAndSwap("w/shared", cur.Rev, key, 0)
					if err != nil {
						return err
					}
					if err := s.KeepAlive(lease); err != nil {
						return err
					}
					if _, err := s.Put(fmt.Sprintf("other/c%d/k%d", c, i), "x", 0); err != nil {
						return err
					}
					n := int64(2) // Put + owned CAS under w/
					if won {
						n++
					}
					prefixWrites.Add(n)
					writes.Add(n + 1) // + the Put outside the prefix
				}
				return nil
			}()
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := s.Rev(), writes.Load(); got != want {
		t.Fatalf("final revision %d, want %d successful writes", got, want)
	}
	if got, want := int64(len(watched)), prefixWrites.Load(); got != want {
		t.Fatalf("watch saw %d events, want %d writes under w/", got, want)
	}
	for i := 1; i < len(watched); i++ {
		if watched[i] <= watched[i-1] {
			t.Fatalf("watch event %d has rev %d after rev %d", i, watched[i], watched[i-1])
		}
	}
}

func TestNextExpiry(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	if s.NextExpiry() != simclock.Forever {
		t.Fatal("empty store has an expiry")
	}
	s.Grant(10)
	s.Grant(5)
	if got := s.NextExpiry(); got != 5 {
		t.Fatalf("NextExpiry = %v, want 5", got)
	}
}

func TestNilWatchPanics(t *testing.T) {
	s := New(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("nil watch callback accepted")
		}
	}()
	s.Watch("x", nil)
}

func TestElectionBasics(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	el, err := NewElection(s, "leader")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := el.Leader(); ok {
		t.Fatal("leader exists before any campaign")
	}
	l1, _ := s.Grant(10)
	won, err := el.Campaign("node-1", l1)
	if err != nil || !won {
		t.Fatalf("first campaign: won=%v err=%v", won, err)
	}
	l2, _ := s.Grant(10)
	won, _ = el.Campaign("node-2", l2)
	if won {
		t.Fatal("second candidate won over live leader")
	}
	leader, ok := el.Leader()
	if !ok || leader != "node-1" {
		t.Fatalf("leader %q/%v, want node-1", leader, ok)
	}
	// Re-campaigning as the leader is idempotent.
	won, _ = el.Campaign("node-1", l1)
	if !won {
		t.Fatal("leader re-campaign lost")
	}
}

func TestElectionFailoverOnLeaseExpiry(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	el, _ := NewElection(s, "leader")
	l1, _ := s.Grant(10)
	if won, _ := el.Campaign("node-1", l1); !won {
		t.Fatal("initial campaign lost")
	}
	// node-1 stops heartbeating; its lease expires.
	clk.t = 10
	if _, ok := el.Leader(); ok {
		t.Fatal("dead leader still holds the key")
	}
	l2, _ := s.Grant(10)
	won, _ := el.Campaign("node-2", l2)
	if !won {
		t.Fatal("failover campaign lost")
	}
	if leader, _ := el.Leader(); leader != "node-2" {
		t.Fatalf("leader %q, want node-2", leader)
	}
}

func TestElectionValidation(t *testing.T) {
	s := New(nil)
	if _, err := NewElection(s, ""); err == nil {
		t.Fatal("empty election key accepted")
	}
	el, _ := NewElection(s, "leader")
	if _, err := el.Campaign("", 1); err == nil {
		t.Fatal("empty candidate accepted")
	}
	if _, err := el.Campaign("x", 0); err == nil {
		t.Fatal("campaign without lease accepted")
	}
}

func TestUniqueLeaderInvariant(t *testing.T) {
	// Many candidates campaigning concurrently through the sequential
	// API: exactly one wins.
	s := New(nil)
	el, _ := NewElection(s, "leader")
	winners := 0
	for i := 0; i < 20; i++ {
		lease, _ := s.Grant(100)
		won, err := el.Campaign("node", lease) // same name → idempotent wins
		if err != nil {
			t.Fatal(err)
		}
		if won {
			winners++
		}
	}
	if winners != 20 {
		t.Fatalf("same-name campaigns won %d/20", winners)
	}
	distinct := 0
	for i := 0; i < 20; i++ {
		lease, _ := s.Grant(100)
		won, _ := el.Campaign(string(rune('a'+i)), lease)
		if won {
			distinct++
		}
	}
	if distinct != 0 {
		t.Fatalf("%d distinct candidates beat a live leader", distinct)
	}
}
