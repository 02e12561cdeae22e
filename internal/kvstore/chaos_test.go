package kvstore

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gemini/internal/simclock"
)

func TestUnavailableWindow(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	if _, err := s.Put("a", "1", 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	lid, err := s.Grant(10)
	if err != nil {
		t.Fatalf("Grant: %v", err)
	}

	s.SetAvailable(false)
	if s.Available() {
		t.Fatal("store reports available while down")
	}
	if _, err := s.Put("b", "2", 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put while down: err=%v, want ErrUnavailable", err)
	}
	if _, _, err := s.CompareAndSwap("a", 0, "x", 0); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("CAS while down: err=%v, want ErrUnavailable", err)
	}
	if _, err := s.Grant(5); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Grant while down: err=%v, want ErrUnavailable", err)
	}
	if err := s.KeepAlive(lid); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("KeepAlive while down: err=%v, want ErrUnavailable", err)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("Get served data while down")
	}
	if s.Delete("a") {
		t.Fatal("Delete succeeded while down")
	}
	if s.NextExpiry() != simclock.Forever {
		t.Fatal("NextExpiry while down should be Forever")
	}

	s.SetAvailable(true)
	if e, ok := s.Get("a"); !ok || e.Value != "1" {
		t.Fatalf("Get after restore: %+v %v", e, ok)
	}
}

// TestOutageFreezesLeases: a quorum-less etcd cannot expire leases, so an
// outage longer than a lease's TTL must not kill the lease; its remaining
// TTL is preserved across the window.
func TestOutageFreezesLeases(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	lid, err := s.Grant(10)
	if err != nil {
		t.Fatalf("Grant: %v", err)
	}
	if _, err := s.Put("hb", "x", lid); err != nil {
		t.Fatalf("Put: %v", err)
	}

	clk.t = 7 // 3s of TTL left
	s.SetAvailable(false)
	clk.t = 100 // outage lasts 93s, far past the TTL
	s.SetAvailable(true)

	// The 3s left when the store went down now run from the restore.
	if got := s.NextExpiry(); got != 103 {
		t.Fatalf("lease expiry after restore = %v, want 103 (TTL frozen across the outage)", got)
	}
	if _, ok := s.Get("hb"); !ok {
		t.Fatal("leased key lost across the outage")
	}

	clk.t = 104 // 1s past the shifted expiry
	s.Sweep()
	if _, ok := s.Get("hb"); ok {
		t.Fatal("leased key survived past shifted expiry")
	}
}

// TestLeaseExpiryRacesCAS: a lease expiring at exactly the instant of a
// CompareAndSwap must be swept first, so a CAS guarding on the dying
// key's revision loses, and a CAS-create of the same key wins.
func TestLeaseExpiryRacesCAS(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.now)
	lid, err := s.Grant(10)
	if err != nil {
		t.Fatalf("Grant: %v", err)
	}
	rev, err := s.Put("leader", "old-root", lid)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	clk.t = 10 // lease expires exactly now
	_, won, err := s.CompareAndSwap("leader", rev, "usurper", 0)
	if err != nil {
		t.Fatalf("CAS: %v", err)
	}
	if won {
		t.Fatal("CAS against an expired key's revision won; sweep must run first")
	}
	_, won, err = s.CompareAndSwap("leader", 0, "new-root", 0)
	if err != nil || !won {
		t.Fatalf("CAS-create after expiry: won=%v err=%v", won, err)
	}
	e, _ := s.Get("leader")
	if e.Value != "new-root" {
		t.Fatalf("leader = %q, want new-root", e.Value)
	}
}

func TestLeaseJitterDeterministic(t *testing.T) {
	// Each lease is granted alone and swept at its expiry, so
	// NextExpiry reads its jittered deadline.
	expiries := func(seed int64) []simclock.Duration {
		clk := &fakeClock{}
		s := New(clk.now)
		s.SetLeaseJitter(5, seed)
		var out []simclock.Duration
		for i := 0; i < 4; i++ {
			if _, err := s.Grant(10); err != nil {
				t.Fatalf("Grant: %v", err)
			}
			next := s.NextExpiry()
			out = append(out, next.Sub(clk.now()))
			clk.t = next
			s.Sweep()
		}
		return out
	}
	a, b := expiries(1), expiries(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 10 || a[i] >= 15 {
			t.Fatalf("lease lifetime %v outside [TTL, TTL+max)", a[i])
		}
	}
	c := expiries(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// TestSetLeaseJitterRejectsNonFinite: with a NaN jitter every later
// deadline is NaN, which no sweep ever reaches, so a dead worker's lease
// would never expire. A NaN, infinite or negative jitter panics, naming
// the jitter.
func TestSetLeaseJitterRejectsNonFinite(t *testing.T) {
	for _, max := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "jitter") {
					t.Errorf("SetLeaseJitter(%v): panic %q, want one naming the jitter", max, msg)
				}
			}()
			New(nil).SetLeaseJitter(simclock.Duration(max), 1)
		}()
	}
}
