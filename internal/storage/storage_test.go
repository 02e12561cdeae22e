package storage

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMemoryStorePutGetDelete(t *testing.T) {
	s := MustNewMemoryStore(1000)
	if err := s.Put(Object{Key: "a", Bytes: 400, Iteration: 1}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(Object{Key: "b", Bytes: 500, Iteration: 2}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if s.Used() != 900 || s.Len() != 2 {
		t.Fatalf("used=%v len=%d", s.Used(), s.Len())
	}
	obj, ok := s.Get("a")
	if !ok || obj.Iteration != 1 {
		t.Fatalf("Get(a) = %+v, %v", obj, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get invented an object")
	}
	s.Delete("a")
	if s.Used() != 500 || s.Len() != 1 {
		t.Fatalf("after delete used=%v len=%d", s.Used(), s.Len())
	}
	s.Delete("missing") // no-op
}

func TestMemoryStoreCapacityEnforced(t *testing.T) {
	s := MustNewMemoryStore(1000)
	if err := s.Put(Object{Key: "a", Bytes: 800}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Object{Key: "b", Bytes: 300}); err == nil {
		t.Fatal("over-capacity Put accepted")
	}
	// Replacing the same key counts the delta, not the sum.
	if err := s.Put(Object{Key: "a", Bytes: 900}); err != nil {
		t.Fatalf("in-place grow rejected: %v", err)
	}
	if s.Used() != 900 {
		t.Fatalf("used %v, want 900", s.Used())
	}
	if err := s.Put(Object{Key: "c", Bytes: -1}); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestMemoryStoreWipe(t *testing.T) {
	s := MustNewMemoryStore(100)
	if err := s.Put(Object{Key: "a", Bytes: 50}); err != nil {
		t.Fatal(err)
	}
	s.Wipe()
	if s.Used() != 0 || s.Len() != 0 {
		t.Fatal("wipe left residue")
	}
}

func TestMemoryStoreKeysSorted(t *testing.T) {
	s := MustNewMemoryStore(100)
	for _, k := range []string{"c", "a", "b"} {
		if err := s.Put(Object{Key: k, Bytes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("Keys = %v, want sorted [a b c]", keys)
	}
}

func TestNewMemoryStoreRejectsNegative(t *testing.T) {
	if _, err := NewMemoryStore(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// Property: MemoryStore used-bytes always equals the sum of stored object
// sizes and never exceeds capacity, across random op sequences.
func TestPropertyMemoryStoreAccounting(t *testing.T) {
	f := func(ops []uint16) bool {
		s := MustNewMemoryStore(10000)
		for _, op := range ops {
			key := string(rune('a' + op%7))
			size := float64(op % 4000)
			switch (op / 7) % 3 {
			case 0, 1:
				_ = s.Put(Object{Key: key, Bytes: size})
			case 2:
				s.Delete(key)
			}
			var sum float64
			for _, k := range s.Keys() {
				obj, _ := s.Get(k)
				sum += obj.Bytes
			}
			if math.Abs(sum-s.Used()) > 1e-9 || s.Used() > s.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
