package storage

import (
	"testing"
	"testing/quick"
)

// Put stores and Get returns; a Put under an existing key deletes the
// old object, freeing its bytes.
func TestMemoryStorePutGetDelete(t *testing.T) {
	s := MustNewMemoryStore(1000)
	if err := s.Put(Object{Key: "a", Bytes: 400, Iteration: 1}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(Object{Key: "b", Bytes: 500, Iteration: 2}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	obj, ok := s.Get("a")
	if !ok || obj.Iteration != 1 || obj.Bytes != 400 {
		t.Fatalf("Get(a) = %+v, %v", obj, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get invented an object")
	}
	if err := s.Put(Object{Key: "a", Bytes: 100, Iteration: 3}); err != nil {
		t.Fatalf("replacing Put: %v", err)
	}
	if obj, _ := s.Get("a"); obj.Iteration != 3 {
		t.Fatalf("Get(a) after replace = %+v, want iteration 3", obj)
	}
	// 100 + 500 used: 400 more fit, 401 do not.
	if err := s.Put(Object{Key: "c", Bytes: 401}); err == nil {
		t.Fatal("Put past capacity accepted after replace")
	}
	if err := s.Put(Object{Key: "c", Bytes: 400}); err != nil {
		t.Fatalf("replaced object's bytes not freed: %v", err)
	}
}

func TestMemoryStoreCapacityEnforced(t *testing.T) {
	s := MustNewMemoryStore(1000)
	if err := s.Put(Object{Key: "a", Bytes: 800}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Object{Key: "b", Bytes: 300}); err == nil {
		t.Fatal("over-capacity Put accepted")
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("rejected Put stored its object")
	}
	// Replacing the same key counts the delta, not the sum.
	if err := s.Put(Object{Key: "a", Bytes: 900}); err != nil {
		t.Fatalf("in-place grow rejected: %v", err)
	}
	if err := s.Put(Object{Key: "b", Bytes: 101}); err == nil {
		t.Fatal("Put past the 900 used accepted")
	}
	if err := s.Put(Object{Key: "b", Bytes: 100}); err != nil {
		t.Fatalf("Put filling exactly to capacity rejected: %v", err)
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
	if _, ok := s.Get("a"); ok {
		t.Fatal("wipe left an object")
	}
	if err := s.Put(Object{Key: "b", Bytes: 100}); err != nil {
		t.Fatalf("wipe left bytes in use: %v", err)
	}
}

func TestNewMemoryStoreRejectsNegative(t *testing.T) {
	if _, err := NewMemoryStore(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
}

// Property: across random Put and Wipe sequences the store accepts a
// Put exactly when the stored sizes, with the replaced object's bytes
// freed, stay within capacity, and Get always returns the last accepted
// object per key.
func TestPropertyMemoryStoreAccounting(t *testing.T) {
	const capacity = 10000
	f := func(ops []uint16) bool {
		s := MustNewMemoryStore(capacity)
		model := map[string]float64{}
		for _, op := range ops {
			key := string(rune('a' + op%7))
			size := float64(op % 4000)
			switch (op / 7) % 5 {
			case 4:
				s.Wipe()
				clear(model)
			default:
				used := 0.0
				for k, b := range model {
					if k != key {
						used += b
					}
				}
				err := s.Put(Object{Key: key, Bytes: size})
				if (err == nil) != (used+size <= capacity) {
					return false
				}
				if err == nil {
					model[key] = size
				}
			}
			for k := range 7 {
				key := string(rune('a' + k))
				obj, ok := s.Get(key)
				want, wantOK := model[key]
				if ok != wantOK || obj.Bytes != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
