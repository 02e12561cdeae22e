package derive

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/metrics"
)

func validKey() Key {
	return Key{
		Model:           "GPT-2 100B",
		Instance:        "p4d.24xlarge",
		Machines:        16,
		Replicas:        2,
		RemoteBandwidth: baselines.DefaultRemoteBandwidth,
	}
}

func TestGetMatchesBuild(t *testing.T) {
	c := NewCache(8)
	k := validKey()
	cached, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached.Config, fresh.Config) {
		t.Error("cached Config differs from a fresh Build")
	}
	if !reflect.DeepEqual(cached.Profile, fresh.Profile) {
		t.Error("cached Profile differs from a fresh Build")
	}
	if !reflect.DeepEqual(cached.Plan, fresh.Plan) {
		t.Error("cached Plan differs from a fresh Build")
	}
	if cached.Gemini != fresh.Gemini || cached.Strawman != fresh.Strawman || cached.HighFreq != fresh.HighFreq {
		t.Error("cached baseline specs differ from a fresh Build")
	}
}

func TestWarmHitSharesArtifacts(t *testing.T) {
	c := NewCache(8)
	k := validKey()
	a1, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("warm hit returned a different Artifacts pointer")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := NewCache(8)
	k := validKey()
	k.Model = "no-such-model"
	if _, err := c.Get(k); err == nil {
		t.Fatal("expected an error for an unknown model")
	}
	s := c.Stats()
	if s.Entries != 0 {
		t.Fatalf("failed build left %d entries in the cache", s.Entries)
	}
	// A retry misses again (no poisoned slot) and still errors.
	if _, err := c.Get(k); err == nil {
		t.Fatal("expected the retry to error too")
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 misses / 0 hits", s)
	}
}

// NaN never equals itself, so a NaN-keyed map slot can be neither hit
// nor deleted: such a key must fail without touching the cache.
func TestNaNKeyRejectedOutsideCache(t *testing.T) {
	c := NewCache(8)
	k := validKey()
	k.RemoteBandwidth = math.NaN()
	if _, err := c.Get(k); err == nil {
		t.Fatal("NaN remote bandwidth accepted")
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("NaN key left %d entries in the cache", s.Entries)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewCache(2)
	keys := []Key{validKey(), validKey(), validKey()}
	keys[1].Replicas = 3
	keys[2].Model = "RoBERTa 100B"
	for _, k := range keys {
		if _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", s)
	}
	// keys[0] was least recently used and must have been evicted: getting
	// it again is a miss, while keys[2] stays warm.
	if _, err := c.Get(keys[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
	s = c.Stats()
	if s.Hits != 1 || s.Misses != 4 {
		t.Fatalf("stats = %+v, want 1 hit / 4 misses after LRU re-fetch", s)
	}
}

func TestLRUOrderFollowsUse(t *testing.T) {
	c := NewCache(2)
	a, b := validKey(), validKey()
	b.Replicas = 3
	third := validKey()
	third.Model = "BERT 100B"
	for _, k := range []Key{a, b} {
		if _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b becomes the LRU victim.
	if _, err := c.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(third); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(a); err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	// a: miss, hit, hit; b: miss; third: miss; b evicted.
	if s.Hits != 2 || s.Misses != 3 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 3 misses / 1 eviction", s)
	}
}

func TestSingleflightConcurrentMisses(t *testing.T) {
	c := NewCache(8)
	k := validKey()
	const goroutines = 16
	got := make([]*Artifacts, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := c.Get(k)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent gets returned different Artifacts pointers")
		}
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("concurrent gets on one key built %d times, want 1 (singleflight)", s.Misses)
	}
	if s.Hits != goroutines-1 {
		t.Fatalf("stats = %+v, want %d hits", s, goroutines-1)
	}
}

func TestDistinctKeysAreDistinctEntries(t *testing.T) {
	c := NewCache(8)
	a := validKey()
	b := validKey()
	b.RemoteBandwidth = 2 * a.RemoteBandwidth
	ra, err := c.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.Get(b)
	if err != nil {
		t.Fatal(err)
	}
	if ra == rb {
		t.Fatal("different keys returned the same Artifacts")
	}
	if ra.Strawman.CheckpointTime == rb.Strawman.CheckpointTime {
		t.Error("remote bandwidth change did not affect the derived spec")
	}
}

func TestClearResets(t *testing.T) {
	c := NewCache(8)
	if _, err := c.Get(validKey()); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats after Clear = %+v, want zeroes", s)
	}
	if _, err := c.Get(validKey()); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("get after Clear was not a miss: %+v", s)
	}
}

func TestExportSnapshotsCounters(t *testing.T) {
	c := NewCache(8)
	for i := 0; i < 3; i++ {
		if _, err := c.Get(validKey()); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.NewRegistry()
	c.Export(reg)
	if v := reg.Counter("derive.cache.hits").Value(); v != 2 {
		t.Errorf("exported hits = %v, want 2", v)
	}
	if v := reg.Counter("derive.cache.misses").Value(); v != 1 {
		t.Errorf("exported misses = %v, want 1", v)
	}
	if v := reg.Gauge("derive.cache.entries").Value(); v != 1 {
		t.Errorf("exported entries = %v, want 1", v)
	}
	// Re-export after more traffic refreshes monotonically.
	if _, err := c.Get(validKey()); err != nil {
		t.Fatal(err)
	}
	c.Export(reg)
	if v := reg.Counter("derive.cache.hits").Value(); v != 3 {
		t.Errorf("re-exported hits = %v, want 3", v)
	}
	// Export into a nil registry must no-op.
	c.Export(nil)
}

func TestHitRate(t *testing.T) {
	if r := (Stats{}).HitRate(); r != 0 {
		t.Fatalf("empty hit rate = %v, want 0", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRate(); r != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", r)
	}
}
