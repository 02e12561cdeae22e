package placement

import (
	"slices"
	"testing"
)

// survivesMapRef is the seed's map-based O(N) survival kernel, kept as
// the reference implementation the bitset kernel must agree with: scan
// every rank, and for each failed one require a healthy replica.
func survivesMapRef(p *Placement, failed map[int]bool) bool {
	for rank := 0; rank < p.N; rank++ {
		if !failed[rank] {
			continue
		}
		alive := false
		for _, r := range p.Replicas(rank) {
			if !failed[r] {
				alive = true
				break
			}
		}
		if !alive {
			return false
		}
	}
	return true
}

// kernelPlacements builds one instance of every placement kind at the
// given scale knobs, skipping combinations the constructors reject.
func kernelPlacements(t *testing.T, n, m, rackSize int) []*Placement {
	t.Helper()
	var out []*Placement
	out = append(out, MustMixed(n, m))
	if r, err := Ring(n, m); err == nil {
		out = append(out, r)
	}
	if n%m == 0 {
		if g, err := Group(n, m); err == nil {
			out = append(out, g)
		}
	}
	if ra, err := RackAware(n, m, rackSize); err == nil {
		out = append(out, ra)
	}
	return out
}

// TestKernelAgreesWithMapReference is the bitset-kernel property test:
// on randomized Group/Ring/Mixed/RackAware placements and randomized
// failure sets of every size, Survives (map wrapper) and SurvivesFailed
// (list+bitset kernel) must both agree with the seed's map-based
// reference implementation.
func TestKernelAgreesWithMapReference(t *testing.T) {
	rng := newSplitMix(0xC0FFEE)
	for _, dims := range []struct{ n, m, rackSize int }{
		{8, 2, 2}, {12, 3, 2}, {16, 4, 4}, {23, 3, 1}, {64, 2, 8}, {96, 4, 8}, {129, 5, 1},
	} {
		for _, p := range kernelPlacements(t, dims.n, dims.m, dims.rackSize) {
			for trial := 0; trial < 64; trial++ {
				k := int(rng.next() % uint64(p.N+1))
				failedMap := make(map[int]bool, k)
				set := NewFailSet(p.N)
				var failed []int
				for len(failed) < k {
					rank := int(rng.next() % uint64(p.N))
					if failedMap[rank] {
						continue
					}
					failedMap[rank] = true
					set.Set(rank)
					failed = append(failed, rank)
				}
				want := survivesMapRef(p, failedMap)
				if got := p.Survives(failedMap); got != want {
					t.Fatalf("%s N=%d m=%d k=%d: Survives=%v, reference=%v", p.Kind, p.N, p.M, k, got, want)
				}
				if got := p.SurvivesFailed(failed, set); got != want {
					t.Fatalf("%s N=%d m=%d k=%d: SurvivesFailed=%v, reference=%v", p.Kind, p.N, p.M, k, got, want)
				}
			}
		}
	}
}

// TestSurvivesWrapperIgnoresFalseAndOutOfRangeEntries pins the wrapper's
// map semantics: entries mapped to false and out-of-range keys behave
// exactly as they did for the map kernel (false = healthy; a key outside
// [0,N) never matches any replica, so it cannot affect the verdict).
func TestSurvivesWrapperIgnoresFalseAndOutOfRangeEntries(t *testing.T) {
	p, _ := Group(4, 2)
	if !p.Survives(map[int]bool{0: true, 1: false, 2: true}) {
		t.Error("false-valued entry treated as failed")
	}
	if p.Survives(map[int]bool{0: true, 1: true, -7: true, 99: true}) {
		t.Error("whole-group failure masked by out-of-range entries")
	}
}

// TestFailSetOperations exercises the bitset primitives across word
// boundaries.
func TestFailSetOperations(t *testing.T) {
	s := NewFailSet(130)
	if len(s) != 3 {
		t.Fatalf("NewFailSet(130) has %d words, want 3", len(s))
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		if s.Has(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Has(i) {
			t.Fatalf("Set(%d) not visible", i)
		}
	}
	ranks := func() []int {
		var out []int
		for i := 0; i < 130; i++ {
			if s.Has(i) {
				out = append(out, i)
			}
		}
		return out
	}
	if got, want := ranks(), []int{0, 63, 64, 127, 128, 129}; !slices.Equal(got, want) {
		t.Fatalf("set holds %v, want %v", got, want)
	}
	s.Clear(64)
	if got, want := ranks(), []int{0, 63, 127, 128, 129}; !slices.Equal(got, want) {
		t.Fatalf("Clear(64) left %v, want %v", got, want)
	}
	s.Reset()
	if got := ranks(); len(got) != 0 {
		t.Fatalf("Reset left %v", got)
	}
}

// TestMonteCarloPinnedLargeN pins Monte-Carlo estimates at the 10k–50k
// machine scale to the exact values the seed's map-based kernel produced
// for the same (placement, k, trials, seed). The bitset kernel reuses
// the seed's RNG draw sequence verbatim, so any drift here means the
// rewrite changed the estimator, not just its speed.
func TestMonteCarloPinnedLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N pinned estimates skipped in -short mode")
	}
	cases := []struct {
		n, m, k, trials int
		seed            int64
		want            float64 // seed-kernel value, pinned
	}{
		{10000, 4, 8, 8192, 1, 1},
		{10000, 4, 8, 10000, 1, 1},
		{50000, 4, 8, 4096, 1, 1},
		{4096, 2, 6, 8192, 9, 0.995849609375},
		{1000, 3, 5, 12345, 3, 1},
		{10000, 2, 64, 10000, 1, 0.8175},
		{10000, 2, 8, 10000, 5, 0.99690000000000001},
		{50000, 2, 64, 4096, 2, 0.953369140625},
		{999, 2, 12, 8192, 17, 0.9346923828125},
	}
	for _, c := range cases {
		p := MustMixed(c.n, c.m)
		for _, workers := range []int{1, 4} {
			if got := MonteCarloWorkers(p, c.k, c.trials, c.seed, workers); got != c.want {
				t.Errorf("N=%d m=%d k=%d trials=%d seed=%d workers=%d: got %.17g, want %.17g",
					c.n, c.m, c.k, c.trials, c.seed, workers, got, c.want)
			}
		}
	}
}

// TestExactAndCorrelatedUnchangedByKernel cross-checks the enumeration
// entry points against the independent bitmask enumerator after the
// kernel swap.
func TestExactAndCorrelatedUnchangedByKernel(t *testing.T) {
	for _, c := range []struct{ n, m, k int }{{8, 2, 3}, {9, 3, 4}, {12, 3, 5}} {
		p := MustMixed(c.n, c.m)
		if got, want := ExactProbability(p, c.k), BitmaskProbability(p, c.k); got != want {
			t.Errorf("ExactProbability(N=%d,m=%d,k=%d) = %v, bitmask %v", c.n, c.m, c.k, got, want)
		}
	}
	p := MustRackAware(16, 2, 2)
	racks, err := Racks(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		got, err := CorrelatedProbability(p, racks, k)
		if err != nil {
			t.Fatal(err)
		}
		// Map-reference recount over the same subset enumeration.
		sets := kSubsets(len(racks), k)
		survived := 0
		for _, set := range sets {
			failed := map[int]bool{}
			for rack := range racks {
				if set&(1<<uint(rack)) != 0 {
					for _, rank := range racks[rack] {
						failed[rank] = true
					}
				}
			}
			if survivesMapRef(p, failed) {
				survived++
			}
		}
		if want := float64(survived) / float64(len(sets)); got != want {
			t.Errorf("CorrelatedProbability k=%d: %v, map reference %v", k, got, want)
		}
	}
}

// TestFlatReplicasLayout pins the contiguous backing array: every kind's
// replica sets are windows of one allocation, and Replicas caps its
// return so appends cannot clobber the neighbor rank's set.
func TestFlatReplicasLayout(t *testing.T) {
	for _, p := range kernelPlacements(t, 16, 4, 4) {
		if len(p.flat) != p.N*p.M {
			t.Fatalf("%s: flat len %d, want %d", p.Kind, len(p.flat), p.N*p.M)
		}
		for rank := 0; rank < p.N; rank++ {
			set := p.Replicas(rank)
			if len(set) != p.M || cap(set) != p.M {
				t.Fatalf("%s Replicas(%d): len=%d cap=%d, want both %d", p.Kind, rank, len(set), cap(set), p.M)
			}
		}
		grown := append(p.Replicas(0), -1) // must copy, not spill into rank 1
		_ = grown
		if err := p.Validate(); err != nil {
			t.Fatalf("%s corrupted by append: %v", p.Kind, err)
		}
	}
}
