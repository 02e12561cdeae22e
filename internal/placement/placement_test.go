package placement

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestGroupRequiresDivisibility(t *testing.T) {
	if _, err := Group(5, 2); err == nil {
		t.Fatal("group with m ∤ N accepted")
	}
	p, err := Group(6, 2)
	if err != nil {
		t.Fatalf("Group(6,2): %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Group(6,2) invalid: %v", err)
	}
	if p.Kind != KindGroup || len(p.Groups) != 3 {
		t.Fatalf("Group(6,2) kind=%v groups=%v", p.Kind, p.Groups)
	}
}

func TestMixedEqualsGroupWhenDivisible(t *testing.T) {
	for _, c := range []struct{ n, m int }{{4, 2}, {16, 2}, {12, 3}, {8, 4}, {6, 1}} {
		mixed := MustMixed(c.n, c.m)
		group, err := Group(c.n, c.m)
		if err != nil {
			t.Fatalf("Group(%d,%d): %v", c.n, c.m, err)
		}
		if mixed.Kind != KindGroup {
			t.Errorf("Mixed(%d,%d) kind %v, want group", c.n, c.m, mixed.Kind)
		}
		for i := 0; i < c.n; i++ {
			a, b := mixed.Replicas(i), group.Replicas(i)
			if len(a) != len(b) {
				t.Fatalf("replica sets differ at rank %d", i)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("replica sets differ at rank %d: %v vs %v", i, a, b)
				}
			}
		}
	}
}

func TestMixedStructureWhenNotDivisible(t *testing.T) {
	// N=5, m=2: Figure 3c — machines {0,1} form a group, {2,3,4} a ring.
	p := MustMixed(5, 2)
	if p.Kind != KindMixed {
		t.Fatalf("kind %v, want mixed", p.Kind)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(p.Groups) != 2 || len(p.Groups[0]) != 2 || len(p.Groups[1]) != 3 {
		t.Fatalf("groups %v, want [[0 1] [2 3 4]]", p.Groups)
	}
	// Group members replicate to each other.
	if got := p.Replicas(0); got[0] != 0 || got[1] != 1 {
		t.Errorf("Replicas(0) = %v, want [0 1]", got)
	}
	// Ring members replicate to their successor in the ring.
	wantRing := map[int][]int{2: {2, 3}, 3: {3, 4}, 4: {2, 4}}
	for rank, want := range wantRing {
		got := p.Replicas(rank)
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("Replicas(%d) = %v, want %v", rank, got, want)
		}
	}
}

func TestEveryStrategySendsExactlyMMinus1Copies(t *testing.T) {
	for _, c := range []struct{ n, m int }{{4, 2}, {5, 2}, {7, 3}, {16, 2}, {10, 4}, {9, 3}} {
		for _, build := range []func(int, int) (*Placement, error){Mixed, Ring} {
			p, err := build(c.n, c.m)
			if err != nil {
				t.Fatalf("build(%d,%d): %v", c.n, c.m, err)
			}
			for i := 0; i < c.n; i++ {
				if got := len(p.PeersOf(i)); got != c.m-1 {
					t.Errorf("%v(%d,%d): rank %d sends %d copies, want %d",
						p.Kind, c.n, c.m, i, got, c.m-1)
				}
			}
			lo, hi := p.CPUMemoryPerMachine()
			if lo != c.m || hi != c.m {
				t.Errorf("%v(%d,%d): shards per machine [%d,%d], want exactly %d",
					p.Kind, c.n, c.m, lo, hi, c.m)
			}
		}
	}
}

// The shards each machine stores (the inverse of Replicas) are what
// CPUMemoryPerMachine counts, including on the mixed ring tail.
func TestStoresIsInverseOfReplicas(t *testing.T) {
	p := MustMixed(7, 3)
	stores := make([]int, p.N)
	for owner := 0; owner < p.N; owner++ {
		for _, holder := range p.Replicas(owner) {
			stores[holder]++
		}
	}
	lo, hi := p.CPUMemoryPerMachine()
	if lo != slices.Min(stores) || hi != slices.Max(stores) {
		t.Fatalf("CPUMemoryPerMachine = [%d,%d], inverse of Replicas stores %v", lo, hi, stores)
	}
}

func TestFigure3Probabilities(t *testing.T) {
	// Figure 3 narrative: N=4, m=2, two simultaneous failures. Group loses
	// in 2 of 6 cases; ring loses in 4 of 6.
	group, _ := Group(4, 2)
	ring, _ := Ring(4, 2)
	if got := ExactProbability(group, 2); math.Abs(got-4.0/6) > 1e-12 {
		t.Errorf("group N=4 m=2 k=2 probability %v, want 2/3", got)
	}
	if got := ExactProbability(ring, 2); math.Abs(got-2.0/6) > 1e-12 {
		t.Errorf("ring N=4 m=2 k=2 probability %v, want 1/3", got)
	}
}

func TestCorollary1PaperNumbers(t *testing.T) {
	// §4: N=16, m=2, k=2 ⇒ 93.3%. §7.2: k=3 ⇒ 80.0%.
	got, err := Corollary1(16, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.9333) > 5e-4 {
		t.Errorf("Corollary1(16,2,2) = %v, want 0.933", got)
	}
	got, err = Corollary1(16, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.8) > 1e-9 {
		t.Errorf("Corollary1(16,2,3) = %v, want 0.8", got)
	}
	// k < m always recovers.
	got, _ = Corollary1(16, 2, 1)
	if got != 1 {
		t.Errorf("Corollary1(16,2,1) = %v, want 1", got)
	}
}

func TestRingBoundPaperNumber(t *testing.T) {
	// §7.2: N=16, m=2, k=3: ring is 25% (absolute 0.20) below GEMINI's 0.8.
	got, err := RingBound(16, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.6) > 1e-9 {
		t.Errorf("RingBound(16,2,3) = %v, want 0.6", got)
	}
}

func TestCorollary1MatchesEnumerationForSmallK(t *testing.T) {
	// The bound is exact for m ≤ k < 2m.
	for _, c := range []struct{ n, m, k int }{{8, 2, 2}, {8, 2, 3}, {12, 3, 3}, {12, 3, 4}, {12, 3, 5}, {8, 4, 5}} {
		p, err := Group(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		exact := BitmaskProbability(p, c.k)
		bound, err := Corollary1(c.n, c.m, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-bound) > 1e-9 {
			t.Errorf("N=%d m=%d k=%d: enumeration %v != Corollary 1 %v", c.n, c.m, c.k, exact, bound)
		}
	}
}

func TestCorollary1IsLowerBoundForLargeK(t *testing.T) {
	for _, c := range []struct{ n, m, k int }{{8, 2, 4}, {8, 2, 5}, {12, 2, 6}, {12, 3, 7}} {
		p, err := Group(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		exact := BitmaskProbability(p, c.k)
		bound, err := Corollary1(c.n, c.m, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if bound > exact+1e-9 {
			t.Errorf("N=%d m=%d k=%d: Corollary 1 %v exceeds exact %v", c.n, c.m, c.k, bound, exact)
		}
	}
}

func TestGroupExactMatchesEnumeration(t *testing.T) {
	for _, c := range []struct{ n, m, k int }{{8, 2, 4}, {8, 2, 6}, {12, 3, 6}, {12, 2, 5}, {8, 4, 8}} {
		p, err := Group(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		enum := BitmaskProbability(p, c.k)
		closed, err := GroupExact(c.n, c.m, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(enum-closed) > 1e-9 {
			t.Errorf("N=%d m=%d k=%d: enumeration %v != inclusion-exclusion %v", c.n, c.m, c.k, enum, closed)
		}
	}
}

func TestRingExactMatchesEnumeration(t *testing.T) {
	for _, c := range []struct{ n, m, k int }{{6, 2, 2}, {6, 2, 3}, {8, 2, 4}, {9, 3, 4}, {10, 3, 6}, {7, 2, 7}} {
		p, err := Ring(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		enum := BitmaskProbability(p, c.k)
		closed, err := RingExact(c.n, c.m, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(enum-closed) > 1e-9 {
			t.Errorf("ring N=%d m=%d k=%d: enumeration %v != DP %v", c.n, c.m, c.k, enum, closed)
		}
	}
}

func TestRingExactKnownCount(t *testing.T) {
	// Circular non-adjacent selections: 3 of 16 with no two adjacent =
	// 16/13 · C(13,3) = 352 of C(16,3) = 560.
	got, err := RingExact(16, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 352.0 / 560; math.Abs(got-want) > 1e-12 {
		t.Errorf("RingExact(16,2,3) = %v, want %v", got, want)
	}
}

func TestRingBoundLowerBoundsRingExact(t *testing.T) {
	for n := 5; n <= 14; n++ {
		for m := 2; m <= 3; m++ {
			for k := m; k <= n/2+1 && k <= n; k++ {
				exact, err := RingExact(n, m, k)
				if err != nil {
					t.Fatal(err)
				}
				bound, err := RingBound(n, m, k)
				if err != nil {
					t.Fatal(err)
				}
				if bound > exact+1e-9 {
					t.Errorf("N=%d m=%d k=%d: RingBound %v exceeds RingExact %v", n, m, k, bound, exact)
				}
			}
		}
	}
}

func TestGroupBeatsRing(t *testing.T) {
	// The pivot claim of §4: group recovers more often than ring at equal
	// replica count.
	for _, c := range []struct{ n, m, k int }{{4, 2, 2}, {8, 2, 2}, {8, 2, 3}, {12, 2, 4}, {12, 3, 3}, {12, 3, 4}} {
		g, err := Group(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Ring(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		pg := BitmaskProbability(g, c.k)
		pr := BitmaskProbability(r, c.k)
		if pg < pr {
			t.Errorf("N=%d m=%d k=%d: group %v < ring %v", c.n, c.m, c.k, pg, pr)
		}
	}
}

func TestTheorem1GroupIsOptimalWhenDivisible(t *testing.T) {
	// Exhaustive over every possible placement for small instances: the
	// group strategy achieves the optimum when m | N.
	for _, c := range []struct{ n, m int }{{4, 2}, {6, 2}} {
		k := c.m
		p, err := Group(c.n, c.m)
		if err != nil {
			t.Fatal(err)
		}
		group := BitmaskProbability(p, k)
		best := OptimalProbability(c.n, c.m, k)
		if math.Abs(group-best) > 1e-12 {
			t.Errorf("N=%d m=%d k=%d: group %v, optimum %v", c.n, c.m, k, group, best)
		}
	}
}

func TestTheorem1MixedNearOptimalWhenNotDivisible(t *testing.T) {
	// When m ∤ N, the mixed strategy must be within (2m−3)/C(N,m) of the
	// exhaustive optimum.
	for _, c := range []struct{ n, m int }{{5, 2}, {7, 2}, {5, 3}} {
		k := c.m
		p := MustMixed(c.n, c.m)
		mixed := BitmaskProbability(p, k)
		best := OptimalProbability(c.n, c.m, k)
		gap := Theorem1Gap(c.n, c.m)
		if mixed > best+1e-12 {
			t.Errorf("N=%d m=%d: mixed %v beats 'optimum' %v — search is broken", c.n, c.m, mixed, best)
		}
		if best-mixed > gap+1e-12 {
			t.Errorf("N=%d m=%d k=%d: gap %v exceeds Theorem 1 bound %v (mixed %v, best %v)",
				c.n, c.m, k, best-mixed, gap, mixed, best)
		}
	}
}

func TestBitmaskProbabilityBoundaries(t *testing.T) {
	// Regression: the uint32 subset generator must work up to n=31 and
	// refuse n=32 (where 1<<n overflows).
	p := MustMixed(31, 2)
	got := BitmaskProbability(p, 2)
	want, err := GroupExact(30, 2, 2) // sanity anchor: nearby divisible case
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(got) || got <= 0 || got > 1 {
		t.Fatalf("BitmaskProbability(31,2,k=2) = %v, want a probability", got)
	}
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("n=31 probability %v far from n=30 anchor %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("n=32 enumeration did not panic")
		}
	}()
	BitmaskProbability(MustMixed(32, 2), 2)
}

// TestMonteCarloAgreesWithExact checks the estimator against exact
// enumeration over N ∈ {8, 12, 16, 24}, m ∈ {2, 3}, k ∈ 1..m+2, for the
// Mixed and Ring placements. An estimate from n trials is a binomial
// proportion with σ = √(p(1−p)/n), so each case must land within 5σ of
// the exact p (a chance miss somewhere in the table is below 1e-4); at
// p ∈ {0, 1} that bound is exact equality. The two exact enumerators
// must agree bit for bit.
func TestMonteCarloAgreesWithExact(t *testing.T) {
	const trials = 50_000
	builders := []struct {
		name  string
		build func(n, m int) (*Placement, error)
	}{{"mixed", Mixed}, {"ring", Ring}}
	seed := int64(0)
	for _, b := range builders {
		for _, n := range []int{8, 12, 16, 24} {
			for _, m := range []int{2, 3} {
				p, err := b.build(n, m)
				if err != nil {
					t.Fatalf("%s(%d,%d): %v", b.name, n, m, err)
				}
				for k := 1; k <= m+2; k++ {
					seed++
					exact := ExactProbability(p, k)
					if bm := BitmaskProbability(p, k); bm != exact {
						t.Errorf("%s N=%d m=%d k=%d: bitmask %v, exact %v", b.name, n, m, k, bm, exact)
					}
					est := MonteCarlo(p, k, trials, seed)
					sigma := math.Sqrt(exact * (1 - exact) / trials)
					if dev := math.Abs(est - exact); dev > 5*sigma {
						t.Errorf("%s N=%d m=%d k=%d seed %d: Monte Carlo %v vs exact %v (|Δ| = %.3g > 5σ = %.3g)",
							b.name, n, m, k, seed, est, exact, dev, 5*sigma)
					}
				}
			}
		}
	}
	if MonteCarlo(MustMixed(16, 2), 0, 100, 1) != 1 {
		t.Error("k=0 should always recover")
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	p := MustMixed(32, 2)
	a := MonteCarlo(p, 4, 10_000, 7)
	b := MonteCarlo(p, 4, 10_000, 7)
	if a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestSurvivesSemantics(t *testing.T) {
	p, _ := Group(4, 2)
	// Failing one machine per group always survives.
	if !p.Survives(map[int]bool{0: true, 2: true}) {
		t.Error("cross-group pair should survive")
	}
	// Failing a whole group loses that group's checkpoints.
	if p.Survives(map[int]bool{0: true, 1: true}) {
		t.Error("whole-group failure should not survive")
	}
	if !p.Survives(nil) {
		t.Error("no failures should survive")
	}
}

func TestArgumentValidation(t *testing.T) {
	if _, err := Mixed(0, 1); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Mixed(4, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := Mixed(4, 5); err == nil {
		t.Error("m>N accepted")
	}
	if _, err := Corollary1(5, 2, 2); err == nil {
		t.Error("Corollary1 with m ∤ N accepted")
	}
	if _, err := Corollary1(4, 2, 9); err == nil {
		t.Error("Corollary1 with k>N accepted")
	}
	if _, err := RingExact(4, 2, -1); err == nil {
		t.Error("RingExact with k<0 accepted")
	}
	if _, err := GroupExact(4, 2, 5); err == nil {
		t.Error("GroupExact with k>N accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustMixed on bad args did not panic")
		}
	}()
	MustMixed(2, 3)
}

func TestReplicasPanicsOutOfRange(t *testing.T) {
	p := MustMixed(4, 2)
	for _, fn := range []func(){
		func() { p.Replicas(-1) },
		func() { p.Replicas(4) },
		func() { ExactProbability(p, 5) },
		func() { MonteCarlo(p, -1, 10, 1) },
		// The bitmask path rejects k like the other estimators instead
		// of enumerating no subsets and returning 0/0 = NaN.
		func() { BitmaskProbability(p, -1) },
		func() { BitmaskProbability(p, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestM1DegeneratesToLocalOnly(t *testing.T) {
	p := MustMixed(5, 1)
	for i := 0; i < 5; i++ {
		set := p.Replicas(i)
		if len(set) != 1 || set[0] != i {
			t.Fatalf("m=1 Replicas(%d) = %v, want [%d]", i, set, i)
		}
	}
	// With a single replica, any failure of that machine loses the shard.
	if got := ExactProbability(p, 1); got != 0 {
		t.Fatalf("m=1 k=1 probability %v, want 0", got)
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{16, 2, 120}, {16, 3, 560}, {5, 0, 1}, {5, 5, 1}, {5, 6, 0}, {5, -1, 0}}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestKSubsetsCount(t *testing.T) {
	for _, c := range []struct{ n, k int }{{5, 2}, {8, 3}, {6, 0}, {6, 6}} {
		got := len(kSubsets(c.n, c.k))
		want := int(binomial(c.n, c.k))
		if got != want {
			t.Errorf("kSubsets(%d,%d) has %d entries, want %d", c.n, c.k, got, want)
		}
	}
}

// Property: probability ordering Ring ≤ Mixed holds for arbitrary small
// instances and k = m, and all probabilities are in [0,1].
func TestPropertyStrategyOrdering(t *testing.T) {
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%10) + 2
		m := int(mRaw)%(n-1) + 1
		if m < 2 {
			m = 2
		}
		if m > n {
			return true
		}
		mixed := MustMixed(n, m)
		ring, err := Ring(n, m)
		if err != nil {
			return false
		}
		pm := BitmaskProbability(mixed, m)
		pr := BitmaskProbability(ring, m)
		if pm < 0 || pm > 1 || pr < 0 || pr > 1 {
			return false
		}
		return pm >= pr-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: probabilities are nonincreasing in k for the mixed strategy.
func TestPropertyMonotoneInFailures(t *testing.T) {
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%8) + 4
		m := 2 + int(mRaw%2)
		if m > n {
			return true
		}
		p := MustMixed(n, m)
		prev := 1.0
		for k := 0; k <= n; k++ {
			cur := BitmaskProbability(p, k)
			if cur > prev+1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Corollary 1's probability increases with N at fixed m, k —
// the trend Figure 9 plots.
func TestPropertyCorollary1IncreasesWithN(t *testing.T) {
	prev := 0.0
	for n := 4; n <= 128; n += 2 {
		got, err := Corollary1(n, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got < prev-1e-12 {
			t.Fatalf("Corollary1(%d,2,3) = %v decreased from %v", n, got, prev)
		}
		prev = got
	}
}
