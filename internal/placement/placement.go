// Package placement implements GEMINI's checkpoint placement strategies
// (§4): given N machines and m checkpoint replicas, decide which machines
// hold each machine's checkpoint so that the probability of recovering
// from CPU memory under simultaneous failures is maximized.
//
// The package provides Algorithm 1 (the mixed group/ring strategy), the
// pure group and ring strategies it composes, the closed-form recovery
// probability of Corollary 1, exact probabilities by enumeration and by
// dynamic programming, a Monte-Carlo estimator for large clusters, and an
// exhaustive optimality checker used to validate Theorem 1 on small
// instances.
package placement

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gemini/internal/parallel"
)

// Kind names a placement strategy.
type Kind string

const (
	// KindGroup is the pure group strategy: machines are partitioned into
	// groups of exactly m, and every member replicates to the whole group.
	KindGroup Kind = "group"
	// KindRing is the pure ring strategy: machine i replicates to itself
	// and its next m−1 ring successors.
	KindRing Kind = "ring"
	// KindMixed is Algorithm 1's output when m does not divide N: group
	// placement for the first ⌊N/m⌋−1 groups and a ring over the rest.
	KindMixed Kind = "mixed"
)

// Placement is a concrete replica assignment: for every machine rank, the
// set of ranks that hold a copy of its checkpoint. Every replica set
// includes the owner itself (the local replica, one tier of GEMINI's
// hierarchical storage).
//
// All N replica sets (each exactly M ranks, sorted) live in one
// contiguous backing array: rank i's set is flat[i*M : (i+1)*M]. The flat
// layout is a single allocation per placement and keeps the survival
// kernel's probes on sequential cache lines.
type Placement struct {
	N, M   int
	Kind   Kind
	Groups [][]int // diagnostic grouping, as Algorithm 1 reports it
	flat   []int   // flat[i*M:(i+1)*M] = sorted ranks holding rank i's checkpoint
}

// newPlacement allocates a placement's flat replica storage in one shot.
func newPlacement(n, m int, kind Kind) *Placement {
	return &Placement{N: n, M: m, Kind: kind, flat: make([]int, n*m)}
}

// replicaSet returns rank's replica set without bounds checking — the
// kernel-internal accessor.
func (p *Placement) replicaSet(rank int) []int {
	return p.flat[rank*p.M : (rank+1)*p.M]
}

// Replicas returns the ranks storing machine rank's checkpoint, in
// ascending order, always including rank itself. The returned slice
// aliases the placement's backing array with capacity clamped to its
// length; callers must not modify it.
func (p *Placement) Replicas(rank int) []int {
	if rank < 0 || rank >= p.N {
		panic(fmt.Sprintf("placement: rank %d out of range [0,%d)", rank, p.N))
	}
	return p.flat[rank*p.M : (rank+1)*p.M : (rank+1)*p.M]
}

// PeersOf returns the remote ranks machine rank must send its checkpoint
// to: its replica set minus itself. Its length is always m−1 for the
// strategies in this package (the communication-optimality property of
// Theorem 1's proof).
func (p *Placement) PeersOf(rank int) []int {
	set := p.Replicas(rank)
	out := make([]int, 0, len(set)-1)
	for _, r := range set {
		if r != rank {
			out = append(out, r)
		}
	}
	return out
}

// Validate checks the structural invariants: every replica set has
// exactly m distinct in-range members including the owner.
func (p *Placement) Validate() error {
	if p.M < 1 || p.M > p.N {
		return fmt.Errorf("placement: m=%d out of range [1,%d]", p.M, p.N)
	}
	if len(p.flat) != p.N*p.M {
		return fmt.Errorf("placement: %d replica entries for %d machines × %d replicas", len(p.flat), p.N, p.M)
	}
	for i := 0; i < p.N; i++ {
		set := p.replicaSet(i)
		hasSelf := false
		seen := make(map[int]bool, len(set))
		for _, r := range set {
			if r < 0 || r >= p.N {
				return fmt.Errorf("placement: rank %d replica %d out of range", i, r)
			}
			if seen[r] {
				return fmt.Errorf("placement: rank %d has duplicate replica %d", i, r)
			}
			seen[r] = true
			if r == i {
				hasSelf = true
			}
		}
		if !hasSelf {
			return fmt.Errorf("placement: rank %d lacks its local replica", i)
		}
	}
	return nil
}

// Survives reports whether recovery from CPU memory is possible when the
// given set of ranks fail simultaneously: every machine's replica set
// must retain at least one healthy member (for failed machines, so a
// replacement can fetch their shard; healthy machines keep their local
// copy trivially).
//
// Survives is the map-accepting compatibility wrapper; it converts the
// map once and delegates to SurvivesFailed. Hot paths (Monte Carlo,
// exact enumeration, correlated enumeration) keep a FailSet and a
// failed-rank list directly and never touch a map.
func (p *Placement) Survives(failed map[int]bool) bool {
	list, set := failSetOf(p.N, failed)
	return p.SurvivesFailed(list, set)
}

// SurvivesFailed is the availability kernel: given the failed ranks both
// as an explicit list and as a bitset over [0,N), it reports whether
// every failed rank's replica set retains a healthy member. Only the k
// failed ranks' sets are probed — O(k·m) work regardless of N, versus
// the O(N) scan of the map-based kernel it replaces. Both views must
// describe the same set; healthy ranks survive via their local replica
// and are never inspected.
func (p *Placement) SurvivesFailed(failed []int, set FailSet) bool {
	m := p.M
	for _, rank := range failed {
		alive := false
		for _, r := range p.flat[rank*m : (rank+1)*m] {
			if !set.Has(r) {
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

func checkArgs(n, m int) error {
	if n < 1 {
		return fmt.Errorf("placement: need at least one machine, got %d", n)
	}
	if m < 1 || m > n {
		return fmt.Errorf("placement: replicas m=%d out of range [1,%d]", m, n)
	}
	return nil
}

// Group builds the pure group strategy. It fails unless m divides N.
func Group(n, m int) (*Placement, error) {
	if err := checkArgs(n, m); err != nil {
		return nil, err
	}
	if n%m != 0 {
		return nil, fmt.Errorf("placement: group strategy needs m | N, got N=%d m=%d", n, m)
	}
	p := newPlacement(n, m, KindGroup)
	for g := 0; g < n/m; g++ {
		group := make([]int, m)
		for j := 0; j < m; j++ {
			group[j] = g*m + j
		}
		p.Groups = append(p.Groups, group)
		for _, rank := range group {
			copy(p.replicaSet(rank), group)
		}
	}
	return p, nil
}

// Ring builds the pure ring strategy over all N machines: rank i
// replicates to {i, i+1, …, i+m−1} mod N.
func Ring(n, m int) (*Placement, error) {
	if err := checkArgs(n, m); err != nil {
		return nil, err
	}
	p := newPlacement(n, m, KindRing)
	ring := make([]int, n)
	for i := range ring {
		ring[i] = i
	}
	p.Groups = [][]int{ring}
	for i := 0; i < n; i++ {
		set := p.replicaSet(i)
		for j := 0; j < m; j++ {
			set[j] = (i + j) % n
		}
		sort.Ints(set)
	}
	return p, nil
}

// Mixed is Algorithm 1: group placement when m divides N; otherwise group
// placement for the first ⌊N/m⌋−1 groups and ring placement over the
// remaining N − m(⌊N/m⌋−1) machines.
func Mixed(n, m int) (*Placement, error) {
	if err := checkArgs(n, m); err != nil {
		return nil, err
	}
	if n%m == 0 {
		return Group(n, m)
	}
	p := newPlacement(n, m, KindMixed)
	fullGroups := n/m - 1
	for g := 0; g < fullGroups; g++ {
		group := make([]int, m)
		for j := 0; j < m; j++ {
			group[j] = g*m + j
		}
		p.Groups = append(p.Groups, group)
		for _, rank := range group {
			copy(p.replicaSet(rank), group)
		}
	}
	// The trailing ring has between m+1 and 2m−1 members.
	start := fullGroups * m
	ring := make([]int, 0, n-start)
	for r := start; r < n; r++ {
		ring = append(ring, r)
	}
	p.Groups = append(p.Groups, ring)
	s := len(ring)
	for idx, rank := range ring {
		set := p.replicaSet(rank)
		for j := 0; j < m; j++ {
			set[j] = ring[(idx+j)%s]
		}
		sort.Ints(set)
	}
	return p, nil
}

// MustMixed is Mixed for statically-known-good arguments.
func MustMixed(n, m int) *Placement {
	p, err := Mixed(n, m)
	if err != nil {
		panic(err)
	}
	return p
}

// CPUMemoryPerMachine returns how many checkpoint shards each machine
// stores under the placement, as a (min, max) pair. Group placement
// stores exactly m everywhere; the mixed ring tail also stores m.
func (p *Placement) CPUMemoryPerMachine() (minShards, maxShards int) {
	counts := make([]int, p.N)
	for _, r := range p.flat {
		counts[r]++
	}
	minShards, maxShards = counts[0], counts[0]
	for _, c := range counts[1:] {
		minShards = min(minShards, c)
		maxShards = max(maxShards, c)
	}
	return minShards, maxShards
}

// binomial returns C(n, k) as a float64 (exact for the magnitudes used
// here; overflows gracefully to +Inf for absurd inputs).
func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	res := 1.0
	for i := 1; i <= k; i++ {
		res = res * float64(n-k+i) / float64(i)
	}
	return res
}

// Corollary1 returns the paper's closed-form lower bound on the
// probability that GEMINI recovers from CPU memory with the group
// strategy: 1 when k < m, otherwise max{0, 1 − (N/m)·C(N−m,k−m)/C(N,k)}.
// The bound is exact for m ≤ k < 2m. It requires m | N.
func Corollary1(n, m, k int) (float64, error) {
	if err := checkArgs(n, m); err != nil {
		return 0, err
	}
	if n%m != 0 {
		return 0, fmt.Errorf("placement: Corollary 1 requires m | N, got N=%d m=%d", n, m)
	}
	if k < 0 || k > n {
		return 0, fmt.Errorf("placement: k=%d out of range [0,%d]", k, n)
	}
	if k < m {
		return 1, nil
	}
	loss := float64(n) / float64(m) * binomial(n-m, k-m) / binomial(n, k)
	return math.Max(0, 1-loss), nil
}

// GroupExact returns the exact recovery probability of the group strategy
// by inclusion–exclusion over which of the N/m groups are fully failed:
//
//	P(some group ⊆ failed) = Σ_{j≥1} (−1)^{j+1} C(g,j) C(N−jm, k−jm) / C(N,k)
//
// with g = N/m. Requires m | N.
func GroupExact(n, m, k int) (float64, error) {
	if err := checkArgs(n, m); err != nil {
		return 0, err
	}
	if n%m != 0 {
		return 0, fmt.Errorf("placement: GroupExact requires m | N, got N=%d m=%d", n, m)
	}
	if k < 0 || k > n {
		return 0, fmt.Errorf("placement: k=%d out of range [0,%d]", k, n)
	}
	if k < m {
		return 1, nil
	}
	g := n / m
	total := binomial(n, k)
	lost := 0.0
	sign := 1.0
	for j := 1; j*m <= k && j <= g; j++ {
		lost += sign * binomial(g, j) * binomial(n-j*m, k-j*m)
		sign = -sign
	}
	return 1 - lost/total, nil
}

// RingExact returns the exact recovery probability of the pure ring
// strategy: recovery fails iff some m cyclically-consecutive machines are
// all failed. Computed by counting k-subsets of a cycle of N with no run
// of m consecutive chosen elements, via linear-arrangement DP conditioned
// on the boundary.
func RingExact(n, m, k int) (float64, error) {
	if err := checkArgs(n, m); err != nil {
		return 0, err
	}
	if k < 0 || k > n {
		return 0, fmt.Errorf("placement: k=%d out of range [0,%d]", k, n)
	}
	if k < m {
		return 1, nil
	}
	if m == n {
		// Only the all-failed set loses the checkpoint.
		if k == n {
			return 0, nil
		}
		return 1, nil
	}
	good := circularNoRun(n, k, m)
	return good / binomial(n, k), nil
}

// circularNoRun counts binary necklaces-as-strings of length n with k
// ones and no m consecutive ones cyclically. It conditions on the length
// of the run of ones wrapping position 0: suppose the run covering the
// boundary has a ones at the end of the string and b at the start
// (a+b < m), with zeros adjacent; sum linear counts for the interior.
func circularNoRun(n, k, m int) float64 {
	if k == 0 {
		return 1
	}
	// Case 1: position 0 is a zero. The remaining n−1 positions form a
	// line with k ones, no run of m, and the boundary is broken.
	total := linearNoRun(n-1, k, m)
	// Case 2: position 0 is a one. Let the cyclic run containing position
	// 0 have b ones going forward from 0 (b ≥ 1) and a ones backward from
	// n−1 (a ≥ 0), a+b ≤ m−1, each flanked by a zero. The interior line
	// has length n − a − b − 2 and k − a − b ones.
	for b := 1; b < m; b++ {
		for a := 0; a+b < m; a++ {
			ones := k - a - b
			length := n - a - b - 2
			if ones < 0 || length < 0 {
				continue
			}
			total += linearNoRun(length, ones, m)
		}
	}
	return total
}

// linearNoRun counts binary strings of length n with k ones and no run of
// m consecutive ones, by DP over (position, ones used, current run).
func linearNoRun(n, k, m int) float64 {
	if k == 0 {
		return 1
	}
	if n <= 0 {
		return 0
	}
	// dp[ones][run] after processing a prefix.
	dp := make([][]float64, k+1)
	for i := range dp {
		dp[i] = make([]float64, m)
	}
	dp[0][0] = 1
	for pos := 0; pos < n; pos++ {
		next := make([][]float64, k+1)
		for i := range next {
			next[i] = make([]float64, m)
		}
		for ones := 0; ones <= k; ones++ {
			for run := 0; run < m; run++ {
				v := dp[ones][run]
				if v == 0 {
					continue
				}
				next[ones][0] += v // place a zero
				if ones+1 <= k && run+1 < m {
					next[ones+1][run+1] += v // place a one
				}
			}
		}
		dp = next
	}
	var total float64
	for run := 0; run < m; run++ {
		total += dp[k][run]
	}
	return total
}

// RingBound returns the union-bound estimate of the ring strategy's
// recovery probability that the paper plots in Figure 9: the ring has
// n distinct replica sets (vs. N/m for group), so the loss term scales by
// n rather than N/m. It lower-bounds RingExact and equals it for k = m.
func RingBound(n, m, k int) (float64, error) {
	if err := checkArgs(n, m); err != nil {
		return 0, err
	}
	if k < 0 || k > n {
		return 0, fmt.Errorf("placement: k=%d out of range [0,%d]", k, n)
	}
	if k < m {
		return 1, nil
	}
	loss := float64(n) * binomial(n-m, k-m) / binomial(n, k)
	return math.Max(0, 1-loss), nil
}

// ExactProbability computes the recovery probability of an arbitrary
// placement by enumerating all C(N,k) simultaneous-failure sets. It is
// exponential in k and meant for validation at small scale.
func ExactProbability(p *Placement, k int) float64 {
	if k < 0 || k > p.N {
		panic(fmt.Sprintf("placement: k=%d out of range [0,%d]", k, p.N))
	}
	if k == 0 {
		return 1
	}
	set := NewFailSet(p.N)
	failed := make([]int, 0, k)
	var survived, total float64
	var walk func(start, left int)
	walk = func(start, left int) {
		if left == 0 {
			total++
			if p.SurvivesFailed(failed, set) {
				survived++
			}
			return
		}
		for i := start; i <= p.N-left; i++ {
			set.Set(i)
			failed = append(failed, i)
			walk(i+1, left-1)
			failed = failed[:len(failed)-1]
			set.Clear(i)
		}
	}
	walk(0, k)
	return survived / total
}

// mcShardTrials is the fixed Monte-Carlo shard size. Sharding is a
// function of the trial count alone — never of the worker count — so the
// estimate for a given (seed, trials) is bit-identical whether the shards
// run serially or across any number of goroutines.
const mcShardTrials = 4096

// MonteCarlo estimates the recovery probability under k simultaneous
// failures with the given number of uniformly random failure sets. The
// estimate is deterministic for a fixed seed: trials are partitioned into
// fixed-size shards, shard i draws from its own SplitMix64 stream seeded
// seed+i, and the per-shard survival counts are summed. Shards run on up
// to GOMAXPROCS goroutines; use MonteCarloWorkers to bound them.
func MonteCarlo(p *Placement, k, trials int, seed int64) float64 {
	return MonteCarloWorkers(p, k, trials, seed, 0)
}

// MonteCarloWorkers is MonteCarlo with an explicit worker bound
// (workers ≤ 0 means GOMAXPROCS). The result depends only on
// (p, k, trials, seed) — the worker count affects wall-clock time, never
// the estimate.
func MonteCarloWorkers(p *Placement, k, trials int, seed int64, workers int) float64 {
	if k < 0 || k > p.N {
		panic(fmt.Sprintf("placement: k=%d out of range [0,%d]", k, p.N))
	}
	if k == 0 || trials <= 0 {
		return 1
	}
	shards := (trials + mcShardTrials - 1) / mcShardTrials
	survived := parallel.SumInt64(workers, shards, func(shard int) int64 {
		n := mcShardTrials
		if shard == shards-1 {
			n = trials - shard*mcShardTrials
		}
		return mcShard(p, k, n, seed+int64(shard))
	})
	return float64(survived) / float64(trials)
}

// mcScratch is one shard's reusable trial state: the partial-Fisher–Yates
// permutation and the failure bitset. Shards check scratch out of a pool
// so steady-state Monte-Carlo trials allocate exactly 0 bytes (gated by
// TestMonteCarloShardSteadyStateAllocsZero, same discipline as the
// fabric engine's event scratch).
type mcScratch struct {
	perm []int
	set  FailSet
}

var mcScratchPool = sync.Pool{New: func() any { return new(mcScratch) }}

// reset sizes the scratch for n ranks and restores the state a freshly
// allocated shard would start from: an identity permutation and an empty
// failure set. Reinitializing the permutation keeps the RNG draw sequence
// — and therefore every estimate — bit-identical to the pre-pool kernel.
func (s *mcScratch) reset(n int) {
	if cap(s.perm) < n {
		s.perm = make([]int, n)
		s.set = NewFailSet(n)
	}
	s.perm = s.perm[:n]
	for i := range s.perm {
		s.perm[i] = i
	}
	s.set = s.set[:(n+63)>>6]
	s.set.Reset()
}

// mcShard runs one shard's trials on a private PRNG stream and pooled
// scratch state, returning the number of survived failure sets. Each
// trial draws k ranks by partial Fisher–Yates (the identical draw
// sequence the map-based kernel used), marks them in the bitset, and
// probes only those k ranks' replica sets — O(k·m) per trial instead of
// the old O(N) full-cluster scan.
func mcShard(p *Placement, k, trials int, seed int64) int64 {
	rng := newSplitMix(uint64(seed))
	scratch := mcScratchPool.Get().(*mcScratch)
	scratch.reset(p.N)
	perm, set := scratch.perm, scratch.set
	var survived int64
	for t := 0; t < trials; t++ {
		// Partial Fisher–Yates: draw the first k elements.
		for i := 0; i < k; i++ {
			j := i + int(rng.next()%uint64(p.N-i))
			perm[i], perm[j] = perm[j], perm[i]
			set.Set(perm[i])
		}
		if p.SurvivesFailed(perm[:k], set) {
			survived++
		}
		for i := 0; i < k; i++ {
			set.Clear(perm[i])
		}
	}
	mcScratchPool.Put(scratch)
	return survived
}

// splitMix is a tiny deterministic PRNG (SplitMix64), used instead of
// math/rand so probability estimates are stable across Go releases.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Theorem1Gap returns the paper's bound on how far the mixed strategy's
// recovery probability can fall below the optimum when m ∤ N:
// (2m−3)/C(N,m).
func Theorem1Gap(n, m int) float64 {
	return float64(2*m-3) / binomial(n, m)
}
