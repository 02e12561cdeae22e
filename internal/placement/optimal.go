package placement

import (
	"fmt"
	"math/bits"
)

// This file contains the brute-force optimality search used to validate
// Theorem 1 empirically: over *every* possible placement (each machine
// choosing any m-subset containing itself to hold its checkpoint), find
// the maximum recovery probability under k simultaneous failures. The
// search space is C(N−1, m−1)^N, so this is strictly a small-N
// verification tool; the production strategy is Mixed.

// OptimalProbability exhaustively searches all placements of m replicas
// per machine (each including the owner) over n ≤ 16 machines, and
// returns the best achievable recovery probability under k simultaneous
// failures. Panics if the search space is unreasonably large.
func OptimalProbability(n, m, k int) float64 {
	if err := checkArgs(n, m); err != nil {
		panic(err)
	}
	if n > 16 {
		panic(fmt.Sprintf("placement: optimal search over n=%d machines is infeasible", n))
	}
	choices := subsetsContaining(n, m)
	if cost := pow(len(choices), n); cost > 50_000_000 {
		panic(fmt.Sprintf("placement: optimal search space %d too large", cost))
	}
	failureSets := kSubsets(n, k)

	assignment := make([]uint32, n)
	best := -1.0
	var walk func(rank int)
	walk = func(rank int) {
		if rank == n {
			if p := survivalFraction(assignment, failureSets); p > best {
				best = p
			}
			return
		}
		for _, mask := range choices[rank] {
			assignment[rank] = mask
			walk(rank + 1)
		}
	}
	walk(0)
	return best
}

// survivalFraction returns the fraction of the failure sets the bitmask
// placement survives.
func survivalFraction(replicas []uint32, failureSets []uint32) float64 {
	survived := 0
	for _, failed := range failureSets {
		ok := true
		rem := failed
		for rem != 0 {
			rank := bits.TrailingZeros32(rem)
			rem &= rem - 1
			if replicas[rank]&^failed == 0 {
				ok = false
				break
			}
		}
		if ok {
			survived++
		}
	}
	return float64(survived) / float64(len(failureSets))
}

// BitmaskProbability computes the recovery probability of a Placement
// under k failures using bitmask enumeration — the same result as
// ExactProbability but considerably faster, for n ≤ 31 (the subset
// generator works in uint32 space). Like ExactProbability it panics on
// k outside [0, n].
func BitmaskProbability(p *Placement, k int) float64 {
	if p.N > 31 {
		panic(fmt.Sprintf("placement: bitmask enumeration needs n ≤ 31, got %d", p.N))
	}
	if k < 0 || k > p.N {
		panic(fmt.Sprintf("placement: k=%d out of range [0,%d]", k, p.N))
	}
	replicas := make([]uint32, p.N)
	for i := 0; i < p.N; i++ {
		var mask uint32
		for _, r := range p.Replicas(i) {
			mask |= 1 << uint(r)
		}
		replicas[i] = mask
	}
	return survivalFraction(replicas, kSubsets(p.N, k))
}

// subsetsContaining returns, per rank, every m-subset bitmask of [0,n)
// containing that rank.
func subsetsContaining(n, m int) [][]uint32 {
	all := kSubsets(n, m)
	out := make([][]uint32, n)
	for _, mask := range all {
		for rank := 0; rank < n; rank++ {
			if mask&(1<<uint(rank)) != 0 {
				out[rank] = append(out[rank], mask)
			}
		}
	}
	return out
}

// kSubsets enumerates all k-subsets of [0,n) as bitmasks, in ascending
// mask order via Gosper's hack.
func kSubsets(n, k int) []uint32 {
	if k == 0 {
		return []uint32{0}
	}
	var out []uint32
	limit := uint32(1) << uint(n)
	v := uint32(1)<<uint(k) - 1
	for v < limit {
		out = append(out, v)
		// Gosper's hack: next integer with the same popcount.
		c := v & -v
		r := v + c
		v = (((r ^ v) >> 2) / c) | r
		if r == 0 {
			break
		}
	}
	return out
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
		if out < 0 || out > 1<<62 {
			return 1 << 62
		}
	}
	return out
}
