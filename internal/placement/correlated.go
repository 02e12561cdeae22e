package placement

import (
	"fmt"
	"math/bits"

	"gemini/internal/parallel"
)

// This file extends the §4 probability analysis from independent machine
// failures to correlated ones: machines sharing a rack (a power feed, a
// top-of-rack switch) fail together. Under that model the group strategy
// of Algorithm 1 is fragile exactly when a checkpoint group is co-located
// in one rack, which motivates the rack-aware variant below.

// KindRackAware is the rack-aware group strategy: every checkpoint group
// spans m distinct racks, so no single rack failure can erase all
// replicas of any shard.
const KindRackAware Kind = "rack-aware"

// Racks partitions ranks [0,n) into contiguous racks of rackSize: rack r
// holds ranks r·rackSize … (r+1)·rackSize−1. rackSize must divide n.
func Racks(n, rackSize int) ([][]int, error) {
	if n < 1 {
		return nil, fmt.Errorf("placement: need at least one machine, got %d", n)
	}
	if rackSize < 1 || n%rackSize != 0 {
		return nil, fmt.Errorf("placement: rack size %d must be positive and divide n=%d", rackSize, n)
	}
	out := make([][]int, n/rackSize)
	for r := range out {
		rack := make([]int, rackSize)
		for i := range rack {
			rack[i] = r*rackSize + i
		}
		out[r] = rack
	}
	return out, nil
}

// RackAware builds a group placement in which each group takes one member
// from each of m consecutive racks: racks are processed in blocks of m,
// and within block b, slot s of every rack forms a group. It requires
// rackSize | n and m | (n / rackSize).
func RackAware(n, m, rackSize int) (*Placement, error) {
	if err := checkArgs(n, m); err != nil {
		return nil, err
	}
	if rackSize < 1 || n%rackSize != 0 {
		return nil, fmt.Errorf("placement: rack size %d must be positive and divide n=%d", rackSize, n)
	}
	numRacks := n / rackSize
	if numRacks%m != 0 {
		return nil, fmt.Errorf("placement: rack-aware strategy needs m | racks, got racks=%d m=%d", numRacks, m)
	}
	p := newPlacement(n, m, KindRackAware)
	for b := 0; b < numRacks/m; b++ {
		for s := 0; s < rackSize; s++ {
			group := make([]int, m)
			for t := 0; t < m; t++ {
				group[t] = (b*m+t)*rackSize + s
			}
			p.Groups = append(p.Groups, group)
			for _, rank := range group {
				copy(p.replicaSet(rank), group)
			}
		}
	}
	return p, nil
}

// MustRackAware is RackAware, panicking on error.
func MustRackAware(n, m, rackSize int) *Placement {
	p, err := RackAware(n, m, rackSize)
	if err != nil {
		panic(err)
	}
	return p
}

// CorrelatedProbability computes the probability that the placement
// survives k whole-rack failures: every k-subset of racks is equally
// likely, all machines in a failed rack fail together, and survival is
// Survives over the union. It is the rack-level analogue of
// BitmaskProbability and needs at most 31 racks.
func CorrelatedProbability(p *Placement, racks [][]int, k int) (float64, error) {
	if len(racks) > 31 {
		return 0, fmt.Errorf("placement: correlated enumeration needs ≤ 31 racks, got %d", len(racks))
	}
	if k < 0 || k > len(racks) {
		return 0, fmt.Errorf("placement: failed-rack count k=%d out of range [0,%d]", k, len(racks))
	}
	seen := make([]bool, p.N)
	for ri, rack := range racks {
		for _, rank := range rack {
			if rank < 0 || rank >= p.N {
				return 0, fmt.Errorf("placement: rack %d member %d out of range [0,%d)", ri, rank, p.N)
			}
			if seen[rank] {
				return 0, fmt.Errorf("placement: rank %d appears in two racks", rank)
			}
			seen[rank] = true
		}
	}
	for rank, ok := range seen {
		if !ok {
			return 0, fmt.Errorf("placement: rank %d missing from rack list", rank)
		}
	}
	failureSets := kSubsets(len(racks), k)
	// Shard the enumeration into fixed-size chunks of the subset list and
	// count survivals per chunk on private bitset scratch. The chunking
	// depends only on len(failureSets), and summing exact integer counts
	// is order-independent, so the probability is identical for any
	// worker count — same discipline as MonteCarloWorkers.
	const chunk = 1 << 12
	chunks := (len(failureSets) + chunk - 1) / chunk
	survived := parallel.SumInt64(0, chunks, func(c int) int64 {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > len(failureSets) {
			hi = len(failureSets)
		}
		failSet := NewFailSet(p.N)
		failed := make([]int, 0, p.N)
		var n int64
		for _, set := range failureSets[lo:hi] {
			for _, rank := range failed {
				failSet.Clear(rank)
			}
			failed = failed[:0]
			rem := set
			for rem != 0 {
				rack := bits.TrailingZeros32(rem)
				rem &= rem - 1
				for _, rank := range racks[rack] {
					failSet.Set(rank)
					failed = append(failed, rank)
				}
			}
			if p.SurvivesFailed(failed, failSet) {
				n++
			}
		}
		return n
	})
	return float64(survived) / float64(len(failureSets)), nil
}

// WorstCorrelatedK returns the smallest number of simultaneous rack
// failures that can make recovery impossible for some choice of racks
// (i.e. the first k with CorrelatedProbability < 1), or 0 if even losing
// every rack is survivable (only possible for trivial placements).
func WorstCorrelatedK(p *Placement, racks [][]int) (int, error) {
	for k := 1; k <= len(racks); k++ {
		prob, err := CorrelatedProbability(p, racks, k)
		if err != nil {
			return 0, err
		}
		if prob < 1 {
			return k, nil
		}
	}
	return 0, nil
}

// RackSpan returns, for diagnostics, the minimum and maximum number of
// distinct racks any single checkpoint group spans. A min span of 1
// means some group can be erased by one rack failure.
func RackSpan(p *Placement, racks [][]int) (minSpan, maxSpan int) {
	rackOf := make(map[int]int)
	for ri, rack := range racks {
		for _, rank := range rack {
			rackOf[rank] = ri
		}
	}
	minSpan, maxSpan = -1, 0
	for rank := 0; rank < p.N; rank++ {
		set := map[int]bool{}
		for _, r := range p.Replicas(rank) {
			set[rackOf[r]] = true
		}
		span := len(set)
		if minSpan < 0 || span < minSpan {
			minSpan = span
		}
		if span > maxSpan {
			maxSpan = span
		}
	}
	if minSpan < 0 {
		minSpan = 0
	}
	return minSpan, maxSpan
}
