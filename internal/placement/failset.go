package placement

// FailSet is a bitset over machine ranks, the allocation-free failure-set
// representation used by the availability kernel. A FailSet for N ranks
// has ⌈N/64⌉ words; rank i lives at bit i&63 of word i>>6.
//
// The zero-length FailSet is valid and empty. Mutators do not bounds-check
// beyond the slice itself: callers size the set with NewFailSet(n) and
// pass ranks in [0,n).
type FailSet []uint64

// NewFailSet returns an empty FailSet able to hold ranks [0,n).
func NewFailSet(n int) FailSet { return make(FailSet, (n+63)>>6) }

// Set marks rank i failed.
func (s FailSet) Set(i int) { s[i>>6] |= 1 << (uint(i) & 63) }

// Clear marks rank i healthy.
func (s FailSet) Clear(i int) { s[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether rank i is failed.
func (s FailSet) Has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }

// Reset clears every rank in O(words).
func (s FailSet) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// failSetOf converts a map-based failure set into (failed-rank list,
// bitset) form for the kernel. Only the compatibility wrappers pay this
// conversion; hot paths keep a FailSet and a rank list directly.
func failSetOf(n int, failed map[int]bool) ([]int, FailSet) {
	set := NewFailSet(n)
	list := make([]int, 0, len(failed))
	for rank, ok := range failed {
		if !ok || rank < 0 || rank >= n {
			continue
		}
		if !set.Has(rank) {
			set.Set(rank)
			list = append(list, rank)
		}
	}
	return list, set
}
