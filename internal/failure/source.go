package failure

// source is math/rand's v1 generator — the additive lagged Fibonacci
// generator behind rand.NewSource, x[n] = x[n−607] + x[n−273] mod 2^64 —
// reimplemented so that seeding is cheap enough to do once per campaign
// variation. Its Int63 and Uint64 streams are bit-identical to
// rand.NewSource(seed)'s for every seed (TestSourceMatchesMathRand), so
// schedules generated through it equal the ones math/rand would draw.
//
// What differs is Seed. math/rand fills the 607-word state from 1,841
// serial steps of the Park–Miller generator x ↦ 48271·x mod (2^31−1),
// each a Schrage division waiting on the one before. Step n from x0 is
// simply x0·48271^n mod (2^31−1), so with the powers tabulated once every
// step is one independent multiply and two Mersenne folds. The state is
// then the same XOR of three steps with math/rand's "cooked" table that
// rngSource.Seed computes. That table is not copied here: init recovers
// it from the first 607 outputs of rand.NewSource(1) by running the
// lagged recurrence backwards.

import "math/rand"

const (
	srcLen  = 607 // lag
	srcTap  = 273 // tap
	srcMask = 1<<63 - 1
	// int32max is the Park–Miller modulus 2^31−1, a Mersenne prime.
	int32max = 1<<31 - 1
	// seedSkip is how many Park–Miller steps Seed discards before the
	// first state word; seedSteps is the total it takes.
	seedSkip  = 20
	seedSteps = seedSkip + 3*srcLen
)

var (
	// seedPow[n] = 48271^n mod (2^31−1).
	seedPow [seedSteps + 1]uint64
	// cooked is math/rand's rngCooked table, recovered at init.
	cooked [srcLen]int64
)

func init() {
	seedPow[0] = 1
	for n := 1; n <= seedSteps; n++ {
		seedPow[n] = mulMod(seedPow[n-1], 48271)
	}

	// After Seed, math/rand's first call reads tap 606 and feeds slot
	// 333, then both indices walk down by one per call, so the first 607
	// outputs write every slot exactly once. Output k rewrites slot
	// feed(k) = (333−k) mod 607 to its old value plus slot 606−k, which
	// output k−273 has already rewritten when k ≥ 273 and still holds its
	// seeded value otherwise. Subtracting recovers the seeded state.
	src := rand.NewSource(1).(rand.Source64)
	var out [srcLen]int64
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	feed := func(k int) int { return (srcLen - srcTap - 1 - k + srcLen) % srcLen }
	var state [srcLen]int64
	for k := srcTap; k < srcLen; k++ {
		state[feed(k)] = out[k] - out[k-srcTap]
	}
	for k := 0; k < srcTap; k++ {
		state[feed(k)] = out[k] - state[srcLen-1-k]
	}
	// With cooked still zero, Seed(1) leaves the bare Park–Miller words.
	var s source
	s.Seed(1)
	for i := range cooked {
		cooked[i] = state[i] ^ s.vec[i]
	}
}

// mulMod returns a·b mod (2^31−1) for a, b in [1, 2^31−1). Since
// 2^31 ≡ 1, two folds take the 62-bit product to at most 2^31−1, and
// that value would mean a residue of 0, which the product of two
// nonzero residues of a prime never has: the result is fully reduced.
func mulMod(a, b uint64) uint64 {
	p := a * b
	p = p>>31 + p&int32max
	return p>>31 + p&int32max
}

type source struct {
	tap, feed int
	vec       [srcLen]int64
}

// Seed puts the generator in the state rand.NewSource(seed) starts in.
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = srcLen - srcTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		n := seedSkip + 3*i
		u := mulMod(x, seedPow[n+1]) << 40
		u ^= mulMod(x, seedPow[n+2]) << 20
		u ^= mulMod(x, seedPow[n+3])
		s.vec[i] = int64(u) ^ cooked[i]
	}
}

func (s *source) Int63() int64 { return int64(s.Uint64() & srcMask) }

func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
