package metrics

import (
	"math"
	"math/rand"
	"testing"
)

// refHistogram is the histogram before it tracked its occupied range:
// Merge adds all 96 buckets.
type refHistogram struct {
	count    uint64
	sum      float64
	min, max float64
	buckets  [histBuckets]uint64
}

func (h *refHistogram) observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

func (h *refHistogram) merge(src *refHistogram) {
	if src.count == 0 {
		return
	}
	if h.count == 0 || src.min < h.min {
		h.min = src.min
	}
	if h.count == 0 || src.max > h.max {
		h.max = src.max
	}
	h.count += src.count
	h.sum += src.sum
	for i, n := range src.buckets {
		h.buckets[i] += n
	}
}

// sameFloat compares bit patterns, so NaN sums (+Inf plus -Inf) and
// signed zeros must agree too.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkOccupied reports how h breaks the occupied-range invariant or
// differs from ref.
func checkOccupied(t *testing.T, step int, op string, h *Histogram, ref *refHistogram) {
	t.Helper()
	if h.lo < 0 || h.lo > h.hi || h.hi > histBuckets {
		t.Fatalf("step %d (%s): occupied range [%d, %d) out of bounds", step, op, h.lo, h.hi)
	}
	if h.count == 0 && (h.lo != 0 || h.hi != 0) {
		t.Fatalf("step %d (%s): empty histogram has range [%d, %d)", step, op, h.lo, h.hi)
	}
	for i, n := range h.buckets {
		if n != 0 && (i < h.lo || i >= h.hi) {
			t.Fatalf("step %d (%s): bucket %d holds %d outside the range [%d, %d)", step, op, i, n, h.lo, h.hi)
		}
	}
	if h.count != ref.count || !sameFloat(h.sum, ref.sum) ||
		!sameFloat(h.min, ref.min) || !sameFloat(h.max, ref.max) || h.buckets != ref.buckets {
		t.Fatalf("step %d (%s): histogram differs from the full-scan reference:\ngot  count=%d sum=%v min=%v max=%v buckets=%v\nwant count=%d sum=%v min=%v max=%v buckets=%v",
			step, op, h.count, h.sum, h.min, h.max, h.buckets, ref.count, ref.sum, ref.min, ref.max, ref.buckets)
	}
}

// The occupied range is an optimisation only: over seeded random
// sequences of Observe, Merge (into and from empty histograms, and of a
// histogram into itself) and reset, every histogram matches a reference
// that scans all 96 buckets, keeps every nonzero bucket inside its
// range, and resets to exactly Histogram{}.
func TestHistogramOccupiedRangeProperty(t *testing.T) {
	lo, hi := math.Ldexp(1, -histOffset), math.Ldexp(1, histBuckets-histOffset)
	specials := []float64{
		0, math.Copysign(0, -1), -1, -1e300, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1050, math.Nextafter(0x1p-1022, 0),
		lo / 1e6, math.Nextafter(lo, 0), lo, hi, hi * 1e6, math.MaxFloat64,
	}
	value := func(rng *rand.Rand) float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		// Log-uniform over the bucket span and a little past both ends.
		return math.Ldexp(1+rng.Float64(), rng.Intn(histBuckets+8)-histOffset-4)
	}
	const slots = 4
	var intoEmpty, fromEmpty int
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var hs [slots]Histogram
		var refs [slots]refHistogram
		for step := 0; step < 400; step++ {
			k := rng.Intn(slots)
			var op string
			switch r := rng.Intn(10); {
			case r < 6:
				op = "observe"
				v := value(rng)
				hs[k].Observe(v)
				refs[k].observe(v)
			case r < 9:
				op = "merge"
				m := rng.Intn(slots)
				if hs[k].count == 0 && hs[m].count > 0 {
					intoEmpty++
				}
				if hs[m].count == 0 {
					fromEmpty++
				}
				hs[k].Merge(&hs[m])
				refs[k].merge(&refs[m])
			default:
				op = "reset"
				hs[k].reset()
				refs[k] = refHistogram{}
				if hs[k] != (Histogram{}) {
					t.Fatalf("seed %d step %d: reset histogram is not Histogram{}", seed, step)
				}
			}
			checkOccupied(t, step, op, &hs[k], &refs[k])
		}
	}
	if intoEmpty == 0 || fromEmpty == 0 {
		t.Fatalf("%d merges into an empty histogram and %d from one; both must occur", intoEmpty, fromEmpty)
	}
}
