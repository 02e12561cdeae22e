package metrics

// Registry unifies the repo's counter story: where CounterSet is a
// finished, ordered snapshot (what Fabric.Stats returns), a Registry
// holds the *live* instruments a run updates — monotonic counters,
// gauges, and streaming histograms — and renders them into a CounterSet
// on demand. Like trace.Tracer it is a per-run sink: not safe for
// concurrent use, give each run its own and merge/print after the run.
//
// A nil *Registry is the disabled registry: it hands out nil instruments
// whose update methods no-op without allocating, so hot paths can update
// metrics unconditionally.

import (
	"fmt"
	"math"
)

// CounterVar is a monotonically increasing counter. Nil no-ops.
type CounterVar struct{ v float64 }

// Inc adds 1.
func (c *CounterVar) Inc() { c.Add(1) }

// Add increases the counter by delta.
func (c *CounterVar) Add(delta float64) {
	if c == nil {
		return
	}
	c.v += delta
}

// Value returns the current count; 0 for nil.
func (c *CounterVar) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins instrument. Nil no-ops.
type Gauge struct{ v float64 }

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the last set value; 0 for nil.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets spans 2^-48 … 2^47 in base-2 exponential buckets — wide
// enough for everything the simulator measures (sub-microsecond spans to
// multi-day horizons) in fixed memory.
const (
	histBuckets = 96
	histOffset  = 48
)

// Histogram is a streaming base-2 exponential histogram: Observe is
// O(1), allocation-free, and keeps exact count/sum/min/max alongside
// bucket counts for approximate quantiles (≤ one octave of error,
// clamped to the observed [min, max]). Zero and negative observations
// land in the lowest bucket; NaN observations are ignored. Nil no-ops.
//
// Every nonzero bucket lies in [lo, hi), so Merge and reset touch only
// the buckets a histogram occupies rather than all 96; the range is
// empty (lo = hi = 0) exactly when count is 0.
type Histogram struct {
	count    uint64
	sum      float64
	min, max float64
	lo, hi   int
	buckets  [histBuckets]uint64
}

// bucketIndex reads v's binary exponent straight from its bits. That
// equals math.Ilogb for every normal v; a subnormal reads as -1023 where
// Ilogb would go lower, and both clamp to bucket 0. +Inf and NaN read as
// 1024 (Ilogb: MaxInt32) and clamp to the top bucket.
func bucketIndex(v float64) int {
	if v <= 0 {
		return 0
	}
	i := int(math.Float64bits(v)>>52&0x7ff) - 1023 + histOffset
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	i := bucketIndex(v)
	h.occupy(i, i+1)
	h.count++
	h.sum += v
	h.buckets[i]++
}

// occupy widens the occupied range to cover [lo, hi). It must run
// before count grows, while an empty histogram still reads as empty.
func (h *Histogram) occupy(lo, hi int) {
	if h.count == 0 {
		h.lo, h.hi = lo, hi
		return
	}
	h.lo = min(h.lo, lo)
	h.hi = max(h.hi, hi)
}

// reset empties h, clearing only its occupied buckets.
func (h *Histogram) reset() {
	clear(h.buckets[h.lo:h.hi])
	h.count, h.sum, h.min, h.max, h.lo, h.hi = 0, 0, 0, 0, 0, 0
}

// Count returns the number of non-NaN observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of observations; 0 for nil or empty.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the exact mean; 0 for nil or empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation; 0 for nil or empty.
func (h *Histogram) Max() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Merge folds src's observations into h: counts, sums and bucket
// counts add over src's occupied range; min/max combine. Merging the
// same histograms in the same order always produces the identical
// result, which is what makes campaign rollups worker-count
// independent (the campaign merges per-run histograms in variation
// order as that prefix completes). Nil receiver or nil src no-ops.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil || src.count == 0 {
		return
	}
	if h.count == 0 || src.min < h.min {
		h.min = src.min
	}
	if h.count == 0 || src.max > h.max {
		h.max = src.max
	}
	h.occupy(src.lo, src.hi)
	h.count += src.count
	h.sum += src.sum
	for i := src.lo; i < src.hi; i++ {
		h.buckets[i] += src.buckets[i]
	}
}

// Quantile returns the approximate p-quantile (p in [0, 1]): the
// geometric midpoint of the bucket holding the p-th observation, clamped
// to the observed range. 0 for nil or empty.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	// Clamp p before the uint64 conversion: a negative product converts
	// implementation-defined (in practice to a huge rank, silently turning
	// Quantile(-0.1) into the maximum).
	if math.IsNaN(p) || p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= rank {
			// Bucket i spans [2^(i-histOffset), 2^(i-histOffset+1)).
			mid := math.Ldexp(1.5, i-histOffset)
			return math.Min(h.max, math.Max(h.min, mid))
		}
	}
	return h.max
}

type instrumentKind int

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
)

type instrument struct {
	name string
	kind instrumentKind
	c    *CounterVar
	g    *Gauge
	h    *Histogram
}

// merge folds src, an instrument of the same kind, into in.
func (in instrument) merge(src instrument) {
	switch src.kind {
	case kindCounter:
		in.c.Add(src.c.Value())
	case kindGauge:
		in.g.Set(src.g.Value())
	case kindHistogram:
		in.h.Merge(src.h)
	}
}

// Registry holds named instruments in registration order.
type Registry struct {
	order []instrument
	index map[string]int
	// next is the slot after the one resolve last returned; Reset
	// rewinds it. A recycled registry is re-resolved in registration
	// order, so resolve tries it before hashing. Because resolve writes
	// it, even resolving names is not safe from two goroutines at once.
	next int
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// resolve returns the named instrument's slot, registering one of the
// given kind on first use; a name registered with another kind panics.
func (r *Registry) resolve(name string, kind instrumentKind) int {
	i := r.next
	if i >= len(r.order) || r.order[i].name != name || r.order[i].kind != kind {
		i = r.slot(name, kind)
	}
	r.next = i + 1
	return i
}

// slot is resolve's path when the slot after the last one resolved
// does not hold name: it finds name by hashing or registers it.
func (r *Registry) slot(name string, kind instrumentKind) int {
	i, ok := r.index[name]
	if !ok {
		return r.register(name, kind)
	}
	if r.order[i].kind != kind {
		panic(fmt.Sprintf("metrics: %q already registered with a different type", name))
	}
	return i
}

// register appends a new instrument and returns its slot.
func (r *Registry) register(name string, kind instrumentKind) int {
	in := instrument{name: name, kind: kind}
	switch kind {
	case kindCounter:
		in.c = &CounterVar{}
	case kindGauge:
		in.g = &Gauge{}
	case kindHistogram:
		in.h = &Histogram{}
	}
	r.index[name] = len(r.order)
	r.order = append(r.order, in)
	return len(r.order) - 1
}

// Counter returns the named counter, registering it on first use.
// A nil registry returns a nil (disabled) counter.
func (r *Registry) Counter(name string) *CounterVar {
	if r == nil {
		return nil
	}
	return r.order[r.resolve(name, kindCounter)].c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.order[r.resolve(name, kindGauge)].g
}

// Histogram returns the named histogram, registering it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.order[r.resolve(name, kindHistogram)].h
}

// Reset zeroes every instrument and keeps its registrations, so a
// recycled registry resolves the same names by lookup without
// allocating and renders, merges and snapshots exactly like a fresh
// registry that registered the same names in the same order. Nil
// no-ops.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.next = 0
	for _, in := range r.order {
		switch in.kind {
		case kindCounter:
			*in.c = CounterVar{}
		case kindGauge:
			*in.g = Gauge{}
		case kindHistogram:
			in.h.reset()
		}
	}
}

// Merge folds src into r: counters add, histograms merge bucket-wise,
// gauges take src's value (last merged wins). Instruments missing from
// r are registered in src order, so merging the same sources in the
// same order yields a registry whose Snapshot and WriteProm renderings
// are byte-identical — the determinism contract campaign aggregation
// relies on. A name registered with different kinds panics, same as
// the accessors. Nil receiver or nil src no-ops.
//
// Merge resolves src's instruments in src order from r's first slot,
// so where r registered the same names in the same order — a rollup
// and the recycled per-run registries it merges — every instrument
// resolves to r's next slot without hashing.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	r.next = 0
	for _, in := range src.order {
		r.order[r.resolve(in.name, in.kind)].merge(in)
	}
}

// Visit calls f for every instrument in registration order; exactly one
// of c, g, h is non-nil per call. It exposes instrument kinds without
// flattening (Snapshot forgets them), which report builders need to
// render histograms as distribution rows. Nil no-ops.
func (r *Registry) Visit(f func(name string, c *CounterVar, g *Gauge, h *Histogram)) {
	if r == nil {
		return
	}
	for _, in := range r.order {
		f(in.name, in.c, in.g, in.h)
	}
}

// Snapshot renders every instrument into a CounterSet in registration
// order. Counters and gauges emit name=value; a histogram expands to
// name.count, name.mean, name.p50, name.p99, and name.max. Nil yields
// nil.
func (r *Registry) Snapshot() CounterSet {
	if r == nil {
		return nil
	}
	var cs CounterSet
	for _, in := range r.order {
		switch in.kind {
		case kindCounter:
			cs = append(cs, Counter{Name: in.name, Value: in.c.Value()})
		case kindGauge:
			cs = append(cs, Counter{Name: in.name, Value: in.g.Value()})
		case kindHistogram:
			cs = append(cs,
				Counter{Name: in.name + ".count", Value: float64(in.h.Count())},
				Counter{Name: in.name + ".mean", Value: in.h.Mean()},
				Counter{Name: in.name + ".p50", Value: in.h.Quantile(0.50)},
				Counter{Name: in.name + ".p99", Value: in.h.Quantile(0.99)},
				Counter{Name: in.name + ".max", Value: in.h.Max()},
			)
		}
	}
	return cs
}
