package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSummarizeEdgeTable(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name      string
		in        []float64
		wantPanic bool
		want      Summary
	}{
		{name: "empty", in: nil, wantPanic: true},
		{name: "all NaN", in: []float64{nan, nan}, wantPanic: true},
		{name: "single", in: []float64{7},
			want: Summary{N: 1, Mean: 7, Min: 7, Max: 7, P50: 7, P90: 7, P99: 7}},
		{name: "single negative", in: []float64{-3},
			want: Summary{N: 1, Mean: -3, Min: -3, Max: -3, P50: -3, P90: -3, P99: -3}},
		{name: "NaN ignored", in: []float64{nan, 2, nan, 4},
			want: Summary{N: 2, Mean: 3, Min: 2, Max: 4, P50: 3, P90: 3.8, P99: 3.98, StdDev: 1}},
		{name: "two equal", in: []float64{5, 5},
			want: Summary{N: 2, Mean: 5, Min: 5, Max: 5, P50: 5, P90: 5, P99: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wantPanic {
				defer func() {
					if recover() == nil {
						t.Fatal("no panic")
					}
				}()
				Summarize(tc.in)
				return
			}
			got := Summarize(tc.in)
			fields := []struct {
				name      string
				got, want float64
			}{
				{"Mean", got.Mean, tc.want.Mean}, {"Min", got.Min, tc.want.Min},
				{"Max", got.Max, tc.want.Max}, {"P50", got.P50, tc.want.P50},
				{"P90", got.P90, tc.want.P90}, {"P99", got.P99, tc.want.P99},
				{"StdDev", got.StdDev, tc.want.StdDev},
			}
			if got.N != tc.want.N {
				t.Errorf("N = %d, want %d", got.N, tc.want.N)
			}
			for _, f := range fields {
				if math.IsNaN(f.got) || math.Abs(f.got-f.want) > 1e-9 {
					t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

func TestPercentileTable(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"single p0", []float64{3}, 0, 3},
		{"single p100", []float64{3}, 1, 3},
		{"pair p0", []float64{1, 2}, 0, 1},
		{"pair p50", []float64{1, 2}, 0.5, 1.5},
		{"pair p100", []float64{1, 2}, 1, 2},
		{"triple exact index", []float64{1, 2, 3}, 0.5, 2},
		{"triple interpolated", []float64{0, 10, 20}, 0.25, 5},
	}
	for _, tc := range cases {
		if got := percentile(tc.sorted, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: percentile(%v, %v) = %v, want %v", tc.name, tc.sorted, tc.p, got, tc.want)
		}
	}
}

func TestRegistryNilIsDisabled(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Mean() != 0 ||
		h.Max() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments recorded something")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}

func TestRegistryDeduplicatesAndSnapshotOrder(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("flows")
	b := r.Counter("flows")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(2)
	r.Gauge("active").Set(7)
	h := r.Histogram("lat")
	h.Observe(1)
	h.Observe(1)
	cs := r.Snapshot()
	wantNames := []string{"flows", "active", "lat.count", "lat.mean", "lat.p50", "lat.p99", "lat.max"}
	if len(cs) != len(wantNames) {
		t.Fatalf("snapshot = %v", cs)
	}
	for i, w := range wantNames {
		if cs[i].Name != w {
			t.Fatalf("snapshot[%d] = %q, want %q (full: %v)", i, cs[i].Name, w, cs)
		}
	}
	if v, _ := cs.Get("flows"); v != 2 {
		t.Fatalf("flows = %v", v)
	}
	if v, _ := cs.Get("lat.count"); v != 2 {
		t.Fatalf("lat.count = %v", v)
	}
	out := cs.String()
	if !strings.Contains(out, "flows=2") || !strings.Contains(out, "active=7") {
		t.Fatalf("String() = %q", out)
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as gauge did not panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramStreaming(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{1, 2, 4, 8, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN())
	if h.Count() != 5 {
		t.Fatalf("count=%d, want 5 (NaN ignored)", h.Count())
	}
	if h.Sum() != 115 || h.Mean() != 23 || h.min != 1 || h.Max() != 100 {
		t.Fatalf("sum=%v mean=%v min=%v max=%v", h.Sum(), h.Mean(), h.min, h.Max())
	}
	// Quantiles are octave-approximate: check bucket-level accuracy.
	if q := h.Quantile(0.5); q < 2 || q > 8 {
		t.Fatalf("p50 = %v, want within [2, 8]", q)
	}
	if q := h.Quantile(1); q < 64 || q > 100 {
		t.Fatalf("p100 = %v, want within [64, 100]", q)
	}
	if q := h.Quantile(0); q < 1 || q > 2 {
		t.Fatalf("p0 = %v, want within [1, 2]", q)
	}
	// Zero, negative and extreme values must not fall outside the range.
	h2 := &Histogram{}
	h2.Observe(0)
	h2.Observe(-5)
	h2.Observe(1e300)
	if h2.Count() != 3 || h2.min != -5 || h2.Max() != 1e300 {
		t.Fatalf("h2: count=%d min=%v max=%v", h2.Count(), h2.min, h2.Max())
	}
	if q := h2.Quantile(0.5); math.IsNaN(q) || q < -5 || q > 1e300 {
		t.Fatalf("h2 p50 = %v outside observed range", q)
	}
}

func TestHistogramObserveAllocsZero(t *testing.T) {
	h := &Histogram{}
	if n := testing.AllocsPerRun(100, func() { h.Observe(3.7) }); n != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", n)
	}
}

// Pins the Snapshot ordering contract the Prometheus/CSV exporters rely
// on for byte-stability: instruments appear in registration order,
// whatever their kind and however interleaved their registration, with
// each histogram expanding to its five aggregates in place.
func TestSnapshotOrderIsRegistrationOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g1")
	r.Counter("c1")
	r.Histogram("h1").Observe(2)
	r.Gauge("g2")
	r.Counter("c2")
	// Re-lookups must not re-order.
	r.Counter("c1")
	r.Gauge("g1")
	want := []string{
		"g1", "c1",
		"h1.count", "h1.mean", "h1.p50", "h1.p99", "h1.max",
		"g2", "c2",
	}
	cs := r.Snapshot()
	if len(cs) != len(want) {
		t.Fatalf("snapshot has %d entries, want %d: %v", len(cs), len(want), cs)
	}
	for i, name := range want {
		if cs[i].Name != name {
			t.Fatalf("snapshot[%d] = %q, want %q (full: %v)", i, cs[i].Name, name, cs)
		}
	}
	// Two snapshots of the same registry render identically — the
	// byte-stability the export golden files build on.
	if a, b := r.Snapshot().String(), r.Snapshot().String(); a != b {
		t.Fatalf("snapshot rendering unstable:\n%s\n%s", a, b)
	}
}

// Quantile edge cases: out-of-range p values clamp, a single observation
// dominates every quantile, and empty histograms yield zeros everywhere.
func TestHistogramQuantileEdgeTable(t *testing.T) {
	single := &Histogram{}
	single.Observe(7)
	many := &Histogram{}
	for _, v := range []float64{1, 2, 4, 8} {
		many.Observe(v)
	}
	cases := []struct {
		name     string
		h        *Histogram
		p        float64
		min, max float64 // acceptable result range
	}{
		{"p<0 clamps to first observation", many, -0.5, 1, 2},
		{"p=0 behaves like the minimum", many, 0, 1, 2},
		{"p=1 is the maximum bucket", many, 1, 4, 8},
		{"p>1 clamps to the maximum", many, 2.5, 4, 8},
		{"single observation, p=0", single, 0, 7, 7},
		{"single observation, p=0.5", single, 0.5, 7, 7},
		{"single observation, p=1", single, 1, 7, 7},
	}
	for _, tc := range cases {
		if q := tc.h.Quantile(tc.p); q < tc.min || q > tc.max {
			t.Errorf("%s: Quantile(%v) = %v, want within [%v, %v]", tc.name, tc.p, q, tc.min, tc.max)
		}
	}
	empty := &Histogram{}
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", q)
	}
	if q := empty.Quantile(0); q != 0 {
		t.Errorf("empty Quantile(0) = %v, want 0", q)
	}
	if q := empty.Quantile(1); q != 0 {
		t.Errorf("empty Quantile(1) = %v, want 0", q)
	}
}

// Mean/Min/Max on an empty (or all-NaN) histogram are zero, not NaN —
// the health report prints them unconditionally.
func TestHistogramEmptyAggregates(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(*Histogram)
	}{
		{"empty", func(*Histogram) {}},
		{"all-NaN", func(h *Histogram) { h.Observe(math.NaN()); h.Observe(math.NaN()) }},
	} {
		h := &Histogram{}
		tc.prep(h)
		if h.Count() != 0 {
			t.Errorf("%s: count = %d, want 0", tc.name, h.Count())
		}
		for name, got := range map[string]float64{
			"Mean": h.Mean(), "Max": h.Max(), "Sum": h.Sum(), "Quantile(0.5)": h.Quantile(0.5),
		} {
			if got != 0 || math.IsNaN(got) {
				t.Errorf("%s: %s = %v, want 0", tc.name, name, got)
			}
		}
	}
}

// Merge determinism: merging the same per-run registries in the same
// order must yield byte-identical Snapshot/WriteProm renderings however
// the runs were computed — the contract campaign aggregation builds on.
func TestRegistryMergeDeterministic(t *testing.T) {
	mkRun := func(seed int) *Registry {
		r := NewRegistry()
		r.Counter("run.failures").Add(float64(seed))
		r.Gauge("run.effective_ratio").Set(1 / float64(seed+1))
		h := r.Histogram("run.wasted_seconds")
		for i := 0; i < seed+2; i++ {
			h.Observe(float64(30 * (i + seed)))
		}
		return r
	}
	merge := func() string {
		agg := NewRegistry()
		for seed := 0; seed < 4; seed++ {
			agg.Merge(mkRun(seed))
		}
		var buf strings.Builder
		if err := WriteProm(&buf, agg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := merge(), merge()
	if a != b {
		t.Fatalf("merge rendering unstable:\n%s\nvs:\n%s", a, b)
	}
	if !strings.Contains(a, "run_failures 6") {
		t.Fatalf("counters did not add across merges:\n%s", a)
	}
}

func TestHistogramMergeAggregates(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for _, v := range []float64{1, 8} {
		a.Observe(v)
	}
	for _, v := range []float64{0.25, 100} {
		b.Observe(v)
	}
	b.Observe(math.NaN())
	a.Merge(b)
	if a.Count() != 4 {
		t.Fatalf("count=%d, want 4 (NaN ignored)", a.Count())
	}
	if a.min != 0.25 || a.Max() != 100 || a.Sum() != 109.25 {
		t.Fatalf("min=%v max=%v sum=%v", a.min, a.Max(), a.Sum())
	}
	// Bucket counts added: p100 must now sit in b's top bucket range.
	if q := a.Quantile(1); q < 64 || q > 100 {
		t.Fatalf("merged p100 = %v, want within [64, 100]", q)
	}
}

// Merging into an empty histogram copies min/max instead of treating
// the receiver's zero values as observations.
func TestHistogramMergeIntoEmpty(t *testing.T) {
	src := &Histogram{}
	src.Observe(5)
	src.Observe(9)
	dst := &Histogram{}
	dst.Merge(src)
	if dst.Count() != 2 || dst.min != 5 || dst.Max() != 9 || dst.Sum() != 14 {
		t.Fatalf("merge into empty: count=%d min=%v max=%v sum=%v",
			dst.Count(), dst.min, dst.Max(), dst.Sum())
	}
	// Merging an empty source must not disturb the receiver.
	dst.Merge(&Histogram{})
	if dst.Count() != 2 || dst.min != 5 {
		t.Fatalf("merge of empty source disturbed receiver: count=%d min=%v",
			dst.Count(), dst.min)
	}
	// Nil combinations no-op.
	var nilH *Histogram
	nilH.Merge(src)
	dst.Merge(nil)
	if dst.Count() != 2 {
		t.Fatalf("nil merge disturbed receiver: count=%d", dst.Count())
	}
}

func TestRegistryMergeSemantics(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("c").Add(2)
	dst.Gauge("g").Set(1)

	src := NewRegistry()
	src.Counter("c").Add(3)
	src.Gauge("g").Set(0.5)
	src.Histogram("h").Observe(7)
	src.Counter("only_src").Inc()

	dst.Merge(src)
	if v := dst.Counter("c").Value(); v != 5 {
		t.Errorf("counter merged to %v, want 5 (add)", v)
	}
	if v := dst.Gauge("g").Value(); v != 0.5 {
		t.Errorf("gauge merged to %v, want 0.5 (last merged wins)", v)
	}
	if n := dst.Histogram("h").Count(); n != 1 {
		t.Errorf("histogram merged count %d, want 1", n)
	}
	if v := dst.Counter("only_src").Value(); v != 1 {
		t.Errorf("missing instrument not registered: %v", v)
	}
	// New instruments land after dst's own, in src order.
	var names []string
	dst.Visit(func(name string, _ *CounterVar, _ *Gauge, _ *Histogram) {
		names = append(names, name)
	})
	want := []string{"c", "g", "h", "only_src"}
	if len(names) != len(want) {
		t.Fatalf("order %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order %v, want %v", names, want)
		}
	}
	// Nil combinations no-op.
	var nilR *Registry
	nilR.Merge(src)
	dst.Merge(nil)
	nilR.Visit(func(string, *CounterVar, *Gauge, *Histogram) {
		t.Fatal("nil registry visited an instrument")
	})

	// Merge resolves each source instrument from the destination's next
	// slot before hashing. Whether or not the two line up, it must equal
	// resolving every source instrument by name, and merging the
	// destination and then the sources into a fresh registry.
	byName := func(dst, src *Registry) {
		src.Visit(func(name string, c *CounterVar, g *Gauge, h *Histogram) {
			switch {
			case c != nil:
				dst.Counter(name).Add(c.Value())
			case g != nil:
				dst.Gauge(name).Set(g.Value())
			default:
				dst.Histogram(name).Merge(h)
			}
		})
	}
	// build registers "kind:name" instruments in order, with values
	// drawn from seed.
	build := func(seed float64, insts ...string) *Registry {
		r := NewRegistry()
		for i, spec := range insts {
			kind, name, _ := strings.Cut(spec, ":")
			v := seed + float64(i)
			switch kind {
			case "c":
				r.Counter(name).Add(v)
			case "g":
				r.Gauge(name).Set(v / 4)
			case "h":
				h := r.Histogram(name)
				for j := 0.0; j < v; j++ {
					h.Observe(v*j + 0.5)
				}
			}
		}
		return r
	}
	render := func(r *Registry) string {
		var buf strings.Builder
		if err := WriteProm(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, tc := range []struct {
		name      string
		dst       []string
		srcs      [][]string
		wantPanic bool
	}{
		{name: "identical order", dst: []string{"c:a", "g:b", "h:c"},
			srcs: [][]string{{"c:a", "g:b", "h:c"}, {"c:a", "g:b", "h:c"}}},
		{name: "destination with extra instruments first", dst: []string{"c:x", "h:y", "c:a", "g:b", "h:c"},
			srcs: [][]string{{"c:a", "g:b", "h:c"}, {"c:a", "g:b", "h:c"}}},
		{name: "source in a different order", dst: []string{"c:a", "g:b", "h:c"},
			srcs: [][]string{{"h:c", "c:a", "g:b"}, {"g:b", "h:c", "c:a"}}},
		{name: "aligned prefix then a new name", dst: []string{"c:a", "g:b"},
			srcs: [][]string{{"c:a", "g:b", "h:new", "c:a2"}, {"c:a", "g:b", "h:new", "c:a2"}}},
		{name: "aligned prefix then a name registered elsewhere", dst: []string{"c:a", "g:b", "h:c"},
			srcs: [][]string{{"c:a", "h:c", "g:b"}}},
		{name: "a name aligned with a different kind", dst: []string{"c:a", "c:x"},
			srcs: [][]string{{"c:a", "h:x"}}, wantPanic: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sliced, named, fresh := build(2, tc.dst...), build(2, tc.dst...), NewRegistry()
			if tc.wantPanic {
				defer func() {
					if recover() == nil {
						t.Fatal("kind clash on an aligned name did not panic")
					}
				}()
				for k, insts := range tc.srcs {
					sliced.Merge(build(float64(3+k), insts...))
				}
				return
			}
			fresh.Merge(build(2, tc.dst...))
			for k, insts := range tc.srcs {
				src := build(float64(3+k), insts...)
				sliced.Merge(src)
				byName(named, src)
				fresh.Merge(src)
			}
			want := render(named)
			if got := render(sliced); got != want {
				t.Errorf("Merge renders differently from a by-name merge:\n%s\nvs:\n%s", got, want)
			}
			if got := render(fresh); got != want {
				t.Errorf("merging into a fresh registry renders differently:\n%s\nvs:\n%s", got, want)
			}
			if got, want := sliced.Snapshot(), named.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("Merge snapshot %v, by-name snapshot %v", got, want)
			}
			if got, want := fresh.Snapshot(), named.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("fresh-registry snapshot %v, by-name snapshot %v", got, want)
			}
		})
	}
}

func TestRegistryMergeKindClashPanics(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("x")
	src := NewRegistry()
	src.Gauge("x")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash on merge did not panic")
		}
	}()
	dst.Merge(src)
}

// A Reset registry is indistinguishable from a fresh one that
// registered the same names in the same order: merging either into an
// aggregate renders the same bytes, Reset keeps every registration, and
// re-resolving a name after Reset allocates nothing. Nil Reset no-ops.
func TestRegistryResetMergesLikeFresh(t *testing.T) {
	fill := func(r *Registry, seed float64) {
		r.Counter("run.failures").Add(seed)
		r.Gauge("run.level").Set(seed / 2)
		h := r.Histogram("run.wasted_seconds")
		for i := 0.0; i < seed+2; i++ {
			h.Observe(30*i + seed)
		}
		r.Histogram("run.untouched")
	}
	render := func(runs ...*Registry) string {
		agg := NewRegistry()
		for _, r := range runs {
			agg.Merge(r)
		}
		var buf strings.Builder
		if err := WriteProm(&buf, agg); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	recycled := NewRegistry()
	fill(recycled, 9)
	recycled.Histogram("run.wasted_seconds").Observe(math.Inf(1))
	recycled.Reset()
	if got := render(recycled); got != render(func() *Registry {
		r := NewRegistry()
		fill(r, 0)
		r.Reset()
		return r
	}()) {
		t.Fatalf("a reset registry does not render like a reset fresh one:\n%s", got)
	}
	var names []string
	recycled.Visit(func(name string, c *CounterVar, g *Gauge, h *Histogram) {
		names = append(names, name)
		if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
			t.Errorf("%s not zeroed by Reset", name)
		}
	})
	if want := "run.failures run.level run.wasted_seconds run.untouched"; strings.Join(names, " ") != want {
		t.Fatalf("Reset registrations %v, want %s", names, want)
	}
	if n := testing.AllocsPerRun(10, func() { recycled.Histogram("run.wasted_seconds") }); n != 0 {
		t.Fatalf("re-resolving a registered name after Reset allocates %v", n)
	}

	fresh := NewRegistry()
	fill(fresh, 3)
	fill(recycled, 3)
	other := NewRegistry()
	fill(other, 5)
	if a, b := render(fresh, other), render(recycled, other); a != b {
		t.Fatalf("a Reset registry merges differently from a fresh one:\n%s\nvs:\n%s", b, a)
	}

	var nilR *Registry
	nilR.Reset()
}

// The rollup's steady state allocates nothing: a warm merge of a run's
// registry into an aggregate that lines up with it, the Reset that
// recycles the run's registry, and re-resolving runsim's ten run.*
// names on the reset registry.
func TestRegistryMergeAllocsZero(t *testing.T) {
	counters := []string{"run.failures", "run.recoveries", "run.from_local", "run.from_peer", "run.from_remote"}
	histograms := []string{"run.wasted_seconds", "run.lost_seconds", "run.downtime_seconds", "run.effective_ratio", "run.stall_seconds"}
	run := NewRegistry()
	fill := func() {
		for i, name := range counters {
			run.Counter(name).Add(float64(i))
		}
		for i, name := range histograms {
			h := run.Histogram(name)
			h.Observe(float64(i) + 0.5)
			h.Observe(float64(1000 * i))
		}
	}
	fill()
	agg := NewRegistry()
	agg.Merge(run)
	run.Reset()
	if n := testing.AllocsPerRun(100, func() {
		fill()
		agg.Merge(run)
		run.Reset()
	}); n != 0 {
		t.Fatalf("a warm aligned Merge and Reset allocate %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, name := range counters {
			run.Counter(name)
		}
		for _, name := range histograms {
			run.Histogram(name)
		}
	}); n != 0 {
		t.Fatalf("re-resolving the run.* names on a reset registry allocates %.1f/op, want 0", n)
	}
}

// bucketIndex reads the exponent bits; it must place every value where
// the math.Ilogb formulation it replaced does.
func TestBucketIndexMatchesIlogb(t *testing.T) {
	ref := func(v float64) int {
		if v <= 0 {
			return 0
		}
		return min(max(math.Ilogb(v)+histOffset, 0), histBuckets-1)
	}
	lo, hi := math.Ldexp(1, -histOffset), math.Ldexp(1, histBuckets-histOffset-1)
	for _, v := range []float64{
		0, math.Copysign(0, -1), -1, -math.MaxFloat64, math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1060, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
		math.Nextafter(lo, 0), lo, math.Nextafter(lo, 1),
		0.1, 0.5, 1, 1.5, 2, 3, 1e6,
		math.Nextafter(hi, 0), hi, math.Nextafter(hi, math.Inf(1)), 2 * hi,
		math.MaxFloat64, math.Inf(1), math.NaN(),
	} {
		if got, want := bucketIndex(v), ref(v); got != want {
			t.Errorf("bucketIndex(%g) = %d, want %d", v, got, want)
		}
	}
}
