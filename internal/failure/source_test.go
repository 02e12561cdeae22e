package failure

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

// The generator must be math/rand's, bit for bit: every schedule a seed
// ever produced stays the one it produces. This fails if math/rand's v1
// source ever changes underneath the recovered table.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 89482311, -89482311,
		int32max, -int32max, int32max - 1, -(int32max - 1), int32max + 1, 1 << 31,
		1 << 40, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	pick := rand.New(rand.NewSource(20261017))
	for len(seeds) < 3000 {
		switch len(seeds) % 3 {
		case 0:
			seeds = append(seeds, pick.Int63n(int32max)) // every residue class
		case 1:
			seeds = append(seeds, -pick.Int63())
		default:
			seeds = append(seeds, int64(pick.Uint64()))
		}
	}
	const draws = 2000
	var s source
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for k := 0; k < draws; k++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, math/rand %#x", seed, k, got, want)
			}
		}
		for k := 0; k < draws; k++ {
			if got, want := s.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d = %#x, math/rand %#x", seed, k, got, want)
			}
		}
	}
}

// referenceGenerate is Generate as it was written against math/rand.
func referenceGenerate(m Model, n int, horizon simclock.Duration, seed int64) Schedule {
	rate := m.ClusterFailuresPerDay(n) / simclock.Day.Seconds()
	rng := rand.New(rand.NewSource(seed))
	var out Schedule
	if rate > 0 {
		t := simclock.Time(0)
		for {
			t = t.Add(simclock.Duration(rng.ExpFloat64() / rate))
			if t >= simclock.Time(horizon) {
				break
			}
			kind := cluster.SoftwareFailed
			if rng.Float64() < m.HardwareFraction {
				kind = cluster.HardwareFailed
			}
			out = append(out, Event{At: t, Rank: rng.Intn(n), Kind: kind})
		}
	}
	return out
}

// Generate and AppendGenerate into a dirty, reused buffer equal the
// math/rand reference for every rate, hardware fraction, size and
// horizon. The cases run on concurrent goroutines, so under -race the
// generator pool is exercised too.
func TestGenerateMatchesReference(t *testing.T) {
	type tc struct {
		m       Model
		n       int
		horizon simclock.Duration
		seed    int64
	}
	var cases []tc
	for _, rate := range []float64{0, 0.001, 0.015, 0.3, 1} {
		for _, hw := range []float64{0, 0.5, 1} {
			for _, n := range []int{1, 7, 1000, 1024} {
				for _, h := range []simclock.Duration{0, simclock.Hour, 10 * simclock.Day} {
					cases = append(cases, tc{Model{PerInstancePerDay: rate, HardwareFraction: hw}, n, h, int64(len(cases)*7919 - 500)})
				}
			}
		}
	}
	// More machines than Int31n takes: ranks come from Intn's 63-bit path.
	cases = append(cases, tc{Model{PerInstancePerDay: 1e-9, HardwareFraction: 0.5}, 1 << 33, 30 * simclock.Day, 99})
	const workers = 4
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A dirty buffer: stale events past its length.
			buf := make(Schedule, 0, 64)
			for i := w; i < len(cases); i += workers {
				c := cases[i]
				want := referenceGenerate(c.m, c.n, c.horizon, c.seed)
				got, err := c.m.Generate(c.n, c.horizon, c.seed)
				if err != nil || !reflect.DeepEqual(got, want) {
					errs[w] = fmt.Errorf("case %+v: Generate = %d events (err %v), reference %d", c, len(got), err, len(want))
					return
				}
				buf = append(buf[:0], Event{At: -1, Rank: -1}, Event{At: -2, Rank: -2})
				prefix := slices.Clone(buf)
				buf, err = c.m.AppendGenerate(buf, c.n, c.horizon, c.seed)
				if err != nil || !slices.Equal(buf[:len(prefix)], prefix) || !slices.Equal(buf[len(prefix):], want) {
					errs[w] = fmt.Errorf("case %+v: AppendGenerate after a prefix differs from the reference (err %v)", c, err)
					return
				}
				buf, err = c.m.AppendGenerate(buf[:0], c.n, c.horizon, c.seed)
				if err != nil || !slices.Equal(buf, want) {
					errs[w] = fmt.Errorf("case %+v: AppendGenerate into a reused buffer differs from the reference (err %v)", c, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Expected schedule sizes above MaxExpectedEvents are rejected before
// anything is drawn, with an error naming the three factors.
func TestGenerateSizeLimit(t *testing.T) {
	cases := []struct {
		name    string
		m       Model
		n       int
		horizon simclock.Duration
		ok      bool
	}{
		{"opt-175b 10k machines 30 days", OPTModel(), 10000, 30 * simclock.Day, true},
		{"at the limit", Model{PerInstancePerDay: 1}, 100000, 100 * simclock.Day, true},
		{"zero rate, endless horizon", Model{}, 1000, simclock.Duration(math.Inf(1)), true},
		{"one past the limit", Model{PerInstancePerDay: 1}, 100001, 100 * simclock.Day, false},
		{"billions of events", Model{PerInstancePerDay: 1}, 1 << 30, 10 * simclock.Day, false},
		{"endless horizon", OPTModel(), 16, simclock.Duration(math.Inf(1)), false},
		{"NaN horizon", OPTModel(), 16, simclock.Duration(math.NaN()), false},
	}
	for _, c := range cases {
		err := c.m.CheckSize(c.n, c.horizon)
		if c.ok {
			if err != nil {
				t.Errorf("%s: rejected: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		for _, want := range []string{fmt.Sprintf("%d machines", c.n), "per instance per day", "days", "limit"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", c.name, err, want)
			}
		}
		if s, gerr := c.m.Generate(c.n, c.horizon, 1); gerr == nil || gerr.Error() != err.Error() || s != nil {
			t.Errorf("%s: Generate returned %d events, error %v; want %v", c.name, len(s), gerr, err)
		}
	}
}

// FixedRate shares the bound: its count is exact, failures per day ×
// days, and one past the limit is rejected before anything is built.
func TestFixedRateSizeLimit(t *testing.T) {
	for _, perDay := range []float64{1e5 + 1, math.Inf(1), math.NaN()} {
		if s, err := FixedRate(16, perDay, 0.5, 100*simclock.Day); err == nil || !strings.Contains(err.Error(), "failures per day") || !strings.Contains(err.Error(), "limit") {
			t.Errorf("per day %v: %d events, error %v; want the limit naming failures per day", perDay, len(s), err)
		}
	}
}

// referenceMerge is Merge as it was first written: concatenate, sort,
// collapse same-instant duplicates with hardware winning.
func referenceMerge(schedules ...Schedule) Schedule {
	var out Schedule
	for _, s := range schedules {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Kind < out[j].Kind
	})
	dedup := out[:0]
	for _, ev := range out {
		if n := len(dedup); n > 0 && dedup[n-1].At == ev.At && dedup[n-1].Rank == ev.Rank {
			if ev.Kind == cluster.HardwareFailed {
				dedup[n-1].Kind = cluster.HardwareFailed
			}
			continue
		}
		dedup = append(dedup, ev)
	}
	return dedup
}

// Property: the linear merge equals the sort-then-dedup reference on
// any input — unsorted, sorted, with equal-time ties, mixed kinds on one
// rank, empty and nil inputs, and up to five inputs — leaves its
// arguments untouched, and appended after a prefix leaves the prefix
// alone (no collapse across it, even with an equal first event).
func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	kinds := []cluster.MachineState{cluster.Healthy, cluster.SoftwareFailed, cluster.HardwareFailed}
	for trial := 0; trial < 5000; trial++ {
		inputs := make([]Schedule, rng.Intn(6))
		for i := range inputs {
			n := rng.Intn(9)
			if n == 0 && rng.Intn(2) == 0 {
				continue // a nil input
			}
			s := make(Schedule, n)
			for k := range s {
				// Few distinct times and ranks, so ties are common.
				s[k] = Event{At: simclock.Time(rng.Intn(5)), Rank: rng.Intn(4), Kind: kinds[rng.Intn(len(kinds))]}
			}
			if rng.Intn(2) == 0 {
				slices.SortFunc(s, compareEvents)
			}
			inputs[i] = s
		}
		before := make([]Schedule, len(inputs))
		for i, s := range inputs {
			before[i] = slices.Clone(s)
		}
		cloned := make([]Schedule, len(inputs))
		for i, s := range inputs {
			cloned[i] = slices.Clone(s)
		}
		want := referenceMerge(cloned...)
		got := AppendMerge(nil, inputs...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Merge(%v) = %v, reference %v", trial, before, got, want)
		}
		if !reflect.DeepEqual(inputs, before) {
			t.Fatalf("trial %d: Merge modified its inputs: %v, was %v", trial, inputs, before)
		}
		prefix := Schedule{{At: 0, Rank: 0, Kind: cluster.SoftwareFailed}}
		if got, want := AppendMerge(slices.Clone(prefix), inputs...), append(prefix, want...); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: AppendMerge after %v = %v, want %v", trial, prefix, got, want)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	m := OPTModel()
	b.ReportAllocs()
	var buf Schedule
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = m.AppendGenerate(buf[:0], 1000, 10*simclock.Day, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
