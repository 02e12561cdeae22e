// Package failure models the failures that interrupt large-model
// training (§6.1): software failures (process crashes; hardware and CPU
// memory survive) and hardware failures (the machine is lost and must be
// replaced). It generates deterministic failure schedules from the rate
// models the paper uses — e.g. OPT-175B's observation that 1.5% of
// instances fail per day (§7.3).
package failure

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

// Event is one injected failure.
type Event struct {
	At   simclock.Time
	Rank int
	Kind cluster.MachineState // SoftwareFailed or HardwareFailed
}

// Schedule is a time-ordered list of failure events.
type Schedule []Event

// Validate checks ordering and event sanity. Every event time must be
// finite and nonnegative. Same-timestamp events must be in ascending
// rank order and a rank may fail at most once per
// instant, so injection order — and therefore the simulation — is fully
// determined by the schedule's contents.
func (s Schedule) Validate(n int) error {
	for i, ev := range s {
		// A negated comparison, so NaN is rejected too.
		if !(ev.At >= 0 && ev.At <= math.MaxFloat64) {
			return fmt.Errorf("failure: event %d time %v must be finite and nonnegative", i, ev.At)
		}
		if ev.Rank < 0 || ev.Rank >= n {
			return fmt.Errorf("failure: event %d rank %d out of range [0,%d)", i, ev.Rank, n)
		}
		if ev.Kind != cluster.SoftwareFailed && ev.Kind != cluster.HardwareFailed {
			return fmt.Errorf("failure: event %d has non-failure kind %v", i, ev.Kind)
		}
		if i > 0 {
			prev := s[i-1]
			if ev.At < prev.At {
				return fmt.Errorf("failure: events out of order at %d", i)
			}
			if ev.At == prev.At {
				if ev.Rank == prev.Rank {
					return fmt.Errorf("failure: duplicate events for rank %d at t=%v (index %d)", ev.Rank, ev.At, i)
				}
				if ev.Rank < prev.Rank {
					return fmt.Errorf("failure: same-timestamp events at t=%v out of rank order (index %d)", ev.At, i)
				}
			}
		}
	}
	return nil
}

// Model is a stochastic failure model for a cluster.
type Model struct {
	// PerInstancePerDay is the probability that a given machine fails in
	// a day (OPT-175B: 0.015).
	PerInstancePerDay float64
	// HardwareFraction is the share of failures that are hardware
	// failures needing machine replacement; the paper observes most
	// failures are software or single-machine hardware (§6.2).
	HardwareFraction float64
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	// Negated comparisons, so NaN is out of range too.
	if !(m.PerInstancePerDay >= 0 && m.PerInstancePerDay <= 1) {
		return fmt.Errorf("failure: per-instance daily rate %v out of [0,1]", m.PerInstancePerDay)
	}
	if !(m.HardwareFraction >= 0 && m.HardwareFraction <= 1) {
		return fmt.Errorf("failure: hardware fraction %v out of [0,1]", m.HardwareFraction)
	}
	return nil
}

// OPTModel is the failure model from the OPT-175B logbook: 1.5% of
// instances fail per day, with half the failures needing replacement.
func OPTModel() Model {
	return Model{PerInstancePerDay: 0.015, HardwareFraction: 0.5}
}

// ClusterFailuresPerDay returns the expected cluster-wide failure rate.
func (m Model) ClusterFailuresPerDay(machines int) float64 {
	return m.PerInstancePerDay * float64(machines)
}

// MaxExpectedEvents bounds the expected size of one generated schedule:
// machines × per-instance daily rate × days for Generate, failures per
// day × days for FixedRate. It is six orders of magnitude above any
// shipped scenario (a 10k-machine, 30-day campaign at the OPT-175B rate
// expects 4,500 events) and keeps a single hostile input from asking
// for billions of events, or an endless horizon from never ending.
const MaxExpectedEvents = 1e7

// presizeCap caps the events a fresh AppendGenerate buffer reserves up
// front; longer schedules grow by append.
const presizeCap = 1 << 16

// ExpectedEvents returns the mean size of a schedule Generate draws:
// machines × PerInstancePerDay × horizon in days.
func (m Model) ExpectedEvents(machines int, horizon simclock.Duration) float64 {
	return m.ClusterFailuresPerDay(machines) * days(horizon)
}

// CheckSize rejects a Generate schedule whose expected event count
// exceeds MaxExpectedEvents (or is not a number), naming the three
// factors. A zero rate draws nothing and always passes.
func (m Model) CheckSize(machines int, horizon simclock.Duration) error {
	if m.PerInstancePerDay == 0 {
		return nil
	}
	if mean := m.ExpectedEvents(machines, horizon); !(mean <= MaxExpectedEvents) {
		return fmt.Errorf("failure: %d machines × %v failures per instance per day × %v days expects %g events, above the limit of %g",
			machines, m.PerInstancePerDay, days(horizon), mean, float64(MaxExpectedEvents))
	}
	return nil
}

// CheckFixedRateSize is CheckSize for FixedRate, whose schedule holds
// failuresPerDay × days events (rounded to the nearest count).
func CheckFixedRateSize(failuresPerDay float64, horizon simclock.Duration) error {
	if failuresPerDay == 0 {
		return nil
	}
	if count := failuresPerDay * days(horizon); !(count <= MaxExpectedEvents) {
		return fmt.Errorf("failure: %v failures per day × %v days is %g events, above the limit of %g",
			failuresPerDay, days(horizon), count, float64(MaxExpectedEvents))
	}
	return nil
}

func days(d simclock.Duration) float64 { return d.Seconds() / simclock.Day.Seconds() }

// generator is a pooled math/rand-compatible stream: a rand.Rand over
// the cheap-to-seed source, re-seeded for every schedule.
type generator struct {
	src source
	rng *rand.Rand
}

var generators = sync.Pool{New: func() any {
	g := new(generator)
	g.rng = rand.New(&g.src)
	return g
}}

// Generate draws a Poisson failure schedule over [0, horizon) for a
// cluster of n machines. The schedule is deterministic for a fixed seed:
// it is the one rand.New(rand.NewSource(seed)) draws.
func (m Model) Generate(n int, horizon simclock.Duration, seed int64) (Schedule, error) {
	return m.AppendGenerate(nil, n, horizon, seed)
}

// AppendGenerate is Generate appending to dst, so a caller drawing many
// schedules can reuse one buffer. A buffer with no capacity is first
// sized to the mean plus four standard deviations of the event count;
// when nothing is drawn, dst is returned as is.
func (m Model) AppendGenerate(dst Schedule, n int, horizon simclock.Duration, seed int64) (Schedule, error) {
	if err := m.Validate(); err != nil {
		return dst, err
	}
	if n <= 0 {
		return dst, fmt.Errorf("failure: need at least one machine, got %d", n)
	}
	if horizon < 0 {
		return dst, fmt.Errorf("failure: negative horizon %v", horizon)
	}
	if err := m.CheckSize(n, horizon); err != nil {
		return dst, err
	}
	rate := m.ClusterFailuresPerDay(n) / simclock.Day.Seconds() // events per second
	if rate <= 0 {
		return dst, nil
	}
	out := dst
	if cap(out) == 0 {
		mean := m.ExpectedEvents(n, horizon)
		out = make(Schedule, 0, int(min(math.Ceil(mean+4*math.Sqrt(mean)), presizeCap)))
	}
	g := generators.Get().(*generator)
	g.rng.Seed(seed)
	rng := g.rng
	t := simclock.Time(0)
	for {
		// Exponential inter-arrival times.
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
	generators.Put(g)
	if len(out) == len(dst) {
		return dst, nil // nothing drawn: a nil dst stays nil
	}
	return out, nil
}

// FixedRate builds a deterministic schedule with exactly failuresPerDay
// failures per day, evenly spaced, round-robin over machines and
// alternating kinds per the hardware fraction. Used by the §7.3
// failure-rate sweep so every solution sees identical failures.
//
// Accounting is exact in event-index space: event i lands at
// (i+0.5)/failuresPerDay days, the event count is decided once from the
// half-open horizon (an event landing exactly at the horizon is
// excluded, and no accumulated float interval can drift one across that
// boundary), and the i-th event is hardware exactly when
// ⌊(i+1)·hwFraction⌋ > ⌊i·hwFraction⌋ — so the first c events always
// contain ⌊c·hwFraction⌋ hardware failures, with no running-debt drift
// over long horizons.
func FixedRate(n int, failuresPerDay float64, hwFraction float64, horizon simclock.Duration) (Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("failure: need at least one machine, got %d", n)
	}
	// The fraction's comparison is negated so that NaN fails it too; a
	// NaN rate fails the size limit below, which names it.
	if failuresPerDay < 0 || !(hwFraction >= 0 && hwFraction <= 1) {
		return nil, fmt.Errorf("failure: bad rate %v / fraction %v", failuresPerDay, hwFraction)
	}
	if failuresPerDay == 0 || horizon <= 0 {
		return nil, nil
	}
	if err := CheckFixedRateSize(failuresPerDay, horizon); err != nil {
		return nil, err
	}
	// Event i is inside [0, horizon) iff i + 0.5 < failuresPerDay·days,
	// i.e. i < X with X = failuresPerDay·days − 0.5; the count is ⌈X⌉
	// for both integer and fractional X.
	count := int(math.Ceil(failuresPerDay*days(horizon) - 0.5))
	if count <= 0 {
		return nil, nil
	}
	out := make(Schedule, 0, count)
	for i := 0; i < count; i++ {
		at := simclock.Time((float64(i) + 0.5) / failuresPerDay * simclock.Day.Seconds())
		if at >= simclock.Time(horizon) {
			// The index-space decision is authoritative; if the time
			// computation rounded the last event onto the boundary, snap
			// it just inside instead of dropping or leaking it.
			at = simclock.Time(math.Nextafter(horizon.Seconds(), 0))
		}
		kind := cluster.SoftwareFailed
		if math.Floor(float64(i+1)*hwFraction) > math.Floor(float64(i)*hwFraction) {
			kind = cluster.HardwareFailed
		}
		out = append(out, Event{At: at, Rank: i % n, Kind: kind})
	}
	return out, nil
}

// GroupEnd returns the exclusive end of the simultaneity group anchored
// at s[i] under window w: the first index j > i with s[j].At − s[i].At
// beyond w. This is the one grouping definition shared by the schedule
// analyzers (SimultaneousGroups, SimultaneousHardwareGroups) and the
// long-run simulator (runsim): windows are anchored at the group's
// first event and never chain — an event more than w after the anchor
// starts a new group even when it lands within w of the group's last
// member. The schedule must be time-ordered (Validate checks this).
func (s Schedule) GroupEnd(i int, w simclock.Duration) int {
	j := i + 1
	for j < len(s) && s[j].At.Sub(s[i].At) <= w {
		j++
	}
	return j
}

// SimultaneousGroups extracts, for a window w, the maximal sets of
// distinct machines failing within w of each other — the k of
// Corollary 1. Used to study correlated failures. Windows follow the
// GroupEnd anchoring semantics, identical to the simulator's walk.
func (s Schedule) SimultaneousGroups(w simclock.Duration) []int {
	if len(s) == 0 {
		return nil
	}
	var sizes []int
	ranks := map[int]bool{}
	for i := 0; i < len(s); {
		j := s.GroupEnd(i, w)
		clear(ranks)
		for _, ev := range s[i:j] {
			ranks[ev.Rank] = true
		}
		sizes = append(sizes, len(ranks))
		i = j
	}
	return sizes
}

// SimultaneousHardwareGroups is SimultaneousGroups restricted to
// hardware failures: the same GroupEnd windows, but each count is the
// number of distinct machines that lost their CPU memory inside the
// window — exactly the k the simulator's survival check feeds to the
// Corollary 1 placement kernel. Software failures still open and
// populate windows (they trigger recoveries) but do not count toward k;
// a window of pure software failures reports 0.
func (s Schedule) SimultaneousHardwareGroups(w simclock.Duration) []int {
	if len(s) == 0 {
		return nil
	}
	var sizes []int
	ranks := map[int]bool{}
	for i := 0; i < len(s); {
		j := s.GroupEnd(i, w)
		clear(ranks)
		for _, ev := range s[i:j] {
			if ev.Kind == cluster.HardwareFailed {
				ranks[ev.Rank] = true
			}
		}
		sizes = append(sizes, len(ranks))
		i = j
	}
	return sizes
}

// ExpectedSimultaneousProbability returns the probability that two or
// more machines are simultaneously down, given the per-instance daily
// failure rate and a mean repair window — the back-of-envelope behind
// "it is rare to have two or more machine failures at the same time"
// (§6.2).
func (m Model) ExpectedSimultaneousProbability(machines int, repairWindow simclock.Duration) float64 {
	lambda := m.ClusterFailuresPerDay(machines) * repairWindow.Seconds() / simclock.Day.Seconds()
	// P(≥2 overlapping) under Poisson arrivals within the window.
	return 1 - math.Exp(-lambda) - lambda*math.Exp(-lambda)
}

// AppendMerge combines schedules into one deterministically ordered
// schedule appended to dst: by time, then rank, then kind. The result
// is independent of both the argument order and the ordering within
// each input. When the same rank appears twice at the same instant, the
// events are collapsed to one and HardwareFailed wins — a machine that
// lost its hardware is down regardless of what its software did at the
// same moment. Events already in dst are left alone; dst must not
// overlap any input. All-empty input returns dst unchanged (nil stays
// nil).
//
// Inputs already in that order (the common case: generated schedules
// and compiled chaos) are merged in one linear pass, allocation-free
// into a dst with room for up to four inputs; an input out of order is
// sorted as a copy first, so no argument is modified.
func AppendMerge(dst Schedule, schedules ...Schedule) Schedule {
	total := 0
	for _, s := range schedules {
		total += len(s)
	}
	if total == 0 {
		return dst
	}
	var stack [4]Schedule
	heads := stack[:0]
	for _, s := range schedules {
		if len(s) == 0 {
			continue
		}
		if !slices.IsSortedFunc(s, compareEvents) {
			s = slices.Clone(s)
			slices.SortFunc(s, compareEvents)
		}
		heads = append(heads, s)
	}
	out := slices.Grow(dst, total)
	start := len(out)
	for len(heads) > 0 {
		k := 0
		for h := 1; h < len(heads); h++ {
			if compareEvents(heads[h][0], heads[k][0]) < 0 {
				k = h
			}
		}
		ev := heads[k][0]
		if heads[k] = heads[k][1:]; len(heads[k]) == 0 {
			heads = slices.Delete(heads, k, k+1)
		}
		if n := len(out); n > start && out[n-1].At == ev.At && out[n-1].Rank == ev.Rank {
			if ev.Kind == cluster.HardwareFailed {
				out[n-1].Kind = cluster.HardwareFailed
			}
			continue
		}
		out = append(out, ev)
	}
	return out
}

// compareEvents orders events by time, then rank, then kind.
func compareEvents(a, b Event) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Rank, b.Rank); c != 0 {
		return c
	}
	return cmp.Compare(a.Kind, b.Kind)
}
