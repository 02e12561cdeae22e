package failure

import (
	"math"
	"testing"
	"testing/quick"

	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

func TestOPTModelMatchesPaper(t *testing.T) {
	m := OPTModel()
	if m.PerInstancePerDay != 0.015 {
		t.Fatalf("per-instance rate %v, want 0.015 (OPT-175B: 1.5%%/day)", m.PerInstancePerDay)
	}
	// 1000 instances ⇒ 15 failures/day, the Fig. 15b regime.
	if got := m.ClusterFailuresPerDay(1000); math.Abs(got-15) > 1e-12 {
		t.Fatalf("cluster rate %v, want 15/day", got)
	}
}

func TestGenerateDeterministicAndOrdered(t *testing.T) {
	m := OPTModel()
	a, err := m.Generate(16, 30*simclock.Day, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(16, 30*simclock.Day, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d", i)
		}
	}
	if err := a.Validate(16); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	c, _ := m.Generate(16, 30*simclock.Day, 43)
	if len(c) == len(a) {
		same := true
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

func TestGenerateRateIsPlausible(t *testing.T) {
	// 16 machines at 1.5%/day ⇒ 0.24/day ⇒ ≈72 events in 300 days.
	m := OPTModel()
	s, err := m.Generate(16, 300*simclock.Day, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := m.ClusterFailuresPerDay(16) * 300
	if got := float64(len(s)); got < want*0.6 || got > want*1.4 {
		t.Fatalf("%v events over 300 days, want ≈%v", got, want)
	}
	hw := 0
	for _, ev := range s {
		if ev.Kind == cluster.HardwareFailed {
			hw++
		}
	}
	frac := float64(hw) / float64(len(s))
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("hardware fraction %v, want ≈0.5", frac)
	}
}

func TestGenerateZeroRate(t *testing.T) {
	m := Model{PerInstancePerDay: 0}
	s, err := m.Generate(16, simclock.Day, 1)
	if err != nil || len(s) != 0 {
		t.Fatalf("zero-rate schedule: %d events, err %v", len(s), err)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := (Model{PerInstancePerDay: -1}).Generate(4, simclock.Day, 1); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := (Model{HardwareFraction: 2}).Generate(4, simclock.Day, 1); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := OPTModel().Generate(0, simclock.Day, 1); err == nil {
		t.Error("zero machines accepted")
	}
	if _, err := OPTModel().Generate(4, -1, 1); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestFixedRateExactCount(t *testing.T) {
	s, err := FixedRate(16, 8, 0.5, simclock.Day)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 8 {
		t.Fatalf("%d events in one day, want 8", len(s))
	}
	if err := s.Validate(16); err != nil {
		t.Fatal(err)
	}
	hw := 0
	for _, ev := range s {
		if ev.Kind == cluster.HardwareFailed {
			hw++
		}
	}
	if hw != 4 {
		t.Fatalf("%d hardware failures of 8, want 4", hw)
	}
	// Ranks round-robin.
	if s[0].Rank == s[1].Rank {
		t.Fatal("round-robin ranks repeated immediately")
	}
}

func TestFixedRateZero(t *testing.T) {
	s, err := FixedRate(16, 0, 0.5, simclock.Day)
	if err != nil || s != nil {
		t.Fatalf("zero rate: %v events, err %v", len(s), err)
	}
	bad := []struct {
		name           string
		n              int
		perDay, hwFrac float64
	}{
		{"zero machines", 0, 1, 0.5},
		{"negative rate", 4, -1, 0.5},
		{"NaN rate", 4, math.NaN(), 0.5},
		{"negative fraction", 4, 1, -0.5},
		{"fraction above one", 4, 1, 1.5},
		{"NaN fraction", 4, 1, math.NaN()},
	}
	for _, c := range bad {
		if _, err := FixedRate(c.n, c.perDay, c.hwFrac, simclock.Day); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestValidateCatchesBadSchedules(t *testing.T) {
	bad := Schedule{{At: 5, Rank: 99, Kind: cluster.SoftwareFailed}}
	if err := bad.Validate(4); err == nil {
		t.Error("out-of-range rank accepted")
	}
	bad = Schedule{{At: 5, Rank: 0, Kind: cluster.Healthy}}
	if err := bad.Validate(4); err == nil {
		t.Error("healthy kind accepted")
	}
	bad = Schedule{{At: 5, Rank: 0, Kind: cluster.SoftwareFailed}, {At: 1, Rank: 1, Kind: cluster.SoftwareFailed}}
	if err := bad.Validate(4); err == nil {
		t.Error("out-of-order schedule accepted")
	}
	bad = Schedule{{At: 5, Rank: 1, Kind: cluster.SoftwareFailed}, {At: 5, Rank: 1, Kind: cluster.HardwareFailed}}
	if err := bad.Validate(4); err == nil {
		t.Error("duplicate (timestamp, rank) accepted")
	}
	bad = Schedule{{At: 5, Rank: 2, Kind: cluster.SoftwareFailed}, {At: 5, Rank: 1, Kind: cluster.SoftwareFailed}}
	if err := bad.Validate(4); err == nil {
		t.Error("same-timestamp events out of rank order accepted")
	}
	ok := Schedule{{At: 5, Rank: 1, Kind: cluster.SoftwareFailed}, {At: 5, Rank: 2, Kind: cluster.HardwareFailed}}
	if err := ok.Validate(4); err != nil {
		t.Errorf("tie broken by rank rejected: %v", err)
	}
}

func TestSimultaneousGroups(t *testing.T) {
	s := Schedule{
		{At: 0, Rank: 0, Kind: cluster.HardwareFailed},
		{At: 1, Rank: 1, Kind: cluster.HardwareFailed},
		{At: 2, Rank: 1, Kind: cluster.HardwareFailed}, // same rank, not counted twice
		{At: 100, Rank: 2, Kind: cluster.SoftwareFailed},
	}
	groups := s.SimultaneousGroups(10)
	if len(groups) != 2 || groups[0] != 2 || groups[1] != 1 {
		t.Fatalf("groups %v, want [2 1]", groups)
	}
	if got := Schedule(nil).SimultaneousGroups(10); got != nil {
		t.Fatalf("empty schedule groups %v", got)
	}
}

func TestExpectedSimultaneousProbabilitySmall(t *testing.T) {
	// §6.2: even at thousand-instance scale, simultaneous multi-machine
	// failures are rare with short repair windows.
	m := OPTModel()
	p := m.ExpectedSimultaneousProbability(1000, 12*simclock.Minute)
	if p <= 0 || p > 0.01 {
		t.Fatalf("simultaneous probability %v, want small but positive", p)
	}
	// Probability grows with the repair window.
	p2 := m.ExpectedSimultaneousProbability(1000, 2*simclock.Hour)
	if p2 <= p {
		t.Fatalf("longer window probability %v not above %v", p2, p)
	}
}

func TestMergeOrders(t *testing.T) {
	a := Schedule{{At: 5, Rank: 0, Kind: cluster.SoftwareFailed}}
	b := Schedule{{At: 1, Rank: 1, Kind: cluster.HardwareFailed}, {At: 9, Rank: 2, Kind: cluster.SoftwareFailed}}
	merged := AppendMerge(nil, a, b)
	if len(merged) != 3 || merged[0].At != 1 || merged[1].At != 5 || merged[2].At != 9 {
		t.Fatalf("merged %v", merged)
	}
	if err := merged.Validate(4); err != nil {
		t.Fatal(err)
	}
}

// Merge must be insensitive to argument order, break timestamp ties by
// rank, and collapse duplicate (timestamp, rank) pairs with hardware
// failures dominating.
func TestMergeDeterministicTies(t *testing.T) {
	a := Schedule{{At: 5, Rank: 3, Kind: cluster.SoftwareFailed}, {At: 5, Rank: 3, Kind: cluster.HardwareFailed}}
	b := Schedule{{At: 5, Rank: 1, Kind: cluster.SoftwareFailed}}
	m1 := AppendMerge(nil, a, b)
	m2 := AppendMerge(nil, b, a)
	if len(m1) != 2 || len(m2) != 2 {
		t.Fatalf("merged lengths %d/%d, want 2 (duplicates collapsed)", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] {
			t.Fatalf("merge depends on argument order: %v vs %v", m1, m2)
		}
	}
	if m1[0].Rank != 1 || m1[1].Rank != 3 {
		t.Fatalf("tie not broken by rank: %v", m1)
	}
	if m1[1].Kind != cluster.HardwareFailed {
		t.Fatalf("hardware failure did not dominate duplicate: %v", m1)
	}
	if err := m1.Validate(4); err != nil {
		t.Fatalf("merged schedule invalid: %v", err)
	}
}

// Property: generated schedules are always ordered, in range, and within
// the horizon.
func TestPropertyGeneratedSchedulesValid(t *testing.T) {
	f := func(seed int64, nRaw, daysRaw uint8) bool {
		n := int(nRaw%100) + 1
		days := simclock.Duration(daysRaw%60+1) * simclock.Day
		s, err := OPTModel().Generate(n, days, seed)
		if err != nil {
			return false
		}
		if err := s.Validate(n); err != nil {
			return false
		}
		for _, ev := range s {
			if ev.At < 0 || ev.At >= simclock.Time(days) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedRateBoundaryExclusion(t *testing.T) {
	// One failure per day over half a day: the single candidate event
	// lands exactly at the horizon and must be excluded — the schedule
	// covers [0, horizon).
	s, err := FixedRate(16, 1, 0, simclock.Day/2)
	if err != nil || len(s) != 0 {
		t.Fatalf("event at the horizon leaked in: %d events, err %v", len(s), err)
	}
	// Nudge the horizon past the event and it appears.
	s, err = FixedRate(16, 1, 0, simclock.Day/2+simclock.Second)
	if err != nil || len(s) != 1 {
		t.Fatalf("event just inside the horizon missing: %d events, err %v", len(s), err)
	}
	// Negative and zero horizons are empty, not errors (nothing can land
	// inside an empty interval).
	for _, h := range []simclock.Duration{0, -simclock.Day} {
		if s, err := FixedRate(16, 4, 0.5, h); err != nil || len(s) != 0 {
			t.Fatalf("horizon %v: %d events, err %v", h, len(s), err)
		}
	}
}

func TestFixedRateHighRateExactAccounting(t *testing.T) {
	// One failure per second for a day: 86400 candidate half-interval
	// slots, all strictly inside the horizon, no float drift across the
	// boundary at either end.
	const perDay = 86400
	horizon := simclock.Day
	s, err := FixedRate(16, perDay, 0.5, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != perDay {
		t.Fatalf("%d events, want %d", len(s), perDay)
	}
	if err := s.Validate(16); err != nil {
		t.Fatal(err)
	}
	for i, ev := range s {
		if ev.At < 0 || ev.At >= simclock.Time(horizon) {
			t.Fatalf("event %d at %v outside [0, %v)", i, ev.At, horizon)
		}
		if ev.Rank != i%16 {
			t.Fatalf("event %d rank %d, want round-robin %d", i, ev.Rank, i%16)
		}
	}
}

func TestFixedRatePropertyCountAndHardwareExact(t *testing.T) {
	// Property: for any rate, fraction, and horizon, the event count is
	// ⌈rate·days − 0.5⌉, every event is strictly inside the horizon, and
	// the hardware count is exactly ⌊count·fraction⌋ — no accumulated
	// drift at any horizon length.
	check := func(perDay, frac, days float64) {
		t.Helper()
		horizon := simclock.Duration(days) * simclock.Day
		s, err := FixedRate(8, perDay, frac, horizon)
		if err != nil {
			t.Fatal(err)
		}
		want := int(math.Ceil(perDay*days - 0.5))
		if want < 0 {
			want = 0
		}
		if len(s) != want {
			t.Fatalf("rate %v frac %v days %v: %d events, want %d", perDay, frac, days, len(s), want)
		}
		hw := 0
		for _, ev := range s {
			if ev.At >= simclock.Time(horizon) {
				t.Fatalf("rate %v days %v: event at %v beyond horizon", perDay, days, ev.At)
			}
			if ev.Kind == cluster.HardwareFailed {
				hw++
			}
		}
		if wantHW := int(math.Floor(float64(len(s)) * frac)); hw != wantHW {
			t.Fatalf("rate %v frac %v days %v: %d hardware of %d, want %d", perDay, frac, days, hw, len(s), wantHW)
		}
	}
	for _, perDay := range []float64{0.5, 1, 3, 7.3, 100, 12345} {
		for _, frac := range []float64{0, 0.25, 1.0 / 3, 0.5, 0.9, 1} {
			for _, days := range []float64{0.1, 1, 10, 365} {
				check(perDay, frac, days)
			}
		}
	}
}

func TestGenerateEdgeHorizons(t *testing.T) {
	m := OPTModel()
	// A zero horizon is a valid empty interval, not an error.
	s, err := m.Generate(16, 0, 1)
	if err != nil || len(s) != 0 {
		t.Fatalf("zero horizon: %d events, err %v", len(s), err)
	}
	// A vanishing rate over a long horizon terminates promptly with an
	// empty (or nearly empty) schedule instead of spinning.
	tiny := Model{PerInstancePerDay: 1e-12, HardwareFraction: 0.5}
	s, err = tiny.Generate(16, 365*simclock.Day, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) > 1 {
		t.Fatalf("tiny rate produced %d events over a year", len(s))
	}
	if err := s.Validate(16); err != nil {
		t.Fatal(err)
	}
}

func TestSimultaneousHardwareGroupsCountsOnlyHardware(t *testing.T) {
	s := Schedule{
		{At: 0, Rank: 0, Kind: cluster.SoftwareFailed},
		{At: 1, Rank: 1, Kind: cluster.HardwareFailed},
		{At: 2, Rank: 1, Kind: cluster.HardwareFailed}, // same machine, not counted twice
		{At: 100, Rank: 2, Kind: cluster.SoftwareFailed},
		{At: 105, Rank: 3, Kind: cluster.SoftwareFailed},
	}
	if err := s.Validate(8); err != nil {
		t.Fatal(err)
	}
	groups := s.SimultaneousGroups(10)
	hw := s.SimultaneousHardwareGroups(10)
	if len(groups) != len(hw) {
		t.Fatalf("window partitions disagree: %d vs %d groups", len(groups), len(hw))
	}
	if groups[0] != 2 || groups[1] != 2 {
		t.Fatalf("distinct-machine counts %v, want [2 2]", groups)
	}
	if hw[0] != 1 || hw[1] != 0 {
		t.Fatalf("hardware k-counts %v, want [1 0]", hw)
	}
}

func TestGroupEndAnchorsAtFirstEventAndNeverChains(t *testing.T) {
	// Events at 0, 6, 12 with window 10: 6 joins the group anchored at
	// 0, but 12 — within 10 of 6, beyond 10 of the anchor — starts a new
	// group. Chaining would collapse all three into one window.
	s := Schedule{
		{At: 0, Rank: 0, Kind: cluster.SoftwareFailed},
		{At: 6, Rank: 1, Kind: cluster.SoftwareFailed},
		{At: 12, Rank: 2, Kind: cluster.SoftwareFailed},
	}
	if end := s.GroupEnd(0, 10); end != 2 {
		t.Fatalf("group anchored at t=0 ends at %d, want 2 (no chaining)", end)
	}
	if end := s.GroupEnd(2, 10); end != 3 {
		t.Fatalf("group anchored at t=12 ends at %d, want 3", end)
	}
	// The window boundary is inclusive.
	s2 := Schedule{
		{At: 0, Rank: 0, Kind: cluster.HardwareFailed},
		{At: 10, Rank: 1, Kind: cluster.HardwareFailed},
	}
	if end := s2.GroupEnd(0, 10); end != 2 {
		t.Fatalf("event exactly at the window edge excluded: end %d, want 2", end)
	}
	if got := s.SimultaneousGroups(10); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("groups %v, want [2 1]", got)
	}
}
