package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gemini/internal/simclock"
)

const (
	gbps = 1e9 / 8 // bytes per second in one Gbit/s
)

func newTestFabric(t *testing.T, n int, cfg Config) (*simclock.Engine, *Fabric) {
	t.Helper()
	e := simclock.NewEngine()
	f, err := NewFabric(e, n, cfg)
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	return e, f
}

func TestSingleFlowTakesAlphaPlusBytesOverB(t *testing.T) {
	e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 100, Alpha: 0.5})
	var done simclock.Time
	f.StartFlow(0, 1, 1000, "t", func(fl *Flow) {
		if fl.State() != FlowDone {
			t.Errorf("flow state %v, want done", fl.State())
		}
		done = e.Now()
	})
	e.RunAll()
	want := simclock.Time(0.5 + 1000.0/100)
	if math.Abs(float64(done-want)) > 1e-9 {
		t.Fatalf("flow finished at %v, want %v", done, want)
	}
}

func TestTransferTimeMatchesFlow(t *testing.T) {
	e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 250, Alpha: 0.01})
	var done simclock.Time
	f.StartFlow(0, 1, 5000, "t", func(*Flow) { done = e.Now() })
	e.RunAll()
	if got := TransferTime(5000, 250, 0.01); math.Abs(float64(done)-got.Seconds()) > 1e-9 {
		t.Fatalf("TransferTime %v but flow finished at %v", got, done)
	}
}

func TestZeroByteFlowCompletesAfterAlpha(t *testing.T) {
	e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 100, Alpha: 0.25})
	var done simclock.Time
	f.StartFlow(0, 1, 0, "t", func(*Flow) { done = e.Now() })
	e.RunAll()
	if math.Abs(float64(done)-0.25) > 1e-9 {
		t.Fatalf("zero-byte flow finished at %v, want 0.25", done)
	}
}

func TestTwoFlowsShareEgress(t *testing.T) {
	// Two flows leaving node 0 share its egress capacity: each gets B/2,
	// so both finish at 2·s/B.
	e, f := newTestFabric(t, 3, Config{EgressBytesPerSec: 100})
	var t1, t2 simclock.Time
	f.StartFlow(0, 1, 1000, "a", func(*Flow) { t1 = e.Now() })
	f.StartFlow(0, 2, 1000, "b", func(*Flow) { t2 = e.Now() })
	e.RunAll()
	if math.Abs(float64(t1)-20) > 1e-6 || math.Abs(float64(t2)-20) > 1e-6 {
		t.Fatalf("shared flows finished at %v and %v, want 20 and 20", t1, t2)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	// Flows of 1000 and 3000 bytes share 100 B/s: the short one finishes
	// at t=20 (rate 50); the long one then speeds up to 100 and finishes
	// at 20 + (3000-1000)/100 = 40.
	e, f := newTestFabric(t, 3, Config{EgressBytesPerSec: 100})
	var tShort, tLong simclock.Time
	f.StartFlow(0, 1, 1000, "short", func(*Flow) { tShort = e.Now() })
	f.StartFlow(0, 2, 3000, "long", func(*Flow) { tLong = e.Now() })
	e.RunAll()
	if math.Abs(float64(tShort)-20) > 1e-6 {
		t.Fatalf("short flow finished at %v, want 20", tShort)
	}
	if math.Abs(float64(tLong)-40) > 1e-6 {
		t.Fatalf("long flow finished at %v, want 40", tLong)
	}
}

func TestIngressIsABottleneckToo(t *testing.T) {
	// Two different sources into one destination share the ingress cap.
	e, f := newTestFabric(t, 3, Config{EgressBytesPerSec: 100})
	var t1, t2 simclock.Time
	f.StartFlow(0, 2, 1000, "a", func(*Flow) { t1 = e.Now() })
	f.StartFlow(1, 2, 1000, "b", func(*Flow) { t2 = e.Now() })
	e.RunAll()
	if math.Abs(float64(t1)-20) > 1e-6 || math.Abs(float64(t2)-20) > 1e-6 {
		t.Fatalf("ingress-shared flows finished at %v, %v, want 20, 20", t1, t2)
	}
}

func TestDisjointFlowsDoNotInterfere(t *testing.T) {
	e, f := newTestFabric(t, 4, Config{EgressBytesPerSec: 100})
	var t1, t2 simclock.Time
	f.StartFlow(0, 1, 1000, "a", func(*Flow) { t1 = e.Now() })
	f.StartFlow(2, 3, 1000, "b", func(*Flow) { t2 = e.Now() })
	e.RunAll()
	if math.Abs(float64(t1)-10) > 1e-6 || math.Abs(float64(t2)-10) > 1e-6 {
		t.Fatalf("disjoint flows finished at %v, %v, want 10, 10", t1, t2)
	}
}

func TestMaxMinUnevenShares(t *testing.T) {
	// Node 0 sends to 1 and 2; node 3 also sends to 2.
	// Ingress at 2 is shared by two flows (50 each); flow 0→1 can then take
	// the leftover egress at node 0 (also 50, since 0's egress splits...).
	// Water-filling: all flows rise to 50 together, which saturates both
	// node-0 egress (2 flows × 50) and node-2 ingress (2 flows × 50).
	e, f := newTestFabric(t, 4, Config{EgressBytesPerSec: 100})
	var done [3]simclock.Time
	f.StartFlow(0, 1, 500, "a", func(*Flow) { done[0] = e.Now() })
	f.StartFlow(0, 2, 500, "b", func(*Flow) { done[1] = e.Now() })
	f.StartFlow(3, 2, 500, "c", func(*Flow) { done[2] = e.Now() })
	e.RunAll()
	for i, d := range done {
		if math.Abs(float64(d)-10) > 1e-6 {
			t.Fatalf("flow %d finished at %v, want 10", i, d)
		}
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 100})
	f.StartFlow(0, 1, 1000, "t", nil)
	e.RunAll()
	if bt := f.BusyTime(0); math.Abs(bt.Seconds()-10) > 1e-9 {
		t.Fatalf("busy time %v, want 10s", bt)
	}
	if bt := f.BusyTime(1); math.Abs(bt.Seconds()-10) > 1e-9 {
		t.Fatalf("receiver busy time %v, want 10s", bt)
	}
	f.ResetBusyTime()
	if bt := f.BusyTime(0); bt != 0 {
		t.Fatalf("busy time after reset %v, want 0", bt)
	}
}

func TestBusyTimeWithGap(t *testing.T) {
	e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 100})
	f.StartFlow(0, 1, 1000, "a", nil)
	e.At(50, func() { f.StartFlow(0, 1, 1000, "b", nil) })
	e.RunAll()
	if bt := f.BusyTime(0); math.Abs(bt.Seconds()-20) > 1e-9 {
		t.Fatalf("busy time %v, want 20s (two 10s transfers)", bt)
	}
	if e.Now() != 60 {
		t.Fatalf("clock %v, want 60", e.Now())
	}
}

func TestConfigValidation(t *testing.T) {
	e := simclock.NewEngine()
	if _, err := NewFabric(e, 2, Config{EgressBytesPerSec: 0}); err == nil {
		t.Error("zero egress accepted")
	}
	if _, err := NewFabric(e, 2, Config{EgressBytesPerSec: 1, Alpha: -1}); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewFabric(e, 0, Config{EgressBytesPerSec: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
}

// NaN slips past `x < 0` and `x <= 0` guards, and an infinite copy size
// would schedule a completion at +Inf. Every size, capacity and
// bandwidth entry point must reject them and name the value.
func TestRejectsNaNAndInfInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		want string // must appear in the panic or error
		call func(e *simclock.Engine, f *Fabric, c *Copier) error
	}{
		{"Submit NaN", "NaN", func(_ *simclock.Engine, _ *Fabric, c *Copier) error { c.Submit(nan, 1, "x", nil); return nil }},
		{"Submit +Inf", "+Inf", func(_ *simclock.Engine, _ *Fabric, c *Copier) error { c.Submit(inf, 1, "x", nil); return nil }},
		{"Submit -Inf", "-Inf", func(_ *simclock.Engine, _ *Fabric, c *Copier) error { c.Submit(-inf, 1, "x", nil); return nil }},
		{"Submit NaN piece", "NaN", func(_ *simclock.Engine, _ *Fabric, c *Copier) error { c.Submit(1, nan, "x", nil); return nil }},
		{"NewCopier NaN", "NaN", func(e *simclock.Engine, _ *Fabric, _ *Copier) error { _, err := NewCopier(e, nan); return err }},
		{"StartFlow NaN", "NaN", func(_ *simclock.Engine, f *Fabric, _ *Copier) error { f.StartFlow(0, 1, nan, "x", nil); return nil }},
		{"NewFabric NaN egress", "NaN", func(e *simclock.Engine, _ *Fabric, _ *Copier) error {
			_, err := NewFabric(e, 2, Config{EgressBytesPerSec: nan})
			return err
		}},
		{"NewFabric NaN alpha", "NaN", func(e *simclock.Engine, _ *Fabric, _ *Copier) error {
			_, err := NewFabric(e, 2, Config{EgressBytesPerSec: 1, Alpha: simclock.Duration(nan)})
			return err
		}},
		{"StartRingRun NaN", "NaN", func(_ *simclock.Engine, f *Fabric, _ *Copier) error {
			_, err := StartRingRun(f, AllGather, []int{0, 1}, nan, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 100})
			c := MustNewCopier(e, 100)
			var msg string
			func() {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				if err := tc.call(e, f, c); err != nil {
					msg = err.Error()
				}
			}()
			if !strings.Contains(msg, tc.want) {
				t.Fatalf("got %q, want a panic or error naming %s", msg, tc.want)
			}
			if n := e.RunAll(); n != 0 || e.Now() != 0 {
				t.Fatalf("rejected call left %d events and clock %v", n, e.Now())
			}
		})
	}
}

func TestSelfFlowPanics(t *testing.T) {
	e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 100})
	_ = e
	defer func() {
		if recover() == nil {
			t.Fatal("self flow did not panic")
		}
	}()
	f.StartFlow(1, 1, 10, "t", nil)
}

func TestFlowAccessors(t *testing.T) {
	e, f := newTestFabric(t, 2, Config{EgressBytesPerSec: 100, Alpha: 1})
	fl := f.StartFlow(0, 1, 500, "label", nil)
	if fl.Bytes() != 500 || fl.Label != "label" || fl.StartedAt() != 0 {
		t.Fatalf("accessors wrong: %+v", fl)
	}
	if fl.State() != FlowStarting {
		t.Fatalf("initial state %v, want starting", fl.State())
	}
	e.Run(2)
	if fl.State() != FlowActive {
		t.Fatalf("state after alpha %v, want active", fl.State())
	}
	if fl.Rate() != 100 {
		t.Fatalf("rate %v, want 100", fl.Rate())
	}
	e.RunAll()
	if fl.State() != FlowDone || fl.Remaining() != 0 {
		t.Fatalf("final state %v remaining %v", fl.State(), fl.Remaining())
	}
	if fl.FinishedAt() != 6 { // 1s alpha + 5s transfer
		t.Fatalf("finished at %v, want 6", fl.FinishedAt())
	}
}

func TestFlowStateString(t *testing.T) {
	names := map[FlowState]string{
		FlowStarting: "starting", FlowActive: "active", FlowDone: "done",
		FlowState(99): "FlowState(99)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("FlowState(%d).String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: total bytes delivered per unit time never exceeds any node's
// capacity, and all flows eventually complete with the right byte totals.
func TestPropertyConservationAndCompletion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		e := simclock.NewEngine()
		fab := MustNewFabric(e, n, Config{EgressBytesPerSec: 1000})
		flows := 1 + rng.Intn(20)
		completed := 0
		for i := 0; i < flows; i++ {
			src := rng.Intn(n)
			dst := rng.Intn(n)
			if dst == src {
				dst = (dst + 1) % n
			}
			bytes := rng.Float64() * 1e5
			start := simclock.Time(rng.Float64() * 10)
			e.At(start, func() {
				fab.StartFlow(src, dst, bytes, "p", func(fl *Flow) {
					if fl.State() == FlowDone && fl.Remaining() == 0 {
						completed++
					}
				})
			})
		}
		e.RunAll()
		if completed != flows {
			return false
		}
		// With egress cap 1000 and max total bytes 20*1e5, everything must
		// finish within a loose horizon (sanity that rates were positive).
		return e.Now() < simclock.Time(10+20*1e5/1000*float64(flows)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion time of k equal flows from one source scales
// linearly with k (perfect fair sharing of one bottleneck).
func TestPropertyFairSharingScalesLinearly(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw%8) + 1
		e := simclock.NewEngine()
		fab := MustNewFabric(e, k+1, Config{EgressBytesPerSec: 100})
		var last simclock.Time
		for i := 1; i <= k; i++ {
			fab.StartFlow(0, i, 1000, "p", func(*Flow) { last = e.Now() })
		}
		e.RunAll()
		want := 10 * float64(k)
		return math.Abs(float64(last)-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
