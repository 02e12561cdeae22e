package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gemini/internal/simclock"
)

func TestCollectiveSingleParticipantIsFree(t *testing.T) {
	for _, k := range []CollectiveKind{AllGather, ReduceScatter, AllReduce, Broadcast} {
		if got := CollectiveTime(k, 1, 1e9, 100, 0.1); got != 0 {
			t.Errorf("%v over 1 participant = %v, want 0", k, got)
		}
	}
}

func TestAllGatherCost(t *testing.T) {
	// n=4, total 4000 bytes, B=100, α=0: 3 steps × 1000 bytes / 100 = 30s.
	got := CollectiveTime(AllGather, 4, 4000, 100, 0)
	if math.Abs(got.Seconds()-30) > 1e-9 {
		t.Fatalf("all-gather = %v, want 30s", got)
	}
	// With α=1: add 3 step latencies.
	got = CollectiveTime(AllGather, 4, 4000, 100, 1)
	if math.Abs(got.Seconds()-33) > 1e-9 {
		t.Fatalf("all-gather with alpha = %v, want 33s", got)
	}
}

func TestAllReduceIsTwiceReduceScatter(t *testing.T) {
	rs := CollectiveTime(ReduceScatter, 8, 1e6, 1000, 0.01)
	ar := CollectiveTime(AllReduce, 8, 1e6, 1000, 0.01)
	if math.Abs(ar.Seconds()-2*rs.Seconds()) > 1e-9 {
		t.Fatalf("all-reduce %v, want 2× reduce-scatter %v", ar, rs)
	}
}

func TestBroadcastPipelined(t *testing.T) {
	// Pipelined broadcast: bandwidth term is the full payload once.
	got := CollectiveTime(Broadcast, 4, 4000, 100, 0)
	if math.Abs(got.Seconds()-40) > 1e-9 {
		t.Fatalf("broadcast = %v, want 40s", got)
	}
}

func TestCollectivePanicsOnBadInput(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name string
		fn   func()
		want string // the panic must name the bad input
	}{
		{"no participants", func() { CollectiveTime(AllGather, 0, 1, 1, 0) }, "participants"},
		{"negative payload", func() { CollectiveTime(AllGather, 2, -1, 1, 0) }, "payload"},
		{"NaN payload", func() { CollectiveTime(AllGather, 2, nan, 1, 0) }, "payload"},
		{"zero bandwidth", func() { CollectiveTime(AllGather, 2, 1, 0, 0) }, "bandwidth"},
		{"NaN bandwidth", func() { CollectiveTime(AllGather, 2, 1, nan, 0) }, "bandwidth"},
		{"infinite bandwidth", func() { CollectiveTime(AllGather, 2, 1, math.Inf(1), 0) }, "bandwidth"},
		{"negative alpha", func() { CollectiveTime(AllGather, 2, 1, 1, -1) }, "alpha"},
		{"NaN alpha", func() { CollectiveTime(AllGather, 2, 1, 1, simclock.Duration(nan)) }, "alpha"},
		{"unknown kind", func() { CollectiveTime(CollectiveKind(42), 2, 1, 1, 0) }, "kind"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: did not panic", c.name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q does not name %q", c.name, msg, c.want)
				}
			}()
			c.fn()
		}()
	}
}

func TestCollectiveKindString(t *testing.T) {
	cases := map[CollectiveKind]string{
		AllGather: "all-gather", ReduceScatter: "reduce-scatter",
		AllReduce: "all-reduce", Broadcast: "broadcast",
		CollectiveKind(9): "CollectiveKind(9)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

// Property: collective time is monotone in payload size and in participant
// count for ring all-gather, and inversely monotone in bandwidth.
func TestPropertyCollectiveMonotonicity(t *testing.T) {
	f := func(b1, b2 uint32, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		lo, hi := float64(b1%1e6), float64(b2%1e6)
		if lo > hi {
			lo, hi = hi, lo
		}
		tLo := CollectiveTime(AllGather, n, lo, 1000, 0.001)
		tHi := CollectiveTime(AllGather, n, hi, 1000, 0.001)
		if tLo > tHi {
			return false
		}
		// Doubling bandwidth cannot increase time.
		tFast := CollectiveTime(AllGather, n, hi, 2000, 0.001)
		return tFast <= tHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the per-participant bytes of an all-gather approach the full
// payload as n grows: time(n) is increasing in n for fixed total bytes
// only through the latency term; the bandwidth term (n−1)/n·S/B increases
// toward S/B.
func TestPropertyAllGatherBandwidthTermBounded(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%62) + 2
		tt := CollectiveTime(AllGather, n, 1e6, 1000, 0)
		limit := simclock.Duration(1e6 / 1000.0)
		return tt < limit && tt >= limit/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
