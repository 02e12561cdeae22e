package placement

import (
	"math"
	"testing"
)

func TestRackAwareStructure(t *testing.T) {
	p, err := RackAware(8, 2, 2)
	if err != nil {
		t.Fatalf("RackAware: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.Kind != KindRackAware {
		t.Fatalf("kind %v", p.Kind)
	}
	racks, err := Racks(8, 2)
	if err != nil {
		t.Fatalf("Racks: %v", err)
	}
	minSpan, maxSpan := RackSpan(p, racks)
	if minSpan != 2 || maxSpan != 2 {
		t.Fatalf("rack span %d..%d, want every group spanning exactly m=2 racks", minSpan, maxSpan)
	}
	// Contrast: an aligned Mixed group placement co-locates each group in
	// one rack.
	g := MustMixed(8, 2)
	minSpan, _ = RackSpan(g, racks)
	if minSpan != 1 {
		t.Fatalf("aligned group placement min span %d, want 1", minSpan)
	}
}

func TestRackAwareErrors(t *testing.T) {
	for _, tc := range []struct{ n, m, size int }{
		{8, 2, 3}, // rack size does not divide n
		{8, 3, 2}, // m does not divide rack count
		{8, 2, 0}, // zero rack size
		{0, 2, 2}, // no machines
		{8, 9, 2}, // m > n
	} {
		if _, err := RackAware(tc.n, tc.m, tc.size); err == nil {
			t.Errorf("RackAware(%d,%d,%d) accepted", tc.n, tc.m, tc.size)
		}
	}
}

func TestRacksErrors(t *testing.T) {
	for _, tc := range []struct{ n, size int }{
		{0, 2}, // no machines
		{8, 0}, // zero rack size
		{8, -2},
		{8, 3}, // rack size does not divide n
	} {
		if _, err := Racks(tc.n, tc.size); err == nil {
			t.Errorf("Racks(%d,%d) accepted", tc.n, tc.size)
		}
	}
}

// Under whole-rack failures the aligned group strategy loses everything
// to a single rack, while the rack-aware strategy survives any one rack
// and most pairs — the quantitative case for rack awareness.
func TestCorrelatedProbabilityAlignedVsRackAware(t *testing.T) {
	racks, err := Racks(8, 2)
	if err != nil {
		t.Fatalf("Racks: %v", err)
	}
	aligned := MustMixed(8, 2)
	aware := MustRackAware(8, 2, 2)

	pAligned, err := CorrelatedProbability(aligned, racks, 1)
	if err != nil {
		t.Fatalf("CorrelatedProbability: %v", err)
	}
	if pAligned != 0 {
		t.Fatalf("aligned k=1 probability %v, want 0 (any rack erases a whole group)", pAligned)
	}
	pAware, err := CorrelatedProbability(aware, racks, 1)
	if err != nil {
		t.Fatalf("CorrelatedProbability: %v", err)
	}
	if pAware != 1 {
		t.Fatalf("rack-aware k=1 probability %v, want 1", pAware)
	}
	pAware2, err := CorrelatedProbability(aware, racks, 2)
	if err != nil {
		t.Fatalf("CorrelatedProbability: %v", err)
	}
	if math.Abs(pAware2-4.0/6.0) > 1e-12 {
		t.Fatalf("rack-aware k=2 probability %v, want 4/6", pAware2)
	}

	if k, _ := WorstCorrelatedK(aligned, racks); k != 1 {
		t.Fatalf("aligned worst k = %d, want 1", k)
	}
	if k, _ := WorstCorrelatedK(aware, racks); k != 2 {
		t.Fatalf("rack-aware worst k = %d, want 2", k)
	}
}

// With one machine per rack, correlated failures degenerate to
// independent ones, so CorrelatedProbability must agree with
// BitmaskProbability.
func TestCorrelatedDegeneratesToIndependent(t *testing.T) {
	p := MustMixed(9, 2)
	racks, err := Racks(9, 1)
	if err != nil {
		t.Fatalf("Racks: %v", err)
	}
	for k := 0; k <= 3; k++ {
		got, err := CorrelatedProbability(p, racks, k)
		if err != nil {
			t.Fatalf("CorrelatedProbability(k=%d): %v", k, err)
		}
		want := BitmaskProbability(p, k)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("k=%d: correlated %v != independent %v", k, got, want)
		}
	}
}

func TestCorrelatedProbabilityValidation(t *testing.T) {
	p := MustMixed(4, 2)
	good, _ := Racks(4, 2)
	if _, err := CorrelatedProbability(p, good, 5); err == nil {
		t.Error("k beyond rack count accepted")
	}
	if _, err := CorrelatedProbability(p, [][]int{{0, 1}, {1, 2}, {3}}, 1); err == nil {
		t.Error("overlapping racks accepted")
	}
	if _, err := CorrelatedProbability(p, [][]int{{0, 1}}, 1); err == nil {
		t.Error("racks not covering all ranks accepted")
	}
	if _, err := CorrelatedProbability(p, [][]int{{0, 1}, {2, 9}}, 1); err == nil {
		t.Error("out-of-range rank accepted")
	}
}
