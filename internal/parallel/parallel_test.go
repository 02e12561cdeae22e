package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		const n = 500
		var hits [n]atomic.Int32
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	ForEach(4, 0, func(int) { t.Fatal("fn called for n=0") })
	ran := false
	ForEach(4, 1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("fn(0) not called for n=1")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	ForEach(4, 100, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

// A panicking fn at several workers reaches the caller, which can
// recover it, instead of killing the process from a worker goroutine.
func TestForEachErrPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			ForEachErr(context.Background(), workers, 100, func(i int) error {
				if i == 37 {
					panic("boom")
				}
				return nil
			})
			t.Fatalf("workers=%d: ForEachErr returned", workers)
		}()
	}
}

func TestForEachErrLowestIndexWins(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	// Run repeatedly: whichever of index 5 / 95 fails first in wall time,
	// the reported error must always be index 5's.
	for trial := 0; trial < 20; trial++ {
		err := ForEachErr(context.Background(), 8, 100, func(i int) error {
			switch i {
			case 5:
				return errLow
			case 95:
				return errHigh
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: got %v, want %v", trial, err, errLow)
		}
	}
}

func TestForEachErrContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEachErr(ctx, 4, 1000, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancelled run still executed every index")
	}
}

func TestSumInt64DeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(i int) int64 { return int64(i)*7 + 3 }
	want := SumInt64(1, 1000, fn)
	for _, workers := range []int{2, 4, 16} {
		if got := SumInt64(workers, 1000, fn); got != want {
			t.Fatalf("workers=%d: sum %d, want %d", workers, got, want)
		}
	}
}

func TestWorkersPositive(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d", Workers())
	}
}
