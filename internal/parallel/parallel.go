// Package parallel is the repository's deterministic parallel execution
// layer: a bounded, context-aware, panic-safe worker pool used by the
// Monte-Carlo estimators (internal/placement), the §7 experiment runner
// (internal/experiments, cmd/benchtables) and the campaign engine
// (internal/scenario).
//
// Determinism discipline: callers shard their work by a scheme that does
// not depend on the worker count (fixed shard sizes, per-shard PRNG seeds
// of the form seed+shardIndex) and write each shard's result into its own
// slot of a pre-sized slice. The pool then only decides *when* a shard
// runs, never *what* it computes, so results are bit-identical whether
// the pool runs with 1 worker or 64.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns the default worker count: GOMAXPROCS, the number of
// OS threads Go will actually run simultaneously.
func Workers() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(0) … fn(n-1) across at most workers goroutines and
// waits for all of them: ForEachErr with no context and no error.
// workers ≤ 0 means Workers(). With one worker (or n ≤ 1) it runs
// inline on the calling goroutine — no goroutines, and no allocations,
// since only the pooled path wraps fn. A panic in any fn is re-raised on
// the caller.
func ForEach(workers, n int, fn func(i int)) {
	if width(workers, n) > 1 {
		ForEachErr(context.Background(), workers, n, func(i int) error { fn(i); return nil })
		return
	}
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// width is the number of workers that run n indices: workers (or
// Workers() when workers ≤ 0), at most n.
func width(workers, n int) int {
	if workers <= 0 {
		workers = Workers()
	}
	return min(workers, n)
}

// ForEachErr runs fn(0) … fn(n-1) across at most workers goroutines
// (≤ 0 means Workers(); one runs inline). It stops handing out new
// indices once the context is done or any fn has failed or panicked,
// waits for in-flight calls, and then re-raises the first panic on the
// caller, or returns the error of the lowest-numbered failing index (so
// the reported error is deterministic regardless of scheduling), or the
// context's error if it fired first.
func ForEachErr(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers = width(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	// One shared struct, so the workers' state is one allocation.
	var st struct {
		next   atomic.Int64
		halted atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx int
		err    error
		panicV any
	}
	st.errIdx = -1
	st.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer st.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					st.mu.Lock()
					if st.panicV == nil {
						st.panicV = r
					}
					st.mu.Unlock()
					st.halted.Store(true)
				}
			}()
			for !st.halted.Load() {
				if ctx.Err() != nil {
					st.halted.Store(true)
					return
				}
				i := int(st.next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					st.mu.Lock()
					if st.errIdx < 0 || i < st.errIdx {
						st.errIdx, st.err = i, err
					}
					st.mu.Unlock()
					st.halted.Store(true)
					return
				}
			}
		}()
	}
	st.wg.Wait()
	if st.panicV != nil {
		panic(st.panicV)
	}
	if st.err != nil {
		return st.err
	}
	return ctx.Err()
}

// SumInt64 evaluates fn over [0,n) with bounded workers and returns the
// sum of the results. Addition is associative and commutative over
// int64, so the sum is independent of scheduling order — the primitive
// behind the sharded Monte-Carlo estimators.
func SumInt64(workers, n int, fn func(i int) int64) int64 {
	if n <= 0 {
		return 0
	}
	parts := make([]int64, n)
	ForEach(workers, n, func(i int) { parts[i] = fn(i) })
	var total int64
	for _, v := range parts {
		total += v
	}
	return total
}
