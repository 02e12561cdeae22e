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
// waits for all of them. workers ≤ 0 means Workers(). With one worker
// (or n ≤ 1) it runs inline on the calling goroutine — no goroutines,
// no allocations. A panic in any fn is re-raised on the caller.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panicV  any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicV == nil {
						panicV = r
					}
					// Poison the counter so remaining workers drain.
					next.Store(int64(n))
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicV != nil {
		panic(panicV)
	}
}

// ForEachErr is ForEach with context cancellation and error propagation:
// it stops handing out new indices once the context is done or any fn
// has failed, waits for in-flight calls, and returns the error of the
// lowest-numbered failing index (so the reported error is deterministic
// regardless of scheduling), or the context's error if it fired first.
func ForEachErr(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
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
	var (
		next   atomic.Int64
		halted atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = -1
		errV   error
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !halted.Load() {
				if ctx.Err() != nil {
					halted.Store(true)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, errV = i, err
					}
					mu.Unlock()
					halted.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errV != nil {
		return errV
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
