package ckpt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gemini/internal/placement"
)

func TestDeltaCommitNeedsOnlyDeltaBytes(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 1)
	moved := e.BytesReceived()
	delta := shardSize / 4
	e.CommitDelta(0, 0, 2, delta)
	if got := e.BytesReceived() - moved; got != delta {
		t.Errorf("delta commit moved %v bytes, want %v", got, delta)
	}
	sh, ok := e.Completed(0, 0)
	if !ok || sh.Iteration != 2 {
		t.Fatalf("delta commit landed as %+v/%v, want iteration 2", sh, ok)
	}
	if sh.Bytes != shardSize {
		t.Errorf("delta-committed shard reports %v bytes, want the full logical size %v", sh.Bytes, shardSize)
	}
}

func TestDeltaRequiresImmediatelyPreviousBase(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 1)
	// Base is iteration 1; a delta to 3 skips a generation.
	defer func() {
		if recover() == nil {
			t.Fatal("delta on a stale base did not panic")
		}
	}()
	e.CommitDelta(0, 0, 3, shardSize/4)
}

// A shard or delta size that is NaN, infinite, negative or (for a delta)
// larger than the shard is rejected with a message naming the input,
// and a rejected delta leaves the slot and the traffic untouched.
func TestNonFiniteSizesRejected(t *testing.T) {
	for _, size := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		_, err := NewEngine(placement.MustMixed(4, 2), size)
		if err == nil || !strings.Contains(err.Error(), "shard size") {
			t.Errorf("NewEngine(%v): err %v, want one naming the shard size", size, err)
		}
	}
	for _, delta := range []float64{math.NaN(), math.Inf(1), -1, 2 * shardSize} {
		t.Run(fmt.Sprint(delta), func(t *testing.T) {
			e := newEngine(t, 4, 2)
			checkpointAll(e, 1)
			moved := e.BytesReceived()
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.Contains(msg, "delta size") {
						t.Errorf("CommitDelta(%v) panicked with %q, want one naming the delta size", delta, msg)
					}
				}()
				e.CommitDelta(0, 0, 2, delta)
			}()
			if sh, _ := e.Completed(0, 0); sh.Iteration != 1 || e.BytesReceived() != moved {
				t.Errorf("rejected delta changed state: newest %d, traffic %v → %v", sh.Iteration, moved, e.BytesReceived())
			}
		})
	}
}

func TestRefreshRestampsWithoutBytes(t *testing.T) {
	e := newEngine(t, 4, 2)
	checkpointAll(e, 1)
	moved := e.BytesReceived()
	e.Refresh(0, 0, 2)
	if e.BytesReceived() != moved {
		t.Errorf("refresh moved bytes: %v → %v", moved, e.BytesReceived())
	}
	sh, ok := e.Completed(0, 0)
	if !ok || sh.Iteration != 2 {
		t.Fatalf("refreshed shard %+v/%v, want iteration 2", sh, ok)
	}
	// The old stamp survives as the previous generation (double-buffer
	// overlap), so both versions stay recoverable.
	vs := e.CompletedVersions(0, 0)
	if len(vs) != 2 || vs[0].Iteration != 2 || vs[1].Iteration != 1 {
		t.Fatalf("generations after refresh = %v, want [2 1]", vs)
	}
}

func TestRefreshNeedsACommittedShard(t *testing.T) {
	e := newEngine(t, 4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("refresh of an empty slot did not panic")
		}
	}()
	e.Refresh(0, 0, 1)
}

func TestBytesReceivedAccumulates(t *testing.T) {
	e := newEngine(t, 4, 2)
	if e.BytesReceived() != 0 {
		t.Fatalf("fresh engine reports %v bytes", e.BytesReceived())
	}
	checkpointAll(e, 1)
	pairs := 0
	p := e.Placement()
	for owner := 0; owner < p.N; owner++ {
		pairs += len(p.Replicas(owner))
	}
	if want := float64(pairs) * shardSize; e.BytesReceived() != want {
		t.Fatalf("BytesReceived = %v, want %v", e.BytesReceived(), want)
	}
}
