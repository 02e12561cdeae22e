//go:build !race

// The race detector drops sync.Pool puts at random and instruments
// allocations, which would skew AllocsPerRun.

package failure

import (
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/simclock"
)

// A warm AppendGenerate into a buffer with room for the schedule
// allocates nothing: the seeded generator comes from the pool and the
// events land in the caller's buffer. Gated in ci.sh.
func TestAppendGenerateWarmAllocsZero(t *testing.T) {
	m := OPTModel()
	buf := make(Schedule, 0, 1024)
	seed := int64(0)
	gen := func() {
		seed++
		var err error
		if buf, err = m.AppendGenerate(buf[:0], 1000, 10*simclock.Day, seed); err != nil {
			t.Fatal(err)
		}
	}
	gen()
	if n := testing.AllocsPerRun(200, gen); n != 0 {
		t.Fatalf("warm AppendGenerate allocates %.2f/op, want 0", n)
	}
	if cap(buf) != 1024 {
		t.Fatalf("buffer regrown to %d events", cap(buf))
	}
}

// A warm AppendMerge of ordered inputs into a buffer with room
// allocates nothing: the merge heads live on the stack.
func TestAppendMergeWarmAllocsZero(t *testing.T) {
	base, err := OPTModel().Generate(1000, 10*simclock.Day, 1)
	if err != nil {
		t.Fatal(err)
	}
	chaos := Schedule{{At: base[0].At, Rank: base[0].Rank, Kind: cluster.HardwareFailed}, {At: simclock.Time(simclock.Day), Rank: 3}}
	buf := make(Schedule, 0, len(base)+len(chaos))
	if n := testing.AllocsPerRun(100, func() { buf = AppendMerge(buf[:0], base, chaos) }); n != 0 {
		t.Fatalf("warm AppendMerge allocates %.2f/op, want 0", n)
	}
	if len(buf) != len(base)+1 {
		t.Fatalf("merged %d events, want %d (one same-instant pair collapsed)", len(buf), len(base)+1)
	}
}
