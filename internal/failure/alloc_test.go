//go:build !race

// The race detector drops sync.Pool puts at random and instruments
// allocations, which would skew AllocsPerRun.

package failure

import (
	"testing"

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
