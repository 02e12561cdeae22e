package training

import (
	"fmt"

	"gemini/internal/profile"
)

// ProfileFromExecution performs §5.4's online profiling the way the real
// system does it: run `window` checkpoint-free iterations on the fluid
// network simulator, timestamp every communication operation observed on
// a machine's NIC, and build the averaged idle-span profile. It validates
// (and in tests is validated against) the analytic Timeline.Profile path.
//
// The executor records each collective's [start, completion] interval
// from machine 0's ring flow, under the collective's label. (The plain
// executor measures idle time through the fabric's busy counters, which
// cannot attribute intervals to labeled ops; profiling needs the op
// boundaries.)
func ProfileFromExecution(cfg Config, window int) (*profile.Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if window < 1 {
		return nil, fmt.Errorf("training: profile window must be positive, got %d", window)
	}

	rec, err := profile.NewRecorder(window)
	if err != nil {
		return nil, err
	}
	ex := &executor{cfg: cfg, shard: cfg.ShardBytesPerMachine(), rec: rec}
	ex.setup()
	for iter := 0; iter < window; iter++ {
		rec.BeginIteration(ex.engine.Now())
		ex.iterate()
		rec.EndIteration(ex.engine.Now())
	}
	return rec.Build()
}
