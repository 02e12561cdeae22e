package experiments

import (
	"context"
	"sync"
	"testing"

	"gemini/internal/baselines"
	"gemini/internal/derive"
)

func expsByID(t *testing.T, ids ...string) []Experiment {
	t.Helper()
	out := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// The -race hammer: many goroutines resolve the same and different
// derivation keys concurrently — some through experiments.RunAll (the
// 18 job-construction sites collapse onto the shared cache), some
// through direct cache gets, with periodic Clear calls forcing misses,
// rebuilds, and evictions mid-flight. The test asserts nothing beyond
// "no error": its job is to put the cache's locking in front of the
// race detector under realistic contention.
func TestDerivationCacheRaceHammer(t *testing.T) {
	exps := expsByID(t, "fig10", "fig11", "fig12")
	keys := []derive.Key{
		{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16, Replicas: 2, RemoteBandwidth: baselines.DefaultRemoteBandwidth},
		{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16, Replicas: 3, RemoteBandwidth: baselines.DefaultRemoteBandwidth},
		{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16, Replicas: 2, RemoteBandwidth: baselines.DefaultRemoteBandwidth},
	}

	var wg sync.WaitGroup
	// Sweep runners: concurrent RunAll invocations, each itself parallel.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, r := range RunAll(context.Background(), exps, 3) {
					if r.Err != nil {
						t.Errorf("%s: %v", r.ID, r.Err)
					}
				}
			}
		}()
	}
	// Direct resolvers: tight loops over a mix of hot and distinct keys.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := derive.Shared().Get(keys[(g+i)%len(keys)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Churn: clear the cache while everyone else is resolving.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			derive.Shared().Clear()
		}
	}()
	wg.Wait()
}

// The determinism sweep extended to the cache dimension: experiment
// output must be bit-identical whether the derivation cache is cold or
// warm, and at any worker count.
func TestRunAllBitIdenticalAcrossCacheStatesAndWorkers(t *testing.T) {
	exps := expsByID(t, "table1", "fig9", "fig10", "fig12")

	derive.Shared().Clear()
	ref := RunAll(context.Background(), exps, 1)
	for _, r := range ref {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
	}

	for _, bc := range []struct {
		name    string
		workers int
		cold    bool
	}{
		{"warm-serial", 1, false},
		{"warm-parallel", 4, false},
		{"cold-serial", 1, true},
		{"cold-parallel", 4, true},
	} {
		t.Run(bc.name, func(t *testing.T) {
			if bc.cold {
				derive.Shared().Clear()
			}
			got := RunAll(context.Background(), exps, bc.workers)
			for i, r := range got {
				if r.Err != nil {
					t.Fatalf("%s: %v", r.ID, r.Err)
				}
				if r.Output != ref[i].Output {
					t.Errorf("%s output diverged from the cold-serial reference", r.ID)
				}
			}
		})
	}
}
