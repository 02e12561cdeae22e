// Chaos: drive the recovery control plane through faults beyond the
// paper's fail-stop model. Phase 1 partitions two machines away and then
// kills their placement-group partners — a correlated failure that hides
// every surviving replica behind the partition, so the root agent
// retries peer retrieval with exponential backoff, exhausts its budget,
// and falls back to remote persistent storage. Phase 2 kills a machine
// whose replica peer is a straggler, showing degraded-but-working peer
// retrieval. The run closes with the placement analysis the scenario
// motivates: group placement is perfect under independent failures and
// hopeless under whole-rack failures, while the rack-aware variant
// trades a little independent-failure probability for rack tolerance.
package main

import (
	"fmt"
	"log"

	"gemini"
)

func main() {
	spec := gemini.JobSpec{
		Model:    "GPT-2 40B",
		Instance: "p3dn.24xlarge",
		Machines: 16,
	}

	// Derive the job once to learn the iteration time, then rebuild it
	// with the fault schedule attached; RecoverySystem arms the schedule
	// automatically.
	base, err := gemini.NewJob(spec)
	if err != nil {
		log.Fatal(err)
	}
	iter := gemini.Duration(base.Timeline.Iteration)
	t1 := gemini.Time(4*iter + iter/2) // mid-checkpoint, like the paper's Fig. 14 setup
	t2 := gemini.Time(40 * iter)

	sched, err := gemini.Faults().
		// Phase 1: machines 2 and 4 die together (shared failure domain)
		// while their replica partners 3 and 5 are partitioned away.
		Partition(t1, 8*gemini.Minute, 3, 5).
		CrashGroup(t1, gemini.HardwareFailure, 2, 4).
		// Phase 2: machine 9 dies; its replica peer 8 limps at quarter
		// bandwidth for a while.
		Straggler(t2, 20*iter, 8, 0.25).
		Crash(t2, 9, gemini.HardwareFailure).
		Build(spec.Machines)
	if err != nil {
		log.Fatal(err)
	}

	spec.Faults = sched
	job, err := gemini.NewJob(spec)
	if err != nil {
		log.Fatal(err)
	}

	cloudCfg := gemini.DefaultCloudConfig()
	cloudCfg.Standby = 3

	engine, sys, err := job.RecoverySystem(cloudCfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()
	engine.Run(gemini.Time(60 * iter))

	fmt.Println("== control-plane event trace ==")
	for _, ev := range sys.Log().Instants() {
		fmt.Printf("%12s  %-8s %-20s %s\n", ev.At, ev.Cat, ev.Name, ev.Args)
	}

	fmt.Printf("\ntraining survived %d recoveries; now at iteration %d, root is rank %d\n",
		sys.Recoveries(), sys.Iteration(), sys.RootRank())
	if sys.Recoveries() != 2 || !sys.Training() {
		log.Fatal("expected two completed recoveries with training running")
	}
	if len(sys.Log().Filter("fallback-remote")) == 0 {
		log.Fatal("phase 1 should have exhausted peer retries and fallen back to remote")
	}
	if last, ok := sys.Log().Last("retrieved"); !ok || last.Args == "" {
		log.Fatal("no retrieval recorded")
	}

	// Why phase 1 hurt: with racks of size 2, Algorithm 1's groups align
	// exactly with the failure domains. The rack-aware layout spreads
	// every group across racks instead.
	aligned, err := gemini.NewPlacement(spec.Machines, 2)
	if err != nil {
		log.Fatal(err)
	}
	rackAware, err := gemini.NewRackAwarePlacement(spec.Machines, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	racks, err := gemini.Racks(spec.Machines, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== recovery probability: independent failures vs whole racks ==")
	fmt.Println("k   independent   k racks down (group)   k racks down (rack-aware)")
	for k := 1; k <= 4; k++ {
		cg, err := gemini.CorrelatedRecoveryProbability(aligned, racks, k)
		if err != nil {
			log.Fatal(err)
		}
		cr, err := gemini.CorrelatedRecoveryProbability(rackAware, racks, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d   %.3f         %.3f                  %.3f\n",
			k, gemini.RecoveryProbabilityExact(aligned, k), cg, cr)
	}
}
