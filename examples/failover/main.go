// Failover: drive the live failure-recovery control plane end to end.
// Training runs with per-iteration in-memory checkpoints while worker
// agents heartbeat into the coordination store; we then kill a machine's
// hardware mid-iteration, watch the root agent detect it through lease
// expiry, replace it through the cloud operator, retrieve the lost shard
// from its placement peer, and resume — and finally kill the root machine
// itself to watch leader election promote a new root.
package main

import (
	"fmt"
	"log"

	"gemini"
)

func main() {
	job, err := gemini.NewJob(gemini.JobSpec{
		Model:    "GPT-2 40B",
		Instance: "p3dn.24xlarge",
		Machines: 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A cloud operator with one standby machine: the first replacement is
	// nearly instant, later ones pay the 4–7 minute ASG provisioning.
	cloudCfg := gemini.DefaultCloudConfig()
	cloudCfg.Standby = 1

	engine, sys, err := job.RecoverySystem(cloudCfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.Start()

	iter := gemini.Time(job.Timeline.Iteration)

	// Hardware failure on machine 11 during iteration 5.
	engine.At(4*iter+iter/2, func() {
		fmt.Printf("--- injecting hardware failure on machine 11 at %v ---\n", engine.Now())
		sys.InjectFailure(11, gemini.HardwareFailure)
	})
	// Software crash on machine 3 a while later.
	engine.At(40*iter, func() {
		fmt.Printf("--- injecting software failure on machine 3 at %v ---\n", engine.Now())
		sys.InjectFailure(3, gemini.SoftwareFailure)
	})
	// Then the root machine (rank 0) dies: leader election must promote
	// a new root before recovery can even start.
	engine.At(80*iter, func() {
		fmt.Printf("--- killing the root machine (rank %d) at %v ---\n", sys.RootRank(), engine.Now())
		sys.InjectFailure(sys.RootRank(), gemini.HardwareFailure)
	})

	engine.Run(130 * iter)

	fmt.Println("\n== control-plane event trace ==")
	for _, ev := range sys.Log().Instants() {
		fmt.Printf("%12s  %-8s %-20s %s\n", ev.At, ev.Cat, ev.Name, ev.Args)
	}

	fmt.Printf("\ntraining resumed through %d recoveries; now at iteration %d, root is rank %d\n",
		sys.Recoveries(), sys.Iteration(), sys.RootRank())
	if sys.Recoveries() != 3 || !sys.Training() {
		log.Fatal("expected three completed recoveries with training running")
	}
}
