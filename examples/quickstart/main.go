// Quickstart: set up GEMINI for the paper's flagship job — GPT-2 100B on
// 16 p4d.24xlarge machines — and look at everything the system derives:
// the iteration timeline and its idle spans, the checkpoint placement,
// the Algorithm 2 chunk plan, recovery probabilities, and the headline
// comparison against the remote-storage baselines.
package main

import (
	"fmt"
	"log"

	"gemini"
)

func main() {
	job, err := gemini.NewJob(gemini.JobSpec{
		Model:    "GPT-2 100B",
		Instance: "p4d.24xlarge",
		Machines: 16,
		Replicas: 2, // checkpoint replicas m
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== the job ==")
	fmt.Printf("model states: %.1f GB checkpoint, %.1f GB shard per machine\n",
		job.Config.Model.CheckpointBytes()/1e9, job.Config.ShardBytesPerMachine()/1e9)
	fmt.Printf("iteration: %.1f s, of which %.1f s network idle\n",
		job.Timeline.Iteration.Seconds(), job.Timeline.IdleTime().Seconds())

	fmt.Println("\n== checkpoint placement (Algorithm 1) ==")
	fmt.Printf("strategy %s over %d groups; machine 0's shard lives on machines %v\n",
		job.Placement.Kind, len(job.Placement.Groups), job.Placement.Replicas(0))
	for k := 1; k <= 3; k++ {
		fmt.Printf("P(recover from CPU memory | %d simultaneous failures) = %.3f\n",
			k, job.RecoveryProbability(k))
	}

	fmt.Println("\n== checkpoint traffic plan (Algorithm 2) ==")
	fmt.Printf("%d chunks across %d idle spans; fits without touching training: %v\n",
		len(job.Plan.Chunks), len(job.Profile.Spans), job.Plan.Fits)

	fmt.Println("\n== per-iteration checkpointing, measured on the simulator ==")
	res, err := job.ExecuteScheme(gemini.SchemeGemini)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("iteration %.1f s vs %.1f s baseline (overhead %.2f%%)\n",
		res.IterationTime.Seconds(), res.BaselineIteration.Seconds(), res.Overhead()*100)
	fmt.Printf("checkpoint completes in %.1f s (remote storage would need %.0f s)\n",
		res.CheckpointTime.Seconds(), job.StrawmanSpec().CheckpointTime.Seconds())

	fmt.Println("\n== wasted time per failure (Equation 1) ==")
	fmt.Printf("GEMINI (software failure):  %8.0f s\n",
		job.GeminiSpec().AverageWasted(gemini.FromLocalCPU).Seconds())
	fmt.Printf("HighFreq:                   %8.0f s\n",
		job.HighFreqSpec().AverageWasted(gemini.FromPersistentRemote).Seconds())
	fmt.Printf("Strawman:                   %8.0f s\n",
		job.StrawmanSpec().AverageWasted(gemini.FromPersistentRemote).Seconds())
}
