// Scaling: the §7.3 economics study. How much productive training time
// does each checkpointing solution deliver as failures get more frequent
// and the cluster grows to a thousand instances? Reproduces the shape of
// Figures 15a and 15b and quantifies the standby-machine ablation.
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
	})
	if err != nil {
		log.Fatal(err)
	}
	horizon := 10 * gemini.Day
	specs := []gemini.Spec{job.GeminiSpec(), job.HighFreqSpec(), job.StrawmanSpec()}

	fmt.Println("== effective training-time ratio vs failure rate (16 machines) ==")
	fmt.Printf("%-14s %-10s %-10s %-10s\n", "failures/day", "GEMINI", "HighFreq", "Strawman")
	for _, perDay := range []float64{0, 2, 4, 6, 8} {
		// Poisson arrivals avoid phase aliasing between the failure
		// spacing and the solutions' checkpoint intervals.
		model := gemini.FailureModel{PerInstancePerDay: perDay / 16}
		fs, err := model.Generate(16, horizon, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14.0f", perDay)
		for _, spec := range specs {
			res, err := job.SimulateRun(spec, 16, fs, horizon, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %-10.3f", res.EffectiveRatio)
		}
		fmt.Println()
	}

	fmt.Println("\n== scaling to 1000 instances at the OPT-175B failure rate (1.5%/day) ==")
	rate := gemini.OPTFailureModel()
	fmt.Printf("%-11s %-13s %-10s %-10s %-10s\n", "instances", "failures/day", "GEMINI", "HighFreq", "Strawman")
	for _, n := range []int{16, 200, 600, 1000} {
		perDay := rate.ClusterFailuresPerDay(n)
		fs, err := rate.Generate(n, horizon, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11d %-13.1f", n, perDay)
		for _, spec := range specs {
			res, err := job.SimulateRun(spec, n, fs, horizon, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %-10.3f", res.EffectiveRatio)
		}
		fmt.Println()
	}

	fmt.Println("\n== standby machines vs on-demand replacement (hardware failures) ==")
	fs, err := gemini.FixedFailureRate(16, 4, 1.0, horizon)
	if err != nil {
		log.Fatal(err)
	}
	withStandby, err := job.SimulateRun(job.GeminiSpec(), 16, fs, horizon, 0)
	if err != nil {
		log.Fatal(err)
	}
	onDemand, err := job.SimulateRun(job.GeminiSpec(), 16, fs, horizon, gemini.Duration(5.5*60))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standby pool:   ratio %.4f, mean wasted %v\n", withStandby.EffectiveRatio, withStandby.MeanWasted)
	fmt.Printf("on-demand ASG:  ratio %.4f, mean wasted %v\n", onDemand.EffectiveRatio, onDemand.MeanWasted)
}
