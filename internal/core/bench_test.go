package core

import (
	"testing"

	"gemini/internal/schedule"
)

// BenchmarkInterferenceSet runs the six ExecuteScheme calls of one
// interference-16 benchmark unit: the Fig. 7 schemes on GPT-2 100B /
// 16 × p4d and the Fig. 16 schemes on GPT-2 40B / 16 × p3dn. Run it
// with -cpuprofile to profile the fluid executor (training and netsim)
// without the benchmark harness.
func BenchmarkInterferenceSet(b *testing.B) {
	sets := []struct {
		job     *Job
		schemes []schedule.Scheme
	}{
		{MustNewJob(JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16}),
			[]schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeGemini}},
		{MustNewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16}),
			[]schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeBlocking, schedule.SchemeNaive, schedule.SchemeGemini}},
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, set := range sets {
			for _, s := range set.schemes {
				if _, err := set.job.ExecuteScheme(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
