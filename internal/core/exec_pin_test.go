package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"gemini/internal/profile"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/trace"
	"gemini/internal/training"
)

// TestExecutorOutputsPinned pins what the fluid executor produces, bit
// for bit, so a rewrite of its event wiring cannot move a simulated
// number unnoticed:
//   - the %+v lines of the six Fig. 7 / Fig. 16 runs (the benchmark's
//     interference-16 result digest, hashed the same way);
//   - the Chrome-trace export of a traced GPT-2 40B / p3dn Gemini run;
//   - the §5.4 online profile of three executed iterations on both
//     testbeds (iteration time and every span).
func TestExecutorOutputsPinned(t *testing.T) {
	sets := []struct {
		spec    JobSpec
		schemes []schedule.Scheme
	}{
		{JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16},
			[]schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeGemini}},
		{JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
			[]schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeBlocking, schedule.SchemeNaive, schedule.SchemeGemini}},
	}
	runs := sha256.New()
	for _, set := range sets {
		j := MustNewJob(set.spec)
		for _, s := range set.schemes {
			res, err := j.ExecuteScheme(s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(runs, "%s %s %+v\n", set.spec.Model, s, *res)
		}
	}
	if got, want := hex.EncodeToString(runs.Sum(nil)), "86cc8742a1f8fbcccaf89c3aa0c85edd2809afb7d483696ba939801d31f62b74"; got != want {
		t.Errorf("six-run result digest %s, want %s", got, want)
	}

	tr := trace.NewTracer(nil)
	traced := MustNewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16, Tracer: tr})
	if _, err := traced.ExecuteScheme(schedule.SchemeGemini); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), "52d88ac00b0b2141b2cefcbae36382162a2911b6068229dd70afffca6d5344d5"; got != want {
		t.Errorf("traced run's WriteJSON sha256 %s, want %s", got, want)
	}

	for _, c := range []struct {
		spec      JobSpec
		iteration simclock.Duration
		spans     []profile.Span
	}{
		{JobSpec{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16}, 60.4711634960046,
			[]profile.Span{{Offset: 50.4440322580669, Length: 0.141163496002207}, {Offset: 50.7211634960046, Length: 9.75}}},
		{JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16}, 45.70485000000039,
			[]profile.Span{{Offset: 41.65125000000038, Length: 0.044849999999996726}, {Offset: 41.804850000000386, Length: 3.9000000000000035}}},
	} {
		prof, err := training.ProfileFromExecution(MustNewJob(c.spec).Config, 3)
		if err != nil {
			t.Fatal(err)
		}
		if prof.IterationTime != c.iteration || !reflect.DeepEqual(prof.Spans, c.spans) {
			t.Errorf("%s online profile: iteration %v, spans %+v; want %v, %+v",
				c.spec.Model, float64(prof.IterationTime), prof.Spans, float64(c.iteration), c.spans)
		}
	}
}

// TestSchemeOutputsPinned pins the %+v of every §7.4 scheme's result on
// both 16-machine testbeds, the Naive OOM and NoPipeline rows included,
// and the ablation-pipeline sweep of GEMINI's sub-buffer count p on
// GPT-2 40B / p3dn, so a rewrite of how a scheme is stated cannot move
// a chunk, a buffer demand or an idle utilization unnoticed.
func TestSchemeOutputsPinned(t *testing.T) {
	schemes := []schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeBlocking,
		schedule.SchemeNaive, schedule.SchemeNoPipeline, schedule.SchemeGemini}
	runs := sha256.New()
	for _, spec := range []JobSpec{
		{Model: "GPT-2 100B", Instance: "p4d.24xlarge", Machines: 16},
		{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16},
	} {
		j := MustNewJob(spec)
		for _, s := range schemes {
			res, err := j.ExecuteScheme(s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(runs, "%s %s %+v\n", spec.Model, s, *res)
		}
	}
	j := MustNewJob(JobSpec{Model: "GPT-2 40B", Instance: "p3dn.24xlarge", Machines: 16})
	for _, p := range []int{1, 2, 4, 8, 16} {
		res, err := j.ExecuteSchemeWithBuffers(schedule.SchemeGemini, schedule.DefaultBufferBytes, p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(runs, "p=%d %+v\n", p, *res)
	}
	if got, want := hex.EncodeToString(runs.Sum(nil)), "3586589967b29285653cd840d98e2be059fbfc226e013af9019658ac48640aa6"; got != want {
		t.Errorf("scheme result digest %s, want %s", got, want)
	}
}
