package training

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"gemini/internal/cluster"
	"gemini/internal/metrics"
	"gemini/internal/model"
	"gemini/internal/placement"
	"gemini/internal/profile"
	"gemini/internal/schedule"
	"gemini/internal/trace"
)

// Executor tests reproduce the §7.4 ablation (Figure 16) on GPT-2 40B /
// 16× p3dn and the §7.2 no-overhead result (Figure 7) on GPT-2 100B /
// 16× p4d.

// derived builds cfg's timeline and its default-window profile: what the
// derivation cache hands the executor.
func derived(t testing.TB, cfg Config) (*Timeline, *profile.Profile) {
	t.Helper()
	tl := MustBuildTimeline(cfg)
	prof, err := tl.Profile(schedule.DefaultProfileWindow)
	if err != nil {
		t.Fatal(err)
	}
	return tl, prof
}

// execute runs the executor on cfg's derived timeline and profile.
func execute(t testing.TB, cfg Config, opts ExecOptions) (*ExecResult, error) {
	t.Helper()
	tl, prof := derived(t, cfg)
	return Execute(tl, prof, opts)
}

func exec40B(t *testing.T, scheme schedule.Scheme) *ExecResult {
	t.Helper()
	cfg := cfg40Bp3dn(t)
	opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), scheme)
	opts.Iterations = 2
	res, err := execute(t, cfg, opts)
	if err != nil {
		t.Fatalf("Execute(%v): %v", scheme, err)
	}
	return res
}

func TestExecutorBaselineMatchesAnalyticTimeline(t *testing.T) {
	res := exec40B(t, schedule.SchemeBaseline)
	if res.CheckpointTime != 0 {
		t.Fatalf("baseline measured checkpoint time %v", res.CheckpointTime)
	}
	diff := math.Abs(float64(res.IterationTime-res.BaselineIteration)) / float64(res.BaselineIteration)
	if diff > 0.02 {
		t.Fatalf("executor baseline %v deviates %.1f%% from analytic %v",
			res.IterationTime, diff*100, res.BaselineIteration)
	}
}

func TestExecutorGeminiNoOverhead40B(t *testing.T) {
	res := exec40B(t, schedule.SchemeGemini)
	if res.OOM {
		t.Fatal("GEMINI scheme reported OOM")
	}
	if ov := res.Overhead(); ov > 0.02 {
		t.Fatalf("GEMINI overhead %.1f%%, want ≈0%% (Fig. 16)", ov*100)
	}
	if res.CheckpointTime <= 0 {
		t.Fatal("no checkpoint time measured")
	}
	if res.NetworkIdle <= 0 {
		t.Fatal("no residual idle time — network should not be saturated")
	}
}

func TestExecutorBlockingOverheadMatchesPaper(t *testing.T) {
	// Fig. 16: Blocking is ≈10% over baseline on GPT-2 40B / p3dn.
	res := exec40B(t, schedule.SchemeBlocking)
	ov := res.Overhead()
	if ov < 0.05 || ov > 0.20 {
		t.Fatalf("blocking overhead %.1f%%, want ≈10%%", ov*100)
	}
}

func TestExecutorNaiveOOMs(t *testing.T) {
	// Fig. 16: naive interleave requires a buffer as large as the biggest
	// idle span's traffic (>2 GB per GPU in the paper) and OOMs.
	res := exec40B(t, schedule.SchemeNaive)
	if !res.OOM {
		t.Fatalf("naive interleave did not OOM; requires %v bytes", res.RequiredBufferBytes)
	}
	if res.IterationTime != 0 {
		t.Fatal("OOM run should not execute iterations")
	}
}

func TestExecutorNoPipelineWorseThanGemini(t *testing.T) {
	// Fig. 16: without pipelining the GPU→CPU copies stall transfers and
	// the iteration slows by a few percent; GEMINI stays at baseline.
	noPipe := exec40B(t, schedule.SchemeNoPipeline)
	gem := exec40B(t, schedule.SchemeGemini)
	if noPipe.OOM || gem.OOM {
		t.Fatal("unexpected OOM")
	}
	if noPipe.IterationTime <= gem.IterationTime {
		t.Fatalf("no-pipeline %v should be slower than GEMINI %v",
			noPipe.IterationTime, gem.IterationTime)
	}
	if ov := noPipe.Overhead(); ov < 0.01 || ov > 0.15 {
		t.Fatalf("no-pipeline overhead %.1f%%, want a few percent", ov*100)
	}
}

func TestExecutorGemini100BNoOverheadAndFastCheckpoint(t *testing.T) {
	// §7.2: per-iteration checkpointing of GPT-2 100B on p4d adds no
	// overhead and the checkpoint completes in < 3 s.
	cfg := cfg100B(t)
	opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), schedule.SchemeGemini)
	opts.Iterations = 2
	res, err := execute(t, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ov := res.Overhead(); ov > 0.02 {
		t.Fatalf("overhead %.2f%%, want ≈0%%", ov*100)
	}
	ck := res.CheckpointTime.Seconds()
	if ck <= 0 || ck > 3.5 {
		t.Fatalf("checkpoint time %.2fs, want < 3s (§7.2)", ck)
	}
	if res.NetworkIdle <= 0 {
		t.Fatal("idle time should remain after checkpoint insertion (Fig. 8)")
	}
}

func TestExecutorValidation(t *testing.T) {
	cfg := cfg40Bp3dn(t)
	tl, prof := derived(t, cfg)
	good := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), schedule.SchemeGemini)
	if _, err := Execute(nil, prof, good); err == nil {
		t.Error("missing timeline accepted")
	}
	if _, err := Execute(tl, nil, good); err == nil {
		t.Error("missing profile accepted")
	}
	if _, err := Execute(tl, prof, ExecOptions{}); err == nil {
		t.Error("missing placement accepted")
	}
	opts := DefaultExecOptions(placement.MustMixed(8, 2), schedule.SchemeGemini)
	if _, err := Execute(tl, prof, opts); err == nil {
		t.Error("mismatched placement size accepted")
	}
	opts = good
	opts.Iterations = 0
	if _, err := Execute(tl, prof, opts); err == nil {
		t.Error("zero iterations accepted")
	}
	opts = DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), schedule.SchemeBlocking)
	opts.BufferBytes = 1e3 // 3e10-byte shards in 250-byte chunks
	if _, err := Execute(tl, prof, opts); err == nil || !strings.Contains(err.Error(), "buffer size") {
		t.Errorf("buffer cut into more than maxChunks chunks: error %v", err)
	}
	bad := *tl
	bad.Config.Machines = 0
	if _, err := Execute(&bad, prof, good); err == nil {
		t.Error("invalid config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustExecute on invalid input did not panic")
		}
	}()
	MustExecute(&bad, prof, good)
}

// A NaN or infinite float option fails Execute with an error that names
// it, under every scheme, instead of panicking deep in the fabric (NaN
// buffer size, NaN gamma) or silently disabling a check (a NaN GPU
// budget once let Naive run where it must report OOM).
func TestExecutorRejectsNonFiniteOptions(t *testing.T) {
	cfg := cfg40Bp3dn(t)
	tl, prof := derived(t, cfg)
	fields := []struct {
		name string // what the error must mention
		set  func(*ExecOptions, float64)
	}{
		{"buffer size", func(o *ExecOptions, v float64) { o.BufferBytes = v }},
		{"gamma", func(o *ExecOptions, v float64) { o.Gamma = v }},
		{"GPU budget", func(o *ExecOptions, v float64) { o.GPUBudgetBytes = v }},
	}
	schemes := []schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeBlocking,
		schedule.SchemeNaive, schedule.SchemeNoPipeline, schedule.SchemeGemini}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, scheme := range schemes {
				opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), scheme)
				opts.Iterations = 1
				f.set(&opts, v)
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s = %v under %v: panic %v", f.name, v, scheme, r)
						}
					}()
					res, err := Execute(tl, prof, opts)
					if err == nil || !strings.Contains(err.Error(), f.name) {
						t.Errorf("%s = %v under %v: result %+v, error %v; want an error naming %s",
							f.name, v, scheme, res, err, f.name)
					}
				}()
			}
		}
	}
}

// A zero, NaN or infinite GPU→CPU copy bandwidth in the timeline's
// config fails Execute with an error naming it under every scheme,
// Baseline included, before any copier is built (netsim.MustNewCopier
// panics on it).
func TestExecutorRejectsBadCopyBandwidth(t *testing.T) {
	tl, prof := derived(t, cfg40Bp3dn(t))
	schemes := []schedule.Scheme{schedule.SchemeBaseline, schedule.SchemeBlocking,
		schedule.SchemeNaive, schedule.SchemeNoPipeline, schedule.SchemeGemini}
	for _, v := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, scheme := range schemes {
			bad := *tl
			bad.Config.Instance.GPUToCPUBytesPerSec = v
			opts := DefaultExecOptions(placement.MustMixed(bad.Config.Machines, 2), scheme)
			opts.Iterations = 1
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("copy bandwidth %v under %v: panic %v", v, scheme, r)
					}
				}()
				res, err := Execute(&bad, prof, opts)
				if err == nil || !strings.Contains(err.Error(), "copy bandwidth") {
					t.Errorf("copy bandwidth %v under %v: result %+v, error %v; want an error naming the copy bandwidth",
						v, scheme, res, err)
				}
			}()
		}
	}
}

func TestExecutorThreeReplicas(t *testing.T) {
	// m=3 doubles the remote checkpoint traffic; on 100B/p4d the idle
	// window still absorbs it.
	cfg := cfg100B(t)
	opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 3), schedule.SchemeGemini)
	opts.Iterations = 2
	res, err := execute(t, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatal("m=3 OOMed")
	}
	if ov := res.Overhead(); ov > 0.05 {
		t.Fatalf("m=3 overhead %.1f%%, want small", ov*100)
	}
}

func TestExecutorSingleReplicaLocalOnly(t *testing.T) {
	// m=1: no network checkpoint traffic at all; only local copies.
	cfg := cfg40Bp3dn(t)
	opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 1), schedule.SchemeGemini)
	opts.Iterations = 1
	res, err := execute(t, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ov := res.Overhead(); math.Abs(ov) > 0.02 {
		t.Fatalf("local-only overhead %.1f%%, want ≈0", ov*100)
	}
	if res.CheckpointTime <= 0 {
		t.Fatal("local copies should still be measured as checkpoint time")
	}
}

// A checkpoint completes when its last copy does, however the copied
// bytes round. These two shapes left a float residue of about 3e-5
// bytes when completion was a byte total counted down to under 1e-6,
// so no iteration's checkpoint ever completed and CheckpointWallTime
// read 0.
func TestExecutorCheckpointCompletesDespiteRounding(t *testing.T) {
	p3dn := cluster.MustInstance("p3dn.24xlarge")
	for _, tc := range []struct {
		model    string
		replicas int
	}{{"GPT-2 20B", 2}, {"GPT-2 10B", 3}} {
		cfg := MustNewConfig(model.MustByName(tc.model), p3dn, 4)
		opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, tc.replicas), schedule.SchemeGemini)
		opts.Iterations = 2
		res, err := execute(t, cfg, opts)
		if err != nil {
			t.Fatalf("%s, m=%d: %v", tc.model, tc.replicas, err)
		}
		if res.OOM || res.CheckpointWallTime <= 0 {
			t.Errorf("%s / 4 × p3dn, m=%d: OOM %v, checkpoint wall time %v; want a completed checkpoint",
				tc.model, tc.replicas, res.OOM, res.CheckpointWallTime)
		}
	}
}

// The executor publishes per-iteration training.* metrics and its
// realized Algorithm 2 idle utilization: GEMINI hides everything in idle
// spans (1), Blocking hides nothing (0), Baseline has nothing to hide.
func TestExecutorMetricsAndIdleUtilization(t *testing.T) {
	execWithMetrics := func(scheme schedule.Scheme) (*ExecResult, *metrics.Registry) {
		cfg := cfg40Bp3dn(t)
		opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), scheme)
		opts.Iterations = 2
		opts.Metrics = metrics.NewRegistry()
		res, err := execute(t, cfg, opts)
		if err != nil {
			t.Fatalf("Execute(%v): %v", scheme, err)
		}
		return res, opts.Metrics
	}

	res, reg := execWithMetrics(schedule.SchemeGemini)
	if res.IdleUtilization != 1 {
		t.Errorf("GEMINI idle utilization %v, want 1 (fits in idle spans)", res.IdleUtilization)
	}
	cs := reg.Snapshot()
	if v, _ := cs.Get("training.iterations"); v != 2 {
		t.Errorf("training.iterations = %v, want 2", v)
	}
	if v, _ := cs.Get("training.iteration_seconds.count"); v != 2 {
		t.Errorf("iteration_seconds.count = %v, want 2", v)
	}
	if v, _ := cs.Get("training.iteration_seconds.mean"); v != res.IterationTime.Seconds() {
		t.Errorf("iteration_seconds.mean = %v, want %v", v, res.IterationTime.Seconds())
	}
	if v, _ := cs.Get("training.ckpt_wall_seconds.count"); v != 2 {
		t.Errorf("ckpt_wall_seconds.count = %v, want 2", v)
	}
	if v, _ := cs.Get("training.idle_utilization"); v != 1 {
		t.Errorf("idle_utilization gauge = %v, want 1", v)
	}

	if res, _ := execWithMetrics(schedule.SchemeBlocking); res.IdleUtilization != 0 {
		t.Errorf("Blocking idle utilization %v, want 0 (gated)", res.IdleUtilization)
	}
	res, reg = execWithMetrics(schedule.SchemeBaseline)
	if res.IdleUtilization != 1 {
		t.Errorf("Baseline idle utilization %v, want 1 (vacuous)", res.IdleUtilization)
	}
	// Baseline takes no checkpoints: the checkpoint histogram stays empty.
	if v, _ := reg.Snapshot().Get("training.ckpt_wall_seconds.count"); v != 0 {
		t.Errorf("baseline ckpt_wall_seconds.count = %v, want 0", v)
	}
}

// chunkParams is a small Algorithm 2 instance: three idle spans at
// 100 B/s that carry 100, 200 and 50 bytes, 32-byte sub-buffers.
func chunkParams(checkpointBytes float64) schedule.Params {
	return schedule.Params{
		Spans:                []profile.Span{{Offset: 0, Length: 1}, {Offset: 5, Length: 2}, {Offset: 10, Length: 0.5}},
		CheckpointBytes:      checkpointBytes,
		Replicas:             2,
		BufferBytes:          128,
		BufferParts:          4,
		BandwidthBytesPerSec: 100,
		Gamma:                1,
	}
}

func mustChunkJobs(t *testing.T, scheme schedule.Scheme, params schedule.Params) chunkSchedule {
	t.Helper()
	cs, err := buildChunkJobs(scheme, params)
	if err != nil {
		t.Fatalf("buildChunkJobs(%v): %v", scheme, err)
	}
	return cs
}

// Baseline sends nothing, copies nothing and needs no GPU buffer.
func TestChunkScheduleBaselineFree(t *testing.T) {
	cs := mustChunkJobs(t, schedule.SchemeBaseline, chunkParams(200))
	if cs.jobs != nil || cs.enabled || cs.pipelined || cs.gated || cs.bufferBytes != 0 {
		t.Fatalf("baseline schedule %+v, want all zero", cs)
	}
	if u := cs.idleUtilization(chunkParams(200)); u != 1 {
		t.Fatalf("baseline idle utilization %v, want 1", u)
	}
}

// Blocking streams every replica byte at the iteration start through
// R/p chunks, unpipelined, with training gated behind it.
func TestChunkScheduleBlockingGatesFullTransfer(t *testing.T) {
	params := chunkParams(200)
	params.Replicas = 3
	cs := mustChunkJobs(t, schedule.SchemeBlocking, params)
	if !cs.enabled || !cs.gated || cs.pipelined || cs.bufferBytes != params.BufferBytes {
		t.Fatalf("blocking schedule %+v, want gated, unpipelined, buffer R", cs)
	}
	var total float64
	for _, j := range cs.jobs {
		if j.notBefore != 0 || j.bytes > params.BufferBytes/float64(params.BufferParts) {
			t.Fatalf("blocking job %+v, want ≤ R/p released at the start", j)
		}
		total += j.bytes
	}
	if total != 400 {
		t.Fatalf("blocking sends %v bytes, want (m−1)·C = 400", total)
	}
	if u := cs.idleUtilization(params); u != 0 {
		t.Fatalf("blocking idle utilization %v, want 0", u)
	}
}

// Naive's buffer demand is the largest traffic any one span can carry,
// over every span: not the largest chunk it sends (a chunk capped by
// what is left is smaller, and the leftover chunk past the spans can be
// larger), and not only the spans it uses.
func TestChunkScheduleNaiveBufferIsLargestSpanCarry(t *testing.T) {
	params := chunkParams(150) // the first two spans carry it all
	cs := mustChunkJobs(t, schedule.SchemeNaive, params)
	if cs.bufferBytes != 200 {
		t.Fatalf("naive buffer %v, want the second span's 200", cs.bufferBytes)
	}
	if len(cs.jobs) != 2 || cs.jobs[0].bytes != 100 || cs.jobs[1].bytes != 50 {
		t.Fatalf("naive jobs %+v, want 100 then 50 bytes", cs.jobs)
	}
	if cs.gated || cs.pipelined {
		t.Fatalf("naive schedule %+v, want ungated and unpipelined", cs)
	}

	params = chunkParams(100)
	params.Replicas = 3 // both replicas fit in the first two spans
	params.Spans[2].Length = 4
	cs = mustChunkJobs(t, schedule.SchemeNaive, params)
	if cs.bufferBytes != 400 {
		t.Fatalf("naive buffer %v, want the unused third span's 400", cs.bufferBytes)
	}

	params = chunkParams(1000) // 650 bytes left after the spans
	cs = mustChunkJobs(t, schedule.SchemeNaive, params)
	if last := cs.jobs[len(cs.jobs)-1]; last.bytes != 650 || cs.bufferBytes != 200 {
		t.Fatalf("naive leftover %+v, buffer %v; want a 650-byte leftover and a 200-byte buffer", last, cs.bufferBytes)
	}
}

// NoPipeline and GEMINI both send Algorithm 2's plan through the R
// buffer; only GEMINI with p > 1 pipelines transfers with copies.
func TestChunkScheduleInterleavedFollowsPlan(t *testing.T) {
	params := chunkParams(200)
	plan := schedule.MustPartition(params)
	noPipe := mustChunkJobs(t, schedule.SchemeNoPipeline, params)
	gem := mustChunkJobs(t, schedule.SchemeGemini, params)
	if len(gem.jobs) != len(plan.Chunks) {
		t.Fatalf("GEMINI sends %d chunks, plan has %d", len(gem.jobs), len(plan.Chunks))
	}
	for i, c := range plan.Chunks {
		j := gem.jobs[i]
		if j.replica != c.Replica || j.bytes != c.Bytes || j.notBefore != params.Spans[c.Span].Offset {
			t.Fatalf("job %d %+v, want chunk %+v at its span's offset", i, j, c)
		}
	}
	if !reflect.DeepEqual(noPipe.jobs, gem.jobs) || noPipe.bufferBytes != params.BufferBytes || gem.bufferBytes != params.BufferBytes {
		t.Fatalf("NoPipeline %+v and GEMINI %+v differ in chunks or buffer", noPipe, gem)
	}
	if noPipe.pipelined || !gem.pipelined || noPipe.gated || gem.gated {
		t.Fatalf("pipelined: NoPipeline %v, GEMINI %v; want false, true, neither gated", noPipe.pipelined, gem.pipelined)
	}
	if u := gem.idleUtilization(params); !plan.Fits || u != 1 {
		t.Fatalf("fitting plan: utilization %v, want 1", u)
	}
	params.BufferParts = 1
	if cs := mustChunkJobs(t, schedule.SchemeGemini, params); cs.pipelined {
		t.Fatal("GEMINI with one sub-buffer pipelined")
	}
}

// The executor's realized idle utilization mirrors Algorithm 2's own
// accounting: on the plan it executes, fitting or overflowing, it must
// equal schedule.Plan.IdleUtilization.
func TestIdleUtilizationMatchesPlan(t *testing.T) {
	for _, bytes := range []float64{200, 10_000} {
		params := chunkParams(bytes)
		got := mustChunkJobs(t, schedule.SchemeGemini, params).idleUtilization(params)
		want := schedule.MustPartition(params).IdleUtilization()
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%.0f checkpoint bytes: executor utilization %v, plan %v", bytes, got, want)
		}
		if bytes > 200 && got >= 1 {
			t.Errorf("%.0f checkpoint bytes: utilization %v, want an overflowing plan", bytes, got)
		}
	}
}

// The executor runs BuildTimeline's steps, so its trace names every
// collective and compute step as the timeline does: all-gathers
// ag-fwd<l> and ag-bwd<l>, and backward step c as layer 2L−1−c. The
// executor's comm queue may order a ready reduce-scatter differently
// against the all-gathers, so each comm kind is compared on its own.
func TestExecutorStepLabelsMatchTimeline(t *testing.T) {
	for _, cfg := range []Config{cfg100B(t), cfg40Bp3dn(t)} {
		tl, prof := derived(t, cfg)
		opts := DefaultExecOptions(placement.MustMixed(cfg.Machines, 2), schedule.SchemeBaseline)
		opts.Iterations = 1
		opts.Tracer = trace.NewTracer(nil)
		if _, err := Execute(tl, prof, opts); err != nil {
			t.Fatal(err)
		}
		// Every executed iteration, the warmup included, repeats the
		// timeline's labels.
		var ag, rs, compute []string
		for iter := 0; iter <= opts.Iterations; iter++ {
			for _, op := range tl.Ops {
				switch op.Kind {
				case OpAllGather:
					ag = append(ag, op.Label)
				case OpReduceScatter:
					rs = append(rs, op.Label)
				default:
					compute = append(compute, op.Label)
				}
			}
		}
		nics := 0
		for _, tk := range opts.Tracer.Tracks() {
			var names, nicAG, nicRS []string
			for _, sp := range tk.Spans() {
				names = append(names, sp.Name)
				if strings.HasPrefix(sp.Name, "rs-") {
					nicRS = append(nicRS, sp.Name)
				} else {
					nicAG = append(nicAG, sp.Name)
				}
			}
			track := cfg.Model.Name() + " " + tk.Process + "/" + tk.Thread
			switch {
			case tk.Thread == "nic":
				nics++
				sameLabels(t, track+" all-gathers", nicAG, ag)
				sameLabels(t, track+" reduce-scatters", nicRS, rs)
			case tk.Process == "cluster" && tk.Thread == "compute":
				sameLabels(t, track, names, compute)
			}
		}
		if nics != cfg.Machines {
			t.Fatalf("%s: %d NIC tracks, want %d", cfg.Model.Name(), nics, cfg.Machines)
		}
	}
}

// sameLabels fails at the first label where got and want part.
func sameLabels(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: label %d is %s, want %s", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", what, len(got), len(want))
	}
}
