package training

import (
	"fmt"
	"strconv"
	"sync"

	"gemini/internal/metrics"
	"gemini/internal/netsim"
	"gemini/internal/placement"
	"gemini/internal/profile"
	"gemini/internal/schedule"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

// ExecOptions configures checkpointing for the executor.
type ExecOptions struct {
	// Placement decides which machines receive each machine's shard.
	Placement *placement.Placement
	// Scheme is the interleaving scheme under test.
	Scheme schedule.Scheme
	// BufferBytes is the reserved GPU buffer R per machine (the paper
	// reserves 128 MB per GPU, 1 GB per 8-GPU machine).
	BufferBytes float64
	// BufferParts is the pipeline sub-buffer count p.
	BufferParts int
	// GPUBudgetBytes is the GPU memory available for checkpoint buffers;
	// schemes needing more report OOM.
	GPUBudgetBytes float64
	// Gamma is Algorithm 2's idle-span safety coefficient.
	Gamma float64
	// Iterations to execute (after one unmeasured warmup).
	Iterations int
	// ProfileWindow is the §5.4 online-profiling window.
	ProfileWindow int
	// Tracer, when non-nil, records the run's structured trace: iteration
	// and compute spans on cluster tracks, every finished flow on its
	// source machine's NIC track, copies on per-machine copier tracks.
	// Nil (the default) keeps the hot paths allocation-free.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives per-iteration observations under
	// the training.* namespace (iteration/checkpoint/idle histograms and
	// the Algorithm 2 idle-utilization gauge). Nil disables them free.
	Metrics *metrics.Registry
	// Timeline, when non-nil, is used instead of rebuilding the iteration
	// timeline from cfg. It must have been built from the same cfg (the
	// derivation cache passes its shared, read-only copy). The executor
	// never mutates it.
	Timeline *Timeline
	// Profile, when non-nil, is used instead of re-profiling Timeline.
	// It must match Timeline and ProfileWindow; the executor never
	// mutates it.
	Profile *profile.Profile
}

// DefaultExecOptions returns the paper's implementation parameters.
func DefaultExecOptions(p *placement.Placement, scheme schedule.Scheme) ExecOptions {
	return ExecOptions{
		Placement:      p,
		Scheme:         scheme,
		BufferBytes:    8 * 128e6, // 128 MB per GPU × 8 GPUs
		BufferParts:    4,
		GPUBudgetBytes: 8 * 256e6,
		Gamma:          0.9,
		Iterations:     3,
		ProfileWindow:  20,
	}
}

// ExecResult reports what the executor measured.
type ExecResult struct {
	// IterationTime is the mean measured iteration duration.
	IterationTime simclock.Duration
	// BaselineIteration is the analytic no-checkpoint iteration time.
	BaselineIteration simclock.Duration
	// CheckpointTime is the standalone checkpoint completion time t_ckpt:
	// how long writing the checkpoint to CPU memory takes when not spread
	// across idle spans (what Figures 11 and 12 report, and the t_ckpt of
	// Equation 1). Zero when the scheme takes no checkpoints.
	CheckpointTime simclock.Duration
	// CheckpointWallTime is the mean time from a checkpoint's first chunk
	// to its last commit under the interleaved schedule — it can span
	// most of the iteration because chunks wait for idle spans.
	CheckpointWallTime simclock.Duration
	// NetworkIdle is the mean per-iteration network idle time observed on
	// a machine NIC, checkpoint traffic included.
	NetworkIdle simclock.Duration
	// IdleUtilization is the fraction of checkpoint bytes released inside
	// profiled idle spans rather than after them — the executor-side view
	// of schedule.Plan.IdleUtilization. 1 for Baseline (no traffic to
	// hide), 0 for Blocking (training gated behind the full transfer).
	IdleUtilization float64
	// OOM reports that the scheme needed more GPU memory than available;
	// no iterations were executed.
	OOM bool
	// RequiredBufferBytes is the scheme's GPU buffer demand.
	RequiredBufferBytes float64
	// FabricCounters snapshots the network engine's counters after the
	// run: flow totals, recompute work, and the dirty-set hit rate.
	FabricCounters metrics.CounterSet
}

// Overhead returns the iteration-time overhead over the no-checkpoint
// baseline as a fraction (0.035 = 3.5%).
func (r *ExecResult) Overhead() float64 {
	if r.BaselineIteration == 0 {
		return 0
	}
	return float64((r.IterationTime - r.BaselineIteration) / r.BaselineIteration)
}

// Execute runs the training job on the fluid network simulator with the
// chosen checkpointing scheme and measures iteration time, checkpoint
// completion time and residual network idle time. Training collectives
// and checkpoint chunks share the machines' NICs, so interference (or its
// absence) is an outcome, not an assumption.
func Execute(cfg Config, opts ExecOptions) (*ExecResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Placement == nil {
		return nil, fmt.Errorf("training: executor needs a placement")
	}
	if opts.Placement.N != cfg.Machines {
		return nil, fmt.Errorf("training: placement over %d machines, cluster has %d", opts.Placement.N, cfg.Machines)
	}
	if opts.Iterations < 1 {
		return nil, fmt.Errorf("training: need at least one iteration, got %d", opts.Iterations)
	}
	if opts.ProfileWindow < 1 {
		return nil, fmt.Errorf("training: need a positive profile window")
	}

	tl, prof := opts.Timeline, opts.Profile
	if tl == nil {
		var err error
		if tl, err = BuildTimeline(cfg); err != nil {
			return nil, err
		}
	}
	if prof == nil {
		var err error
		if prof, err = tl.Profile(opts.ProfileWindow); err != nil {
			return nil, err
		}
	}

	shard := cfg.ShardBytesPerMachine()
	params := schedule.Params{
		Spans:                prof.Spans,
		CheckpointBytes:      shard,
		Replicas:             opts.Placement.M,
		BufferBytes:          opts.BufferBytes,
		BufferParts:          opts.BufferParts,
		BandwidthBytesPerSec: cfg.Instance.NetworkBytesPerSec,
		Alpha:                cfg.Calib.CollectiveAlpha,
		Gamma:                opts.Gamma,
	}
	analysis, err := schedule.AnalyzeScheme(opts.Scheme, params, opts.GPUBudgetBytes, cfg.Instance.GPUToCPUBytesPerSec)
	if err != nil {
		return nil, err
	}
	res := &ExecResult{
		BaselineIteration:   tl.Iteration,
		RequiredBufferBytes: analysis.RequiredBufferBytes,
		OOM:                 analysis.OOM,
	}
	if analysis.OOM {
		return res, nil
	}

	jobs, pipelined, gated, err := buildChunkJobs(opts.Scheme, params)
	if err != nil {
		return nil, err
	}
	res.IdleUtilization = idleUtilization(opts.Scheme, jobs, params)
	opts.Metrics.Gauge("training.idle_utilization").Set(res.IdleUtilization)
	if opts.Scheme != schedule.SchemeBaseline {
		res.CheckpointTime = StandaloneCheckpointTime(cfg, opts.Placement.M, opts.BufferBytes, opts.BufferParts)
	}
	ex := &executor{
		cfg: cfg, opts: opts, shard: shard,
		jobs: jobs, pipelined: pipelined, gated: gated,
		enabled: opts.Scheme != schedule.SchemeBaseline,
	}
	ex.run(res)
	return res, nil
}

// StandaloneCheckpointTime returns t_ckpt: the time to complete one
// checkpoint to CPU memory on an otherwise idle network — the m−1 remote
// replicas pipelined through R/p-sized chunks (transfer at wire speed,
// per-chunk startup latency, one trailing receiver copy), overlapped with
// the local GPU→CPU shard copy.
func StandaloneCheckpointTime(cfg Config, replicas int, bufferBytes float64, bufferParts int) simclock.Duration {
	shard := cfg.ShardBytesPerMachine()
	localCopy := simclock.Duration(shard / cfg.Instance.GPUToCPUBytesPerSec)
	remote := float64(replicas-1) * shard
	if remote == 0 {
		return localCopy
	}
	chunk := bufferBytes / float64(bufferParts)
	chunks := simclock.Duration(0)
	if chunk > 0 {
		chunks = simclock.Duration(float64(int((remote+chunk-1)/chunk))) * cfg.Calib.CollectiveAlpha
	}
	transfer := simclock.Duration(remote/cfg.Instance.NetworkBytesPerSec) + chunks
	trailingCopy := simclock.Duration(minFloat(chunk, remote) / cfg.Instance.GPUToCPUBytesPerSec)
	return maxDur(transfer+trailingCopy, localCopy)
}

func minFloat(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// MustExecute is Execute for known-good configurations.
func MustExecute(cfg Config, opts ExecOptions) *ExecResult {
	res, err := Execute(cfg, opts)
	if err != nil {
		panic(err)
	}
	return res
}

// chunkJob is one checkpoint chunk each machine must send to one of its
// peers, releasable at an offset within the iteration.
type chunkJob struct {
	replica   int // index into PeersOf(machine)
	bytes     float64
	notBefore simclock.Duration
}

// buildChunkJobs turns the scheme + Algorithm 2 parameters into the
// per-machine chunk schedule (identical across machines by symmetry),
// plus the pipelining and gating behavior.
func buildChunkJobs(scheme schedule.Scheme, params schedule.Params) (jobs []chunkJob, pipelined, gated bool, err error) {
	remote := params.Replicas - 1
	switch scheme {
	case schedule.SchemeBaseline:
		return nil, false, false, nil
	case schedule.SchemeBlocking:
		// Replicas streamed up front through the chunked buffer without
		// pipelining; training gated behind the full checkpoint.
		chunk := params.BufferBytes / float64(params.BufferParts)
		for r := 0; r < remote; r++ {
			remain := params.CheckpointBytes
			for remain > 0 {
				sz := chunk
				if sz > remain {
					sz = remain
				}
				remain -= sz
				jobs = append(jobs, chunkJob{replica: r, bytes: sz})
			}
		}
		return jobs, false, true, nil
	case schedule.SchemeNaive:
		// One partition per idle span, sized to the span's capacity.
		remainPerReplica := params.CheckpointBytes
		replica := 0
		for _, span := range params.Spans {
			if replica >= remote {
				break
			}
			carry := (simclock.Duration(params.Gamma)*span.Length - params.Alpha).Seconds() * params.BandwidthBytesPerSec
			if carry <= 0 {
				continue
			}
			size := carry
			if size > remainPerReplica {
				size = remainPerReplica
			}
			jobs = append(jobs, chunkJob{replica: replica, bytes: size, notBefore: span.Offset})
			remainPerReplica -= size
			if remainPerReplica == 0 {
				replica++
				remainPerReplica = params.CheckpointBytes
			}
		}
		// Leftover (spans exhausted) goes at the end, unpipelined.
		for replica < remote {
			jobs = append(jobs, chunkJob{replica: replica, bytes: remainPerReplica, notBefore: lastOffset(params)})
			replica++
			remainPerReplica = params.CheckpointBytes
		}
		return jobs, false, false, nil
	case schedule.SchemeNoPipeline, schedule.SchemeGemini:
		plan, err := schedule.Partition(params)
		if err != nil {
			return nil, false, false, err
		}
		for _, c := range plan.Chunks {
			nb := lastOffset(params)
			if c.Span < len(params.Spans) {
				nb = params.Spans[c.Span].Offset
			}
			jobs = append(jobs, chunkJob{replica: c.Replica, bytes: c.Bytes, notBefore: nb})
		}
		// A single buffer cannot overlap its own copy with the next
		// receive, so p=1 degenerates to the unpipelined behavior even
		// under the GEMINI scheme.
		return jobs, scheme == schedule.SchemeGemini && params.BufferParts > 1, false, nil
	default:
		return nil, false, false, fmt.Errorf("training: unknown scheme %v", scheme)
	}
}

// idleUtilization mirrors schedule.Plan.IdleUtilization over the
// executor's realized job list: the fraction of checkpoint bytes whose
// release offset falls inside a profiled idle span. Baseline moves no
// bytes (vacuously 1); Blocking gates training behind the transfer, so
// nothing is hidden (0).
func idleUtilization(scheme schedule.Scheme, jobs []chunkJob, params schedule.Params) float64 {
	switch scheme {
	case schedule.SchemeBaseline:
		return 1
	case schedule.SchemeBlocking:
		return 0
	}
	last := lastOffset(params)
	var total, inSpan float64
	for _, j := range jobs {
		total += j.bytes
		if j.notBefore < last {
			inSpan += j.bytes
		}
	}
	if total == 0 {
		return 1
	}
	return inSpan / total
}

func lastOffset(params schedule.Params) simclock.Duration {
	if len(params.Spans) == 0 {
		return 0
	}
	last := params.Spans[len(params.Spans)-1]
	return last.Offset + last.Length
}

// execScratch is the pooled per-run arena: every slice the executor
// needs per run or per iteration, recycled across Execute calls so a
// warm campaign run reuses the backings instead of reallocating them.
// The engine, fabric, and copiers themselves are per-run (they are bound
// to one simclock engine), but their container slices recycle.
type execScratch struct {
	computeDur                    []simclock.Duration
	agDone, compStarted, compDone []bool
	copiers                       []*netsim.Copier
	iterTimes, ckptTimes, idleTimes []simclock.Duration
}

var execScratchPool = sync.Pool{New: func() any { return new(execScratch) }}

// resetBools returns b resized to n with every element false, growing
// the backing only when needed.
func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// agStepCache interns the executor's "ag<step>" collective labels, the
// same way labelsFor interns the timeline's per-layer labels: they
// depend only on the step index, so one slice serves every run.
var (
	agStepMu    sync.Mutex
	agStepCache []string
)

func agStepLabels(n int) []string {
	agStepMu.Lock()
	defer agStepMu.Unlock()
	for i := len(agStepCache); i < n; i++ {
		agStepCache = append(agStepCache, "ag"+strconv.Itoa(i))
	}
	return agStepCache[:n:n]
}

// executor carries per-run simulation state.
type executor struct {
	cfg       Config
	opts      ExecOptions
	shard     float64
	jobs      []chunkJob
	pipelined bool
	gated     bool
	enabled   bool
	observer  *flowObserver // set during online profiling runs

	engine  *simclock.Engine
	fabric  *netsim.Fabric
	copiers []*netsim.Copier
	scratch *execScratch

	iterTrack *trace.Track // nil = untraced
	compTrack *trace.Track

	iterStart  simclock.Time
	ckptStart  simclock.Time
	ckptSeen   bool
	ckptDone   simclock.Time
	copiedLeft float64
	gateClosed bool
	pump       func()
}

func (ex *executor) run(res *ExecResult) {
	n := ex.cfg.Machines
	ex.engine = simclock.NewEngine()
	ex.fabric = netsim.MustNewFabric(ex.engine, n, netsim.Config{
		EgressBytesPerSec: ex.cfg.Instance.NetworkBytesPerSec,
		Alpha:             ex.cfg.Calib.CollectiveAlpha,
	})
	sc := execScratchPool.Get().(*execScratch)
	ex.scratch = sc
	defer func() {
		// Drop the copier pointers (they hold the dead engine alive) but
		// keep every backing array for the next run.
		for i := range sc.copiers {
			sc.copiers[i] = nil
		}
		execScratchPool.Put(sc)
	}()
	if cap(sc.copiers) >= n {
		ex.copiers = sc.copiers[:n]
	} else {
		ex.copiers = make([]*netsim.Copier, n)
	}
	sc.copiers = ex.copiers
	for i := range ex.copiers {
		ex.copiers[i] = netsim.MustNewCopier(ex.engine, ex.cfg.Instance.GPUToCPUBytesPerSec)
	}
	if tr := ex.opts.Tracer; tr.Enabled() {
		tr.SetNow(ex.engine.Now)
		ex.fabric.SetTracer(tr)
		for i := range ex.copiers {
			ex.copiers[i].SetTrack(tr.Track(fmt.Sprintf("machine-%d", i), "copier"))
		}
		ex.iterTrack = tr.Track("cluster", "iteration")
		ex.compTrack = tr.Track("cluster", "compute")
	}

	// Nil-registry instruments no-op, so the untracked path stays free.
	iterHist := ex.opts.Metrics.Histogram("training.iteration_seconds")
	ckptHist := ex.opts.Metrics.Histogram("training.ckpt_wall_seconds")
	idleHist := ex.opts.Metrics.Histogram("training.network_idle_seconds")
	iterCount := ex.opts.Metrics.Counter("training.iterations")

	iterTimes := sc.iterTimes[:0]
	ckptTimes := sc.ckptTimes[:0]
	idleTimes := sc.idleTimes[:0]
	total := ex.opts.Iterations + 1 // one warmup
	for iter := 0; iter < total; iter++ {
		ex.iterStart = ex.engine.Now()
		ex.ckptSeen = false
		ex.ckptStart, ex.ckptDone = 0, 0
		ex.fabric.ResetBusyTime()
		ex.startIteration()
		ex.engine.RunAll()
		iterLen := ex.engine.Now().Sub(ex.iterStart)
		if ex.iterTrack.Enabled() {
			args := fmt.Sprintf("iter=%d", iter)
			if iter == 0 {
				args = "iter=0 warmup=true"
			}
			ex.iterTrack.SpanArgs(trace.CatTraining, "iteration", ex.iterStart, ex.engine.Now(), args)
		}
		if iter == 0 {
			continue
		}
		iterTimes = append(iterTimes, iterLen)
		iterCount.Inc()
		iterHist.Observe(iterLen.Seconds())
		if ex.ckptDone > ex.ckptStart {
			ckptTimes = append(ckptTimes, ex.ckptDone.Sub(ex.ckptStart))
			ckptHist.Observe(ex.ckptDone.Sub(ex.ckptStart).Seconds())
		}
		idleTimes = append(idleTimes, iterLen-ex.fabric.BusyTime(0))
		idleHist.Observe((iterLen - ex.fabric.BusyTime(0)).Seconds())
	}
	res.IterationTime = meanDur(iterTimes)
	if len(ckptTimes) > 0 {
		res.CheckpointWallTime = meanDur(ckptTimes)
	}
	res.NetworkIdle = meanDur(idleTimes)
	res.FabricCounters = ex.fabric.Stats().Counters()
	sc.iterTimes, sc.ckptTimes, sc.idleTimes = iterTimes, ckptTimes, idleTimes
}

func meanDur(ds []simclock.Duration) simclock.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum simclock.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / simclock.Duration(len(ds))
}

// startIteration wires one iteration's dependency graph. All machines
// march in lockstep (synchronous training), so the collective sequence is
// shared: a collective is N simultaneous ring flows and completes when
// the slowest finishes. Compute runs on a serial per-machine stream
// (symmetric, so modeled once). Checkpoint chunk senders run per machine
// and contend with the collectives on the fabric.
func (ex *executor) startIteration() {
	cfg := ex.cfg
	n := cfg.Machines
	L := cfg.Model.Layers
	layerBytes := cfg.Model.LayerFP16Bytes()

	// Effective ring-flow bytes: one uncontended flow per machine must
	// take the collective's analytic time minus the startup latency.
	effBytes := func(kind netsim.CollectiveKind) float64 {
		t := netsim.CollectiveTime(kind, n, layerBytes, cfg.collectiveBandwidth(), cfg.Calib.CollectiveAlpha)
		payload := (t - cfg.Calib.CollectiveAlpha).Seconds() * cfg.Instance.NetworkBytesPerSec
		if payload < 0 {
			payload = 0
		}
		return payload
	}
	agBytes := effBytes(netsim.AllGather)
	rsBytes := effBytes(netsim.ReduceScatter)

	// Two in-order comm queues share one channel: all-gathers (gated by
	// the prefetch window) and reduce-scatters (ready when their layer's
	// backward compute finishes). Ready reduce-scatters take priority,
	// matching BuildTimeline's stream semantics.
	sc := ex.scratch
	computeDur := sc.computeDur[:0]
	tokens := float64(cfg.Model.SeqLen * cfg.Model.MicroBatch)
	fwd := simclock.Duration(2 * float64(cfg.Model.NominalParams) / float64(L) * tokens /
		(cfg.Instance.PeakFLOPsPerGPU * cfg.Calib.MFU))
	for l := 0; l < L; l++ {
		computeDur = append(computeDur, fwd)
	}
	for l := 0; l < L; l++ {
		computeDur = append(computeDur, 3*fwd)
	}
	sc.computeDur = computeDur
	steps := 2 * L // compute/all-gather step count
	agNext, rsNext := 0, 0
	agDone := resetBools(sc.agDone, steps)
	commInFlight := false
	compNext := 0
	compBusy := false
	compStarted := resetBools(sc.compStarted, steps)
	compDone := resetBools(sc.compDone, steps)
	sc.agDone, sc.compStarted, sc.compDone = agDone, compStarted, compDone
	updateStarted := false
	layerLbls := labelsFor(L)
	agLbls := agStepLabels(steps)

	ex.gateClosed = ex.gated

	startCollective := func(label string, bytes float64, done func()) {
		remaining := n
		var observe func(*netsim.Flow)
		if ex.observer != nil {
			observe = ex.observer.observe(label, ex.engine.Now())
		}
		// One callback shared by all n ring flows; machine 0's flow feeds
		// the online profiler. Nothing else holds the flows, so each goes
		// back to the fabric for the next collective to reuse.
		onDone := func(fl *netsim.Flow) {
			if observe != nil && fl.Src == 0 {
				observe(fl)
			}
			fl.Release()
			remaining--
			if remaining == 0 {
				done()
			}
		}
		for i := 0; i < n; i++ {
			ex.fabric.StartFlow(i, (i+1)%n, bytes, label, onDone)
		}
	}

	var pump func()
	pump = func() {
		if ex.gateClosed {
			return
		}
		// Comm channel: prefer a ready reduce-scatter, else the next
		// all-gather whose prefetch gate is open.
		if !commInFlight {
			switch {
			case rsNext < L && compDone[L+rsNext]:
				l := rsNext
				rsNext++
				commInFlight = true
				startCollective(layerLbls[l].rsLabel, rsBytes, func() {
					commInFlight = false
					pump()
				})
			case agNext < steps && (agNext < prefetchDepth || compStarted[agNext-prefetchDepth]):
				c := agNext
				agNext++
				commInFlight = true
				startCollective(agLbls[c], agBytes, func() {
					agDone[c] = true
					commInFlight = false
					pump()
				})
			}
		}
		// Compute stream.
		if !compBusy && compNext < steps && agDone[compNext] {
			c := compNext
			compNext++
			compBusy = true
			compStarted[c] = true
			compStart := ex.engine.Now()
			ex.engine.After(computeDur[c], func() {
				compBusy = false
				compDone[c] = true
				if ex.compTrack.Enabled() {
					name := fmt.Sprintf("fwd%d", c)
					if c >= L {
						name = fmt.Sprintf("bwd%d", c-L)
					}
					ex.compTrack.Span(trace.CatTraining, name, compStart, ex.engine.Now())
				}
				pump()
			})
		}
		// Update phase once both streams drain.
		if !updateStarted && compNext == steps && !compBusy &&
			agNext == steps && rsNext == L && !commInFlight {
			updateStarted = true
			upd := simclock.Duration(ex.shard / 1e9 * cfg.Calib.UpdatePhaseSecondsPerGB)
			updStart := ex.engine.Now()
			ex.engine.After(upd, func() {
				ex.compTrack.Span(trace.CatTraining, "update", updStart, ex.engine.Now())
			})
		}
	}
	ex.pump = pump
	ex.startCheckpoint()
	pump()
}

// startCheckpoint launches the per-machine checkpoint senders and the
// local GPU→CPU shard copies.
func (ex *executor) startCheckpoint() {
	if !ex.enabled {
		return
	}
	n := ex.cfg.Machines
	// Bytes to copy D2H across the cluster: every machine copies its own
	// shard locally plus every received remote chunk.
	remoteBytes := float64(ex.opts.Placement.M-1) * ex.shard
	ex.copiedLeft = float64(n) * (ex.shard + remoteBytes)
	if ex.copiedLeft == 0 {
		return
	}

	markActivity := func() {
		if !ex.ckptSeen {
			ex.ckptSeen = true
			ex.ckptStart = ex.engine.Now()
		}
	}
	// copied accounts a finished copy and releases it to its copier.
	copied := func(cp *netsim.Copy) {
		ex.copiedLeft -= cp.Bytes
		cp.Release()
		if ex.copiedLeft < 1e-6 {
			ex.ckptDone = ex.engine.Now()
			if ex.gateClosed {
				ex.gateClosed = false
				ex.pump()
			}
		}
	}

	chunkSize := ex.opts.BufferBytes / float64(ex.opts.BufferParts)
	for machine := 0; machine < n; machine++ {
		machine := machine
		// Local shard copy, partitioned like the remote chunks (§5.3
		// "Move checkpoints from GPU to local CPU").
		remain := ex.shard
		for remain > 0 {
			sz := chunkSize
			if sz > remain {
				sz = remain
			}
			remain -= sz
			ex.engine.After(0, func() {
				markActivity()
				ex.copiers[machine].Submit(sz, "local-ckpt", copied)
			})
		}

		peers := ex.opts.Placement.PeersOf(machine)
		if len(peers) == 0 || len(ex.jobs) == 0 {
			continue
		}
		// Sequential chunk sender: one transfer in flight; the next starts
		// when the previous transfer (pipelined) or its receiver copy
		// (unpipelined) finishes, and never before the chunk's release
		// offset.
		idx := 0
		var sendNext func()
		sendNext = func() {
			if idx >= len(ex.jobs) {
				return
			}
			job := ex.jobs[idx]
			release := ex.iterStart.Add(job.notBefore)
			if ex.engine.Now() < release {
				ex.engine.At(release, sendNext)
				return
			}
			idx++
			dst := peers[job.replica%len(peers)]
			markActivity()
			ex.fabric.StartFlow(machine, dst, job.bytes, "ckpt-chunk", func(fl *netsim.Flow) {
				fl.Release()
				ex.copiers[dst].Submit(job.bytes, "remote-ckpt", func(cp *netsim.Copy) {
					copied(cp)
					if !ex.pipelined {
						sendNext()
					}
				})
				if ex.pipelined {
					sendNext()
				}
			})
		}
		ex.engine.After(0, sendNext)
	}
}
