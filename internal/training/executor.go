package training

import (
	"fmt"
	"math"

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
	// Tracer, when non-nil, records the run's structured trace: iteration
	// and compute spans on cluster tracks, every finished flow on its
	// source machine's NIC track, copies on per-machine copier tracks.
	// Nil (the default) keeps the hot paths allocation-free.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives per-iteration observations under
	// the training.* namespace (iteration/checkpoint/idle histograms and
	// the Algorithm 2 idle-utilization gauge). Nil disables them free.
	Metrics *metrics.Registry
}

// DefaultExecOptions returns the paper's implementation parameters.
func DefaultExecOptions(p *placement.Placement, scheme schedule.Scheme) ExecOptions {
	return ExecOptions{
		Placement:      p,
		Scheme:         scheme,
		BufferBytes:    schedule.DefaultBufferBytes,
		BufferParts:    schedule.DefaultBufferParts,
		GPUBudgetBytes: schedule.DefaultGPUBudgetBytes,
		Gamma:          schedule.DefaultGamma,
		Iterations:     3,
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

// Execute runs the ZeRO-3 job of a BuildTimeline timeline on the fluid
// network simulator with the chosen checkpointing scheme, placing
// checkpoint chunks into the idle spans of prof, the timeline's §5.4
// profile. It measures iteration time, checkpoint completion time and
// residual network idle time. Training collectives and checkpoint chunks
// share the machines' NICs, so interference (or its absence) is an
// outcome, not an assumption. The executor never mutates tl or prof, so
// the derivation cache's shared copies can be passed in.
func Execute(tl *Timeline, prof *profile.Profile, opts ExecOptions) (*ExecResult, error) {
	if tl == nil || prof == nil {
		return nil, fmt.Errorf("training: executor needs a timeline and its profile")
	}
	cfg := tl.Config
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
	if !(opts.GPUBudgetBytes >= 0 && opts.GPUBudgetBytes <= math.MaxFloat64) {
		return nil, fmt.Errorf("training: GPU budget must be finite and non-negative, got %v", opts.GPUBudgetBytes)
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
	// Each machine moves its m replicas, the local one included, through
	// the GPU buffer in R/p chunks, and the executor simulates every one;
	// a buffer cut finer than maxChunks would stall it.
	if chunks := float64(opts.Placement.M) * shard / (opts.BufferBytes / float64(opts.BufferParts)); chunks > maxChunks {
		return nil, fmt.Errorf("training: buffer size %v in %d parts cuts a checkpoint into %.3g chunks, more than %d",
			opts.BufferBytes, opts.BufferParts, chunks, maxChunks)
	}
	cs, err := buildChunkJobs(opts.Scheme, params)
	if err != nil {
		return nil, err
	}
	res := &ExecResult{
		BaselineIteration:   tl.Iteration,
		RequiredBufferBytes: cs.bufferBytes,
		OOM:                 cs.bufferBytes > opts.GPUBudgetBytes,
	}
	if res.OOM {
		return res, nil
	}
	res.IdleUtilization = cs.idleUtilization(params)
	opts.Metrics.Gauge("training.idle_utilization").Set(res.IdleUtilization)
	if cs.enabled {
		res.CheckpointTime = StandaloneCheckpointTime(cfg, opts.Placement.M, opts.BufferBytes, opts.BufferParts)
	}
	ex := &executor{cfg: cfg, opts: opts, shard: shard, chunkSchedule: cs}
	ex.run(res)
	return res, nil
}

// maxChunks bounds the R/p chunks of one machine's checkpoint per
// iteration. The paper's testbeds need at most a few thousand.
const maxChunks = 1 << 16

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
func MustExecute(tl *Timeline, prof *profile.Profile, opts ExecOptions) *ExecResult {
	res, err := Execute(tl, prof, opts)
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

// chunkSchedule is everything a §7.4 scheme decides: the per-machine
// chunk jobs (identical across machines by symmetry), whether it
// checkpoints at all, whether a chunk's transfer overlaps the previous
// chunk's receiver copy, whether training waits for the whole
// checkpoint, and the GPU buffer it needs.
type chunkSchedule struct {
	jobs        []chunkJob
	bufferBytes float64
	enabled     bool // false only for Baseline
	pipelined   bool
	gated       bool
}

// buildChunkJobs is the one statement of each interleaving scheme: it
// turns the scheme and Algorithm 2's parameters into the chunk schedule
// the executor runs. Only the schemes that read Algorithm 2's plan build
// it; every other scheme checks the same parameters, so bad ones fail
// here with the same error whichever scheme runs.
func buildChunkJobs(scheme schedule.Scheme, params schedule.Params) (chunkSchedule, error) {
	var plan *schedule.Plan
	var err error
	if scheme == schedule.SchemeNoPipeline || scheme == schedule.SchemeGemini {
		plan, err = schedule.Partition(params)
	} else {
		err = params.Validate()
	}
	if err != nil {
		return chunkSchedule{}, err
	}
	remote := params.Replicas - 1
	cs := chunkSchedule{enabled: true}
	switch scheme {
	case schedule.SchemeBaseline:
		return chunkSchedule{}, nil
	case schedule.SchemeBlocking:
		// Replicas streamed up front through the chunked buffer without
		// pipelining; training gated behind the full checkpoint.
		chunk := params.BufferBytes / float64(params.BufferParts)
		cs.jobs = make([]chunkJob, 0, remote*netsim.Pieces(params.CheckpointBytes, chunk))
		for r := 0; r < remote; r++ {
			remain := params.CheckpointBytes
			for remain > 0 {
				sz := chunk
				if sz > remain {
					sz = remain
				}
				remain -= sz
				cs.jobs = append(cs.jobs, chunkJob{replica: r, bytes: sz})
			}
		}
		cs.bufferBytes, cs.gated = params.BufferBytes, true
	case schedule.SchemeNaive:
		// One partition per idle span, sized to the span's capacity, so
		// the buffer must hold what the largest span can carry.
		remainPerReplica := params.CheckpointBytes
		replica := 0
		for _, span := range params.Spans {
			carry := (simclock.Duration(params.Gamma)*span.Length - params.Alpha).Seconds() * params.BandwidthBytesPerSec
			cs.bufferBytes = math.Max(cs.bufferBytes, carry)
			if replica >= remote || carry <= 0 {
				continue
			}
			size := carry
			if size > remainPerReplica {
				size = remainPerReplica
			}
			cs.jobs = append(cs.jobs, chunkJob{replica: replica, bytes: size, notBefore: span.Offset})
			remainPerReplica -= size
			if remainPerReplica == 0 {
				replica++
				remainPerReplica = params.CheckpointBytes
			}
		}
		// Leftover (spans exhausted) goes at the end, unpipelined.
		for replica < remote {
			cs.jobs = append(cs.jobs, chunkJob{replica: replica, bytes: remainPerReplica, notBefore: lastOffset(params)})
			replica++
			remainPerReplica = params.CheckpointBytes
		}
	case schedule.SchemeNoPipeline, schedule.SchemeGemini:
		cs.jobs = make([]chunkJob, 0, len(plan.Chunks))
		for _, c := range plan.Chunks {
			nb := lastOffset(params)
			if c.Span < len(params.Spans) {
				nb = params.Spans[c.Span].Offset
			}
			cs.jobs = append(cs.jobs, chunkJob{replica: c.Replica, bytes: c.Bytes, notBefore: nb})
		}
		// A single buffer cannot overlap its own copy with the next
		// receive, so p=1 degenerates to the unpipelined behavior even
		// under the GEMINI scheme.
		cs.bufferBytes = params.BufferBytes
		cs.pipelined = scheme == schedule.SchemeGemini && params.BufferParts > 1
	default:
		return chunkSchedule{}, fmt.Errorf("training: unknown scheme %v", scheme)
	}
	return cs, nil
}

// idleUtilization mirrors schedule.Plan.IdleUtilization over the
// executor's realized job list: the fraction of checkpoint bytes whose
// release offset falls inside a profiled idle span. A gated schedule
// hides nothing behind training (0); one that moves no bytes has
// nothing to hide (1).
func (cs chunkSchedule) idleUtilization(params schedule.Params) float64 {
	if cs.gated {
		return 0
	}
	last := lastOffset(params)
	var total, inSpan float64
	for _, j := range cs.jobs {
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

// timer is one engine event reused for every firing: its callback is
// bound once, and each arm rearms the same event instead of scheduling
// a new one. The executor never arms a timer that is still pending.
type timer struct {
	engine *simclock.Engine
	fn     func()
	ev     simclock.EventID
}

// at arms the timer to fire at the absolute time at.
func (t *timer) at(at simclock.Time) {
	if t.ev == (simclock.EventID{}) {
		t.ev = t.engine.At(at, t.fn)
	} else {
		t.engine.Rearm(t.ev, at)
	}
}

// executor carries per-run simulation state. Every callback the
// simulation hands to the engine, fabric or copiers is a method value
// bound once per run, every event it schedules is a rearmed timer, and
// the iteration's progress lives in the fields below, so a warm
// iteration allocates nothing.
type executor struct {
	cfg   Config
	opts  ExecOptions
	shard float64
	chunkSchedule
	rec *profile.Recorder // online profiling: machine 0's collectives

	engine  *simclock.Engine
	fabric  *netsim.Fabric
	copiers []*netsim.Copier
	senders []sender

	iterTrack *trace.Track // nil = untraced
	compTrack *trace.Track

	// The iteration graph, fixed for the run: BuildTimeline's steps and costs.
	labels              []stepLabels
	fwd, bwd, updateDur simclock.Duration
	agBytes, rsBytes    float64

	// One iteration's progress: the comm channel's two queues and the
	// collective in flight, the compute stream, and the update phase.
	agNext, rsNext, compNext      int
	agDone, compStarted, compDone []bool
	commInFlight                  bool
	collLabel                     string
	collStart                     simclock.Time
	collLeft                      int // ring flows still running
	collStep                      int // all-gather step; -1 for a reduce-scatter
	compBusy                      bool
	compStep                      int
	compStart                     simclock.Time
	updateStarted                 bool
	updStart                      simclock.Time

	// One iteration's checkpoint. Every machine copies its local shard
	// in localPieces copies and receives len(jobs) remote chunks, one
	// copy each; copiesLeft counts the cluster's outstanding copies.
	iterStart   simclock.Time
	ckptStart   simclock.Time
	ckptSeen    bool
	ckptDone    simclock.Time
	localPieces int
	copiesLeft  int
	gateClosed  bool

	// Bound once per run by setup.
	compute, update timer
	collFlowDone    func(*netsim.Flow)
	localCopied     func(*netsim.Copy)
}

// sender is one machine's sequential checkpoint-chunk sender: one
// transfer in flight; the next starts when the previous transfer
// (pipelined) or its receiver copy (unpipelined) finishes, and never
// before the chunk's release offset.
type sender struct {
	ex      *executor
	machine int
	peers   []int
	next    int // index into ex.jobs of the next chunk to send

	kick     timer // iteration start: local shard copies, first chunk
	wait     timer // a chunk's release offset
	flowDone func(*netsim.Flow)
	copyDone func(*netsim.Copy)
}

// setup builds the run's engine, fabric, copiers and senders, derives
// the iteration graph, and binds every callback.
func (ex *executor) setup() {
	cfg := ex.cfg
	n := cfg.Machines
	ex.engine = simclock.NewEngine()
	ex.fabric = netsim.MustNewFabric(ex.engine, n, netsim.Config{
		EgressBytesPerSec: cfg.Instance.NetworkBytesPerSec,
		Alpha:             cfg.Calib.CollectiveAlpha,
	})
	ex.copiers = make([]*netsim.Copier, n)
	for i := range ex.copiers {
		ex.copiers[i] = netsim.MustNewCopier(ex.engine, cfg.Instance.GPUToCPUBytesPerSec)
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

	// Effective ring-flow bytes: one uncontended flow per machine must
	// take the collective's analytic time minus the startup latency.
	effBytes := func(kind netsim.CollectiveKind) float64 {
		payload := (cfg.layerCollective(kind) - cfg.Calib.CollectiveAlpha).Seconds() * cfg.Instance.NetworkBytesPerSec
		if payload < 0 {
			payload = 0
		}
		return payload
	}
	ex.agBytes = effBytes(netsim.AllGather)
	ex.rsBytes = effBytes(netsim.ReduceScatter)

	ex.labels = labelsFor(cfg.Model.Layers)
	ex.fwd, ex.bwd = cfg.layerCompute()
	ex.updateDur = cfg.updatePhase()
	ex.agDone = make([]bool, len(ex.labels))
	ex.compStarted = make([]bool, len(ex.labels))
	ex.compDone = make([]bool, len(ex.labels))

	ex.compute = timer{engine: ex.engine, fn: ex.computeDone}
	ex.update = timer{engine: ex.engine, fn: ex.updateDone}
	ex.collFlowDone = ex.collectiveFlowDone
	ex.localCopied = ex.copied
	if !ex.enabled {
		return
	}
	ex.localPieces = netsim.Pieces(ex.shard, ex.chunkSize())
	ex.senders = make([]sender, n)
	for m := range ex.senders {
		s := &ex.senders[m]
		s.ex, s.machine, s.peers = ex, m, ex.opts.Placement.PeersOf(m)
		s.kick = timer{engine: ex.engine, fn: s.begin}
		s.wait = timer{engine: ex.engine, fn: s.sendNext}
		s.flowDone, s.copyDone = s.chunkSent, s.chunkCopied
	}
}

func (ex *executor) run(res *ExecResult) {
	ex.setup()

	// Nil-registry instruments no-op, so the untracked path stays free.
	iterHist := ex.opts.Metrics.Histogram("training.iteration_seconds")
	ckptHist := ex.opts.Metrics.Histogram("training.ckpt_wall_seconds")
	idleHist := ex.opts.Metrics.Histogram("training.network_idle_seconds")
	iterCount := ex.opts.Metrics.Counter("training.iterations")

	// Means accumulate in iteration order, so they equal a sum over the
	// per-iteration samples divided by their count.
	var iterSum, ckptSum, idleSum simclock.Duration
	ckpts := 0
	for iter := 0; iter <= ex.opts.Iterations; iter++ { // iteration 0 is the warmup
		ex.iterate()
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
		iterSum += iterLen
		iterCount.Inc()
		iterHist.Observe(iterLen.Seconds())
		if ex.ckptDone > ex.ckptStart {
			ckptSum += ex.ckptDone.Sub(ex.ckptStart)
			ckpts++
			ckptHist.Observe(ex.ckptDone.Sub(ex.ckptStart).Seconds())
		}
		idle := iterLen - ex.fabric.BusyTime(0)
		idleSum += idle
		idleHist.Observe(idle.Seconds())
	}
	iters := simclock.Duration(ex.opts.Iterations)
	res.IterationTime = iterSum / iters
	if ckpts > 0 {
		res.CheckpointWallTime = ckptSum / simclock.Duration(ckpts)
	}
	res.NetworkIdle = idleSum / iters
	res.FabricCounters = ex.fabric.Stats().Counters()
}

// iterate runs one iteration to completion. All machines march in
// lockstep (synchronous training), so the collective sequence is shared:
// a collective is N simultaneous ring flows and completes when the
// slowest finishes. Compute runs on a serial per-machine stream
// (symmetric, so modeled once). Checkpoint chunk senders run per machine
// and contend with the collectives on the fabric.
func (ex *executor) iterate() {
	ex.iterStart = ex.engine.Now()
	ex.ckptSeen = false
	ex.ckptStart, ex.ckptDone = 0, 0
	ex.fabric.ResetBusyTime()

	ex.agNext, ex.rsNext, ex.compNext = 0, 0, 0
	clear(ex.agDone)
	clear(ex.compStarted)
	clear(ex.compDone)
	ex.commInFlight, ex.compBusy, ex.updateStarted = false, false, false
	ex.gateClosed = ex.gated

	ex.startCheckpoint()
	ex.pump()
	ex.engine.RunAll()
}

// pump advances the iteration as far as its dependencies allow. Two
// in-order comm queues share one channel: all-gathers (gated by the
// prefetch window) and reduce-scatters (ready when their layer's
// backward compute finishes). Ready reduce-scatters take priority,
// matching BuildTimeline's stream semantics.
func (ex *executor) pump() {
	if ex.gateClosed {
		return
	}
	steps := len(ex.labels)
	L := steps / 2
	if !ex.commInFlight {
		switch {
		case ex.rsNext < L && ex.compDone[L+ex.rsNext]:
			c := L + ex.rsNext
			ex.rsNext++
			ex.startCollective(ex.labels[c].reduceScatter, ex.rsBytes, -1)
		case ex.agNext < steps && (ex.agNext < prefetchDepth || ex.compStarted[ex.agNext-prefetchDepth]):
			c := ex.agNext
			ex.agNext++
			ex.startCollective(ex.labels[c].allGather, ex.agBytes, c)
		}
	}
	// Compute stream.
	if !ex.compBusy && ex.compNext < steps && ex.agDone[ex.compNext] {
		c := ex.compNext
		ex.compNext++
		ex.compBusy = true
		ex.compStarted[c] = true
		ex.compStep, ex.compStart = c, ex.engine.Now()
		d := ex.fwd
		if c >= L {
			d = ex.bwd
		}
		ex.compute.at(ex.engine.Now().Add(d))
	}
	// Update phase once both streams drain.
	if !ex.updateStarted && ex.compNext == steps && !ex.compBusy &&
		ex.agNext == steps && ex.rsNext == L && !ex.commInFlight {
		ex.updateStarted = true
		ex.updStart = ex.engine.Now()
		ex.update.at(ex.engine.Now().Add(ex.updateDur))
	}
}

// startCollective launches one collective as n ring flows sharing one
// completion callback. step is the all-gather's compute step, or -1 for
// a reduce-scatter.
func (ex *executor) startCollective(label string, bytes float64, step int) {
	n := ex.cfg.Machines
	ex.commInFlight = true
	ex.collLabel, ex.collStart, ex.collLeft, ex.collStep = label, ex.engine.Now(), n, step
	for i := 0; i < n; i++ {
		ex.fabric.StartFlow(i, (i+1)%n, bytes, label, ex.collFlowDone)
	}
}

// collectiveFlowDone retires one ring flow of the collective in flight.
// Machine 0's flow feeds the online profiler. Nothing else holds the
// flows, so each goes back to the fabric for the next collective.
func (ex *executor) collectiveFlowDone(fl *netsim.Flow) {
	if ex.rec != nil && fl.Src == 0 {
		ex.rec.RecordOp(ex.collStart, ex.engine.Now(), ex.collLabel)
	}
	fl.Release()
	ex.collLeft--
	if ex.collLeft > 0 {
		return
	}
	if ex.collStep >= 0 {
		ex.agDone[ex.collStep] = true
	}
	ex.commInFlight = false
	ex.pump()
}

func (ex *executor) computeDone() {
	c := ex.compStep
	ex.compBusy = false
	ex.compDone[c] = true
	ex.compTrack.Span(trace.CatTraining, ex.labels[c].compute, ex.compStart, ex.engine.Now())
	ex.pump()
}

func (ex *executor) updateDone() {
	ex.compTrack.Span(trace.CatTraining, "update", ex.updStart, ex.engine.Now())
}

// chunkSize is R/p, the size of one sub-buffer.
func (ex *executor) chunkSize() float64 {
	return ex.opts.BufferBytes / float64(ex.opts.BufferParts)
}

// startCheckpoint arms each machine's sender for the iteration. An empty
// shard leaves nothing to checkpoint.
func (ex *executor) startCheckpoint() {
	if !ex.enabled || ex.shard == 0 {
		return
	}
	ex.copiesLeft = ex.cfg.Machines * (ex.localPieces + len(ex.jobs))
	for m := range ex.senders {
		s := &ex.senders[m]
		s.next = 0
		s.kick.at(ex.engine.Now())
	}
}

func (ex *executor) markActivity() {
	if !ex.ckptSeen {
		ex.ckptSeen = true
		ex.ckptStart = ex.engine.Now()
	}
}

// copied accounts a finished copy and releases it to its copier; the
// last one completes the checkpoint and opens a blocking scheme's gate.
func (ex *executor) copied(cp *netsim.Copy) {
	ex.copiesLeft--
	cp.Release()
	if ex.copiesLeft == 0 {
		ex.ckptDone = ex.engine.Now()
		if ex.gateClosed {
			ex.gateClosed = false
			ex.pump()
		}
	}
}

// begin submits the machine's local shard copy as one run of R/p pieces,
// partitioned like the remote chunks (§5.3 "Move checkpoints from GPU to
// local CPU"), then sends its first chunk.
func (s *sender) begin() {
	ex := s.ex
	ex.markActivity()
	ex.copiers[s.machine].Submit(ex.shard, ex.chunkSize(), "local-ckpt", ex.localCopied)
	if len(s.peers) > 0 {
		s.sendNext()
	}
}

func (s *sender) sendNext() {
	ex := s.ex
	if s.next >= len(ex.jobs) {
		return
	}
	job := ex.jobs[s.next]
	if release := ex.iterStart.Add(job.notBefore); ex.engine.Now() < release {
		s.wait.at(release)
		return
	}
	s.next++
	ex.markActivity()
	ex.fabric.StartFlow(s.machine, s.peers[job.replica%len(s.peers)], job.bytes, "ckpt-chunk", s.flowDone)
}

// chunkSent hands a delivered chunk to the receiver's copier.
func (s *sender) chunkSent(fl *netsim.Flow) {
	dst, bytes := fl.Dst, fl.Bytes()
	fl.Release()
	s.ex.copiers[dst].Submit(bytes, bytes, "remote-ckpt", s.copyDone)
	if s.ex.pipelined {
		s.sendNext()
	}
}

func (s *sender) chunkCopied(cp *netsim.Copy) {
	s.ex.copied(cp)
	if !s.ex.pipelined {
		s.sendNext()
	}
}
