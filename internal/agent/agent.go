// Package agent implements GEMINI's failure recovery module (§3.2, §6):
// per-machine worker agents that heartbeat into the distributed key-value
// store under leases, a root agent that polls health and orchestrates
// recovery, lease-based root failover, and the three recovery paths —
// software restart from local CPU memory, hardware replacement with peer
// retrieval, and the remote-persistent-storage fallback when a whole
// replica group is lost.
package agent

import (
	"fmt"
	"strconv"
	"strings"

	"gemini/internal/ckpt"
	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/kvstore"
	"gemini/internal/placement"
	"gemini/internal/simclock"
	"gemini/internal/statemgr"
	"gemini/internal/strategy"
	"gemini/internal/trace"
)

// Store key layout.
const (
	hbPrefix      = "gemini/hb/"       // hb/<rank> = incarnation, under the worker's lease
	failurePrefix = "gemini/failures/" // failures/<rank> = kind, posted by the detector
	leaderKey     = "gemini/root"      // election key
	iterationKey  = "gemini/iteration" // committed training iteration
)

// Options configures the recovery system.
type Options struct {
	// HeartbeatInterval is how often workers renew their lease.
	HeartbeatInterval simclock.Duration
	// LeaseTTL is the heartbeat lease TTL; a silent machine is declared
	// failed once it expires (the paper's 15 s detection).
	LeaseTTL simclock.Duration
	// CheckInterval is the root agent's health-poll period.
	CheckInterval simclock.Duration
	// IterationTime advances the training loop.
	IterationTime simclock.Duration
	// RetrievalPeerBandwidth is the inter-machine bandwidth for peer
	// checkpoint retrieval.
	RetrievalPeerBandwidth float64
	// RetrievalRemoteBandwidth is the remote persistent store bandwidth
	// (aggregate) for fallback retrieval.
	RetrievalRemoteBandwidth float64
	// SerializeTime stalls all machines to torch.save the in-memory
	// checkpoints before recovery (§7.3: 162 s).
	SerializeTime simclock.Duration
	// WarmupTime is the framework restart time before training resumes.
	WarmupTime simclock.Duration
	// RetryBase is the first retry delay when no consistent checkpoint
	// version is reachable (e.g. the peers holding it are partitioned
	// away); subsequent retries back off exponentially.
	RetryBase simclock.Duration
	// RetryMax bounds the retry attempts before the root agent gives up
	// on peer retrieval and falls back to remote persistent storage.
	RetryMax int
}

// DefaultOptions mirrors the paper's measured values.
func DefaultOptions(iterTime simclock.Duration) Options {
	return Options{
		HeartbeatInterval:        5 * simclock.Second,
		LeaseTTL:                 15 * simclock.Second,
		CheckInterval:            5 * simclock.Second,
		IterationTime:            iterTime,
		RetrievalPeerBandwidth:   400e9 / 8,
		RetrievalRemoteBandwidth: 20e9 / 8,
		SerializeTime:            162 * simclock.Second,
		WarmupTime:               4 * simclock.Minute,
		RetryBase:                2 * simclock.Second,
		RetryMax:                 4,
	}
}

func (o Options) validate() error {
	switch {
	case o.HeartbeatInterval <= 0 || o.LeaseTTL <= 0 || o.CheckInterval <= 0:
		return fmt.Errorf("agent: heartbeat/lease/check intervals must be positive")
	case o.LeaseTTL <= o.HeartbeatInterval:
		return fmt.Errorf("agent: lease TTL %v must exceed heartbeat interval %v", o.LeaseTTL, o.HeartbeatInterval)
	case o.IterationTime <= 0:
		return fmt.Errorf("agent: iteration time must be positive")
	case o.RetrievalPeerBandwidth <= 0 || o.RetrievalRemoteBandwidth <= 0:
		return fmt.Errorf("agent: retrieval bandwidths must be positive")
	case o.SerializeTime < 0 || o.WarmupTime < 0:
		return fmt.Errorf("agent: negative recovery costs")
	case o.RetryBase < 0 || o.RetryMax < 0:
		return fmt.Errorf("agent: negative retry parameters")
	}
	return nil
}

// worker is one machine's agent.
type worker struct {
	rank        int
	incarnation int
	lease       kvstore.LeaseID
	ticker      *simclock.Ticker
	alive       bool
}

// System wires the whole failure-recovery control plane together on one
// simulation engine.
type System struct {
	engine    *simclock.Engine
	store     *kvstore.Store
	cluster   *cluster.Cluster
	ckpt      *ckpt.Engine
	operator  *cloud.Operator
	placement *placement.Placement
	opts      Options
	log       *trace.Log

	workers  []*worker
	election *kvstore.Election
	rootRank int
	rootTick *simclock.Ticker

	iteration        int64
	remoteEveryIters int64
	// lastRemoteCommitted is the newest iteration actually written to the
	// remote persistent tier — recorded at commit time, so recovery never
	// derives it from the current cadence (which SetRemoteEvery may have
	// changed since the last commit).
	lastRemoteCommitted int64
	training            bool
	recovering          bool
	iterEv              simclock.EventID
	data                *statemgr.Manager // optional byte-level data plane

	// strategy owns checkpoint placement/cadence and recovery-source
	// policy; the system keeps the mechanism (leases, detection,
	// scheduling, rollback). Defaults to the gemini strategy.
	strategy strategy.Strategy
	// retrievedBytes/remoteBytes account recovery and remote-tier
	// traffic; replication traffic lives in the ckpt engine.
	retrievedBytes float64
	remoteBytes    float64

	recoveries int
	sweepEv    simclock.EventID

	// Health monitor (nil = disabled): coverage/staleness gauges plus the
	// per-failure Eq. 1 wasted-time ledger. recoveryStart anchors the
	// TRecovery measurement of the recovery in flight.
	health        *healthMonitor
	wastedEvents  []WastedEvent
	recoveryStart simclock.Time

	// Structured tracing (nil = disabled): recovery phases and iterations
	// on rootTrack, injections on chaosTrack, elections on kvTrack.
	rootTrack  *trace.Track
	chaosTrack *trace.Track
	kvTrack    *trace.Track

	// Chaos state: ranks cut off from the network (heartbeats and peer
	// retrieval both fail) and per-rank bandwidth factors for stragglers.
	partitioned map[int]bool
	stragglers  map[int]float64
}

// NewSystem builds the control plane for an n-machine cluster.
func NewSystem(engine *simclock.Engine, cl *cluster.Cluster, ck *ckpt.Engine,
	op *cloud.Operator, opts Options, log *trace.Log) (*System, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if cl.Size() != ck.Placement().N {
		return nil, fmt.Errorf("agent: cluster size %d != placement size %d", cl.Size(), ck.Placement().N)
	}
	if log == nil {
		log = trace.NewLog(engine.Now)
	}
	s := &System{
		engine:      engine,
		store:       kvstore.New(engine.Now),
		cluster:     cl,
		ckpt:        ck,
		operator:    op,
		placement:   ck.Placement(),
		opts:        opts,
		log:         log,
		rootRank:    -1,
		partitioned: make(map[int]bool),
		stragglers:  make(map[int]float64),
	}
	el, err := kvstore.NewElection(s.store, leaderKey)
	if err != nil {
		return nil, err
	}
	s.election = el
	s.strategy = strategy.NewGemini()
	s.bindStrategy()
	return s, nil
}

// SetStrategy installs a checkpoint strategy (a fresh, unbound instance
// from the strategy registry). Call before Start; the default is the
// paper's gemini scheme.
func (s *System) SetStrategy(st strategy.Strategy) {
	if st == nil {
		panic("agent: nil strategy")
	}
	if s.data != nil && st.Name() != "gemini" {
		panic(fmt.Sprintf("agent: the byte-level data plane implements gemini semantics only, not %q", st.Name()))
	}
	s.strategy = st
	s.bindStrategy()
}

// Strategy returns the installed checkpoint strategy.
func (s *System) Strategy() strategy.Strategy { return s.strategy }

// bindStrategy attaches the system's control surface to the strategy.
func (s *System) bindStrategy() {
	s.strategy.Bind(strategy.Env{
		Ckpt:          s.ckpt,
		Placement:     s.placement,
		IterationTime: s.opts.IterationTime,
		Now:           s.engine.Now,
		RemoteEvery:   s.remoteEvery,
		Emit:          s.emitStrategyEvent,
	})
}

// emitStrategyEvent lands a strategy-level event (adaptive switches) in
// the run log, the trace, and the metrics registry.
func (s *System) emitStrategyEvent(event, detail string) {
	s.log.Add("strategy", event, "%s", detail)
	if s.rootTrack.Enabled() {
		s.rootTrack.InstantArgs(trace.CatAgent, event, detail)
	}
	if h := s.health; h != nil && event == "strategy-switch" {
		h.stratSwitches.Inc()
	}
}

// Log returns the system's event log.
func (s *System) Log() *trace.Log { return s.log }

// SetTracer attaches a structured tracer: recovery phases (§6.2 steps
// 1–5) and control-plane iterations land on a "control-plane/root-agent"
// track, chaos injections and kvstore elections on their own tracks.
// Call before Start; a nil tracer leaves tracing disabled and free.
func (s *System) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	tr.SetNow(s.engine.Now)
	s.rootTrack = tr.Track("control-plane", "root-agent")
	s.chaosTrack = tr.Track("control-plane", "chaos")
	s.kvTrack = tr.Track("control-plane", "kvstore")
}

// SetDataPlane attaches a byte-level checkpoint data plane: every
// iteration moves real shard payloads, every recovery restores and
// fingerprint-verifies them. The manager must share the system's
// placement and shard size. Call before Start.
func (s *System) SetDataPlane(mgr *statemgr.Manager) {
	if mgr.Placement().N != s.placement.N || mgr.Placement().M != s.placement.M {
		panic("agent: data plane placement does not match the system's")
	}
	if s.strategy.Name() != "gemini" {
		panic(fmt.Sprintf("agent: the byte-level data plane implements gemini semantics only, not %q", s.strategy.Name()))
	}
	s.data = mgr
	// Seed the remote tier with the initial states so a fallback before
	// the first remote checkpoint has something to load.
	if err := mgr.CheckpointRemote(0); err != nil {
		panic(err)
	}
}

// Iteration returns the last completed training iteration.
func (s *System) Iteration() int64 { return s.iteration }

// Training reports whether the training loop is running.
func (s *System) Training() bool { return s.training }

// RootRank returns the current root machine's rank, or -1.
func (s *System) RootRank() int { return s.rootRank }

// Recoveries returns how many recoveries have completed.
func (s *System) Recoveries() int { return s.recoveries }

// Start boots every worker agent, elects the initial root, and begins
// training at iteration 0.
func (s *System) Start() {
	s.workers = make([]*worker, s.cluster.Size())
	for rank := range s.workers {
		s.startWorker(rank, 0)
	}
	s.promoteRoot()
	s.WatchRootFailover()
	s.training = true
	s.scheduleIteration()
	s.scheduleSweep()
	s.log.Add("system", "started", "%d machines, m=%d", s.cluster.Size(), s.placement.M)
}

// scheduleSweep keeps lease expiry timely: the store expires lazily, so
// the system arms an event at the next lease deadline. Every heartbeat
// lands here, so the one sweep event is rearmed in place, never
// reallocated.
func (s *System) scheduleSweep() {
	next := s.store.NextExpiry()
	if next == simclock.Forever {
		s.sweepEv.Cancel()
		return
	}
	if next <= s.engine.Now() {
		next = s.engine.Now()
	}
	if s.sweepEv == (simclock.EventID{}) {
		s.sweepEv = s.engine.AtPriority(next, 5, s.sweep)
		return
	}
	s.engine.Rearm(s.sweepEv, next)
}

func (s *System) sweep() {
	s.store.Sweep()
	s.scheduleSweep()
}

func (s *System) startWorker(rank, incarnation int) {
	w := &worker{rank: rank, incarnation: incarnation, alive: true}
	s.workers[rank] = w
	// The store may be unavailable (chaos): leave the lease at zero and
	// let the heartbeat ticker repair it once the store returns.
	s.refreshLease(w)
	w.ticker = simclock.NewTicker(s.engine, s.opts.HeartbeatInterval, func(simclock.Time) {
		if !w.alive || s.partitioned[w.rank] {
			// A partitioned agent is running but cannot reach the store;
			// its lease expires and the root declares it failed — exactly
			// the ambiguity real partitions create.
			return
		}
		s.refreshLease(w)
		s.scheduleSweep()
	})
}

// refreshLease renews w's heartbeat lease, re-granting it (and
// re-publishing the heartbeat key) if it was lost to expiry or a store
// outage. It reports whether the worker holds a live lease afterwards.
func (s *System) refreshLease(w *worker) bool {
	if w.lease != 0 {
		if err := s.store.KeepAlive(w.lease); err == nil {
			return true
		}
	}
	lease, err := s.store.Grant(s.opts.LeaseTTL)
	if err != nil {
		w.lease = 0
		return false
	}
	w.lease = lease
	if _, err := s.store.Put(hbKey(w.rank), strconv.Itoa(w.incarnation), lease); err != nil {
		w.lease = 0
		return false
	}
	return true
}

func hbKey(rank int) string { return hbPrefix + fmt.Sprintf("%04d", rank) }

// promoteRoot elects a root among alive, reachable workers (lowest such
// rank campaigns first and wins) and starts its health-check loop.
func (s *System) promoteRoot() {
	for rank, w := range s.workers {
		if w == nil || !w.alive || s.partitioned[rank] {
			continue
		}
		// The candidate's lease may have lapsed (partition, store outage);
		// campaigning with a dead lease can only fail.
		if !s.refreshLease(w) {
			continue
		}
		won, err := s.election.Campaign(fmt.Sprintf("rank-%d", rank), w.lease)
		if err != nil {
			continue // lease raced expiry or store went down; next candidate
		}
		if won {
			s.rootRank = rank
			s.log.Add("root-agent", "elected", "rank %d is root", rank)
			if s.kvTrack.Enabled() {
				s.kvTrack.InstantArgs(trace.CatKVStore, "elected", fmt.Sprintf("rank=%d", rank))
			}
			break
		}
	}
	if s.rootTick != nil {
		s.rootTick.Stop()
	}
	s.rootTick = simclock.NewTicker(s.engine, s.opts.CheckInterval, func(simclock.Time) {
		s.rootCheck()
	})
}

// InjectFailure delivers a failure to a machine: its agent stops
// heartbeating, its cluster state flips, and — for hardware failures —
// its CPU-memory checkpoints vanish. The failure kind is published where
// the cloud detector would put it (SageMaker-style tooling, §6.2).
func (s *System) InjectFailure(rank int, kind cluster.MachineState) {
	w := s.workers[rank]
	if w == nil || !w.alive {
		return
	}
	w.alive = false
	w.ticker.Stop()
	s.cluster.Fail(rank, kind)
	if kind == cluster.HardwareFailed {
		s.ckpt.Wipe(rank)
		if s.data != nil {
			s.data.WipeMachine(rank)
		}
	}
	// Physical tier state dies with the machine, whatever the policy:
	// hardware failures take the GPU-buffer snapshots with them.
	s.strategy.OnFailure(rank, kind == cluster.HardwareFailed)
	// A store outage loses the detector's report; beginRecovery falls
	// back to the cluster's own state to classify the failure.
	_, _ = s.store.Put(failurePrefix+strconv.Itoa(rank), kind.String(), 0)
	s.log.Add("injector", "failure", "rank %d: %v", rank, kind)
	if s.chaosTrack.Enabled() {
		s.chaosTrack.InstantArgs(trace.CatChaos, "failure", fmt.Sprintf("rank=%d kind=%v", rank, kind))
	}
	// Coverage degrades the instant the machine (and, for hardware, its
	// CPU memory) is gone — not at the next iteration boundary.
	s.observeHealth()
	s.scheduleSweep()
}

// rootCheck is the root agent's periodic health poll: every expected
// heartbeat must be present; a missing one starts recovery. The root also
// verifies its own machine is alive — a dead root's ticker dies with it.
func (s *System) rootCheck() {
	if s.rootRank < 0 || s.recovering {
		return
	}
	root := s.workers[s.rootRank]
	if root == nil || !root.alive {
		// The root machine itself died; its lease will expire and a
		// worker will take over via watchRootFailure.
		s.rootTick.Stop()
		return
	}
	if !s.store.Available() || s.partitioned[s.rootRank] {
		// The root cannot reach the store: it sees nothing, not even its
		// own heartbeat, and must not declare the whole cluster dead. It
		// keeps polling; either the outage heals or its own lease expires
		// and another machine takes over.
		return
	}
	entries := s.store.Range(hbPrefix)
	seen := make(map[int]bool, len(entries))
	for _, e := range entries {
		rank, err := strconv.Atoi(strings.TrimPrefix(e.Key, hbPrefix))
		if err != nil {
			continue
		}
		seen[rank] = true
	}
	var failed []int
	for rank := range s.workers {
		if !seen[rank] {
			failed = append(failed, rank)
		}
	}
	if len(failed) > 0 {
		s.beginRecovery(failed)
	} else {
		// Heartbeats are healthy; check for a vanished root key (lease
		// hiccup) and re-campaign.
		if _, ok := s.election.Leader(); !ok {
			s.promoteRoot()
		}
	}
}

// WatchRootFailover arms every worker to notice the root key vanishing
// (the root machine died) and promote a new root. In etcd terms this is
// a watch on the election key.
func (s *System) WatchRootFailover() {
	s.store.Watch(leaderKey, func(ev kvstore.Event) {
		if ev.Type != kvstore.EventDelete {
			return
		}
		// Defer to an event so the promotion happens outside the watch
		// delivery path.
		s.engine.After(0, func() {
			if _, ok := s.election.Leader(); ok {
				return
			}
			prevRoot := s.rootRank
			s.rootRank = -1
			s.promoteRoot()
			if s.rootRank >= 0 && s.rootRank != prevRoot {
				s.log.Add("root-agent", "failover", "root moved %d → %d", prevRoot, s.rootRank)
				if s.kvTrack.Enabled() {
					s.kvTrack.InstantArgs(trace.CatKVStore, "failover",
						fmt.Sprintf("from=%d to=%d", prevRoot, s.rootRank))
				}
				// The new root immediately checks cluster health: the old
				// root's machine is typically the failed one.
				s.rootCheck()
			}
		})
	})
}
