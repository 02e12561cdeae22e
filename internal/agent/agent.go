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
	"math"
	"strconv"

	"gemini/internal/baselines"
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
	// RetryBase is the first retry delay when no consistent checkpoint
	// version is reachable (e.g. the peers holding it are partitioned
	// away); subsequent retries back off exponentially.
	RetryBase simclock.Duration
	// RetryMax bounds the retry attempts before the root agent gives up
	// on peer retrieval and falls back to remote persistent storage.
	RetryMax int
}

// DefaultOptions mirrors the paper's measured values. The lease TTL is
// Fig. 14's detection constant, declared once in baselines; the
// iteration time and every recovery cost come from the job's spec
// (NewSystem).
func DefaultOptions() Options {
	return Options{
		HeartbeatInterval: 5 * simclock.Second,
		LeaseTTL:          baselines.DetectionTime,
		CheckInterval:     5 * simclock.Second,
		RetryBase:         2 * simclock.Second,
		RetryMax:          4,
	}
}

// validate rejects a non-positive interval, a negative retry
// parameter, and any NaN or infinite value, naming the offending field.
func (o Options) validate() error {
	for _, f := range []struct {
		name string
		v    float64
		zero bool // zero is allowed
	}{
		{"HeartbeatInterval", float64(o.HeartbeatInterval), false},
		{"LeaseTTL", float64(o.LeaseTTL), false},
		{"CheckInterval", float64(o.CheckInterval), false},
		{"RetryBase", float64(o.RetryBase), true},
	} {
		switch {
		case math.IsInf(f.v, 0) || math.IsNaN(f.v):
			return fmt.Errorf("agent: %s must be finite, got %v", f.name, f.v)
		case f.zero && !(f.v >= 0):
			return fmt.Errorf("agent: %s must be ≥ 0, got %v", f.name, f.v)
		case !f.zero && !(f.v > 0):
			return fmt.Errorf("agent: %s must be positive, got %v", f.name, f.v)
		}
	}
	if o.RetryMax < 0 {
		return fmt.Errorf("agent: RetryMax must be ≥ 0, got %d", o.RetryMax)
	}
	if !(o.LeaseTTL > o.HeartbeatInterval) {
		return fmt.Errorf("agent: LeaseTTL %v must exceed HeartbeatInterval %v", o.LeaseTTL, o.HeartbeatInterval)
	}
	return nil
}

// worker is one machine's agent.
type worker struct {
	rank        int
	incarnation int
	hbKey       string // the worker's heartbeat key, built once per start
	lease       kvstore.LeaseID
	alive       bool
}

// cohort is a batch of workers started together — at Start, by one
// recovery's restarts, or by one partition heal — in start order. They
// share a heartbeat phase, so one ticker renews all their leases.
//
// While its alive, reachable members all hold live leases, the cohort
// hands those leases to hold and its ticks are silent: each is one
// Hold.Renew, which fires no event. Whatever changes a member's
// standing (death, a partition or its heal, a re-granted lease) hands
// the leases to the hold again; a store outage settles it. A tick the
// hold cannot make silently (nothing held, the store down, or a lease
// due that the renewal would expire first) fires beat, which renews
// through the store and then holds again.
type cohort struct {
	members []*worker
	ticker  *simclock.Ticker
	hold    kvstore.Hold
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
	spec      baselines.Spec
	opts      Options
	// events is the control plane's one event log: every injection,
	// election and recovery step, written once as an instant. It lives
	// on the attached tracer, or on a private one when none is.
	events *trace.Track

	workers []*worker
	// cohorts[rank] is the cohort of rank's current worker.
	cohorts  []*cohort
	election *kvstore.Election
	rootRank int
	rootTick *simclock.Ticker

	// present[rank] reports whether rank's heartbeat key is in the
	// store, and missing counts the ranks whose key is not. A watch on
	// hbPrefix keeps both current, so the root poll reads them instead
	// of the store.
	present []bool
	missing int
	// renewIDs is hold's scratch: the leases a cohort holds, in start
	// order.
	renewIDs []kvstore.LeaseID
	// onPoll, when set, runs in every root poll that reads the presence
	// table, just after the poll's sweep. Tests use it to check the
	// table against the store.
	onPoll func()

	iteration int64
	// remoteEveryIters is the remote tier's cadence in iterations: its
	// WastedModel interval over the spec's Interval, rounded up, unless
	// SetRemoteEvery changed it.
	remoteEveryIters int64
	// lastRemoteCommitted is the newest iteration actually written to the
	// remote persistent tier — recorded at commit time, so recovery never
	// derives it from the current cadence (which SetRemoteEvery may have
	// changed since the last commit).
	lastRemoteCommitted int64
	training            bool
	recovering          bool
	// iterEv is the one training-iteration event, rearmed for every
	// iteration; iterStart is when the pending iteration began.
	iterEv    simclock.EventID
	iterStart simclock.Time
	// healthy reports whether a rank's machine is healthy: the
	// predicate every iteration's commit plan and health sample read,
	// bound once.
	healthy func(rank int) bool
	data    *statemgr.Manager // optional byte-level data plane

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
	wastedEvents  []strategy.Outcome
	recoveryStart simclock.Time

	// Structured tracing (nil = disabled): recovery phases, iterations
	// and health samples on rootTrack.
	rootTrack *trace.Track

	// Chaos state: ranks cut off from the network (heartbeats and peer
	// retrieval both fail), indexed by rank, and per-rank bandwidth
	// factors for stragglers.
	partitioned []bool
	stragglers  map[int]float64
}

// NewSystem builds the control plane for an n-machine cluster. spec is
// the job's GEMINI spec. Its Interval is the training iteration, since
// the CPU-memory tier checkpoints every iteration, and
// ⌈RemoteInterval / Interval⌉ is the default remote cadence; the
// recovery-phase kernel prices every recovery's serialize, retrieve and
// warm-up phases from it.
func NewSystem(engine *simclock.Engine, cl *cluster.Cluster, ck *ckpt.Engine,
	spec baselines.Spec, op *cloud.Operator, opts Options) (*System, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !spec.UsesCPUMemory {
		return nil, fmt.Errorf("agent: spec %s has no CPU-memory tier to recover from", spec.Name)
	}
	if cl.Size() != ck.Placement().N {
		return nil, fmt.Errorf("agent: cluster size %d != placement size %d", cl.Size(), ck.Placement().N)
	}
	s := &System{
		engine:           engine,
		store:            kvstore.New(engine.Now),
		cluster:          cl,
		ckpt:             ck,
		operator:         op,
		placement:        ck.Placement(),
		spec:             spec,
		opts:             opts,
		remoteEveryIters: int64(math.Ceil(float64(spec.WastedModel(baselines.FromRemote).Interval / spec.Interval))),
		events:           trace.NewTracer(engine.Now).Track("control-plane", "events"),
		rootRank:         -1,
		present:          make([]bool, cl.Size()),
		missing:          cl.Size(),
		partitioned:      make([]bool, cl.Size()),
		stragglers:       make(map[int]float64),
	}
	s.healthy = s.machineHealthy
	s.store.Watch(hbPrefix, s.trackHeartbeat)
	el, err := kvstore.NewElection(s.store, leaderKey)
	if err != nil {
		return nil, err
	}
	s.election = el
	s.strategy = strategy.NewGemini()
	s.bindStrategy()
	return s, nil
}

func (s *System) machineHealthy(rank int) bool { return s.cluster.Machine(rank).Healthy() }

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
		IterationTime: s.spec.Interval,
		Emit:          s.emitStrategyEvent,
	})
}

// emitStrategyEvent lands a strategy-level event (adaptive switches) in
// the event log and the metrics registry.
func (s *System) emitStrategyEvent(event, detail string) {
	s.events.InstantArgs(trace.CatAgent, event, detail)
	if h := s.health; h != nil && event == "strategy-switch" {
		h.stratSwitches.Inc()
	}
}

// event records one control-plane event on the event log: cat is the
// subsystem it belongs to, and the detail follows Sprintf rules.
func (s *System) event(cat, name, format string, args ...any) {
	s.events.InstantArgs(cat, name, fmt.Sprintf(format, args...))
}

// Log returns the system's event log, the "control-plane/events" track:
// one instant per event, oldest first, its Args the event's detail.
func (s *System) Log() *trace.Track { return s.events }

// SetTracer attaches a structured tracer: recovery phases (§6.2 steps
// 1–5) and control-plane iterations land on a "control-plane/root-agent"
// track, and the event log moves onto the tracer's
// "control-plane/events" track. Call before Start; a nil tracer leaves
// tracing disabled and free.
func (s *System) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	tr.SetNow(s.engine.Now)
	s.rootTrack = tr.Track("control-plane", "root-agent")
	s.events = tr.Track("control-plane", "events")
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
	s.cohorts = make([]*cohort, s.cluster.Size())
	batch := make([]*worker, len(s.workers))
	for rank := range s.workers {
		batch[rank] = s.startWorker(rank, 0)
	}
	s.heartbeat(batch)
	s.promoteRoot()
	s.watchRootFailover()
	s.training = true
	s.scheduleIteration()
	s.scheduleSweep()
	s.event(trace.CatAgent, "started", "%d machines, m=%d", s.cluster.Size(), s.placement.M)
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

// startWorker boots the agent on rank and publishes its heartbeat. The
// caller adds it to the cohort of workers it starts in the same batch.
func (s *System) startWorker(rank, incarnation int) *worker {
	w := &worker{rank: rank, incarnation: incarnation, hbKey: hbKey(rank), alive: true}
	s.workers[rank] = w
	// The store may be unavailable (chaos): leave the lease at zero and
	// let the heartbeat ticker repair it once the store returns.
	s.refreshLease(w)
	return w
}

// heartbeat starts one ticker for a batch of workers started together,
// taking ownership of the batch. A tick that fires renews the members'
// leases in start order and then rearms the lease sweep once; a silent
// tick renews the held leases in the store (see hold).
//
// A fired tick is exactly what one ticker per worker would do. Workers started
// in one batch share a phase, so their tickers would fire back to back
// in start order at every tick: Rearm sequences them in firing order,
// and a renewal schedules nothing at priority 0 that could cut in. The
// sweep runs at priority 5, after every renewal due at the instant, and
// it lands at the same deadline whether it is rearmed after each
// renewal or once after all of them. So the cohort makes the same
// KeepAlives and the same jitter draws, in the same order.
//
// The cohort holds its leases from the start, so its first tick is
// already silent when every member holds a live lease.
func (s *System) heartbeat(batch []*worker) {
	if len(batch) == 0 {
		return
	}
	c := &cohort{members: batch}
	for _, w := range batch {
		s.cohorts[w.rank] = c
	}
	c.ticker = simclock.NewTicker(s.engine, s.opts.HeartbeatInterval, func(simclock.Time) {
		s.beat(c)
	})
	c.ticker.SetSilent(c.hold.Renew)
	s.hold(c)
}

// beat is one tick of a cohort: it drops members whose machines died,
// renews the rest in start order through refreshLease, re-granting a
// lease that lapsed, and stops the ticker once nobody is left.
func (s *System) beat(c *cohort) {
	c.hold.Settle()
	renewed := false
	live := c.members[:0]
	for _, w := range c.members {
		if !w.alive {
			continue
		}
		// A partitioned agent is running but cannot reach the store;
		// its lease expires and the root declares it failed — exactly
		// the ambiguity real partitions create.
		if !s.partitioned[w.rank] {
			s.refreshLease(w)
			renewed = true
		}
		live = append(live, w)
	}
	clear(c.members[len(live):])
	c.members = live
	if len(live) == 0 {
		c.ticker.Stop()
		return
	}
	s.hold(c)
	// A tick that renewed nobody leaves the sweep alone, as the
	// per-worker tickers of partitioned members did.
	if renewed {
		s.scheduleSweep()
	}
}

// hold hands the leases of c's alive, reachable members to c's hold, in
// start order, settling what it held before. A member without a live
// lease leaves the cohort unheld, so its next tick fires and re-grants.
// Once no member is alive the ticker stops.
func (s *System) hold(c *cohort) {
	ids, alive := s.renewIDs[:0], false
	for _, w := range c.members {
		if !w.alive {
			continue
		}
		alive = true
		if !s.partitioned[w.rank] {
			ids = append(ids, w.lease)
		}
	}
	s.renewIDs = ids[:0]
	if !alive {
		c.hold.Settle()
		c.ticker.Stop()
		return
	}
	s.store.Hold(&c.hold, ids)
}

// rejoin renews w's lease off its cohort's grid, re-granting it if it
// lapsed, and hands the cohort's leases, w's among them, to its hold.
func (s *System) rejoin(w *worker) {
	s.refreshLease(w)
	s.hold(s.cohorts[w.rank])
}

// refreshLease renews w's heartbeat lease, re-granting it (and
// re-publishing the heartbeat key) if it was lost to expiry or a store
// outage. It reports whether the worker holds a live lease afterwards.
func (s *System) refreshLease(w *worker) bool {
	if w.lease != 0 && s.store.KeepAlive(w.lease) == nil {
		return true
	}
	return s.grantLease(w)
}

// grantLease grants w a fresh lease and publishes its heartbeat key
// under it. It reports whether both succeeded.
func (s *System) grantLease(w *worker) bool {
	lease, err := s.store.Grant(s.opts.LeaseTTL)
	if err != nil {
		w.lease = 0
		return false
	}
	w.lease = lease
	if _, err := s.store.Put(w.hbKey, strconv.Itoa(w.incarnation), lease); err != nil {
		w.lease = 0
		return false
	}
	return true
}

// trackHeartbeat keeps the presence table in step with the heartbeat
// keys: a put marks its rank present, a delete (expiry) marks it
// missing.
func (s *System) trackHeartbeat(ev kvstore.Event) {
	rank, err := strconv.Atoi(ev.Entry.Key[len(hbPrefix):])
	if err != nil {
		panic(fmt.Sprintf("agent: malformed heartbeat key %q", ev.Entry.Key))
	}
	if up := ev.Type == kvstore.EventPut; s.present[rank] != up {
		s.present[rank] = up
		if up {
			s.missing--
		} else {
			s.missing++
		}
	}
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
			s.event(trace.CatKVStore, "elected", "rank %d is root", rank)
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
//
// A failure that changes nothing is dropped: a second software crash
// of a worker already down, or any crash of a machine already
// hardware-failed. A hardware failure of a machine whose worker is
// already down (its recovery in flight) is recorded like any other.
func (s *System) InjectFailure(rank int, kind cluster.MachineState) {
	w := s.workers[rank]
	if w == nil || (!w.alive && s.cluster.Machine(rank).State() >= kind) {
		return
	}
	if w.alive {
		w.alive = false
		// Its lease leaves the hold with the deadline of its last renewal.
		s.hold(s.cohorts[rank])
	}
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
	s.event(trace.CatChaos, "failure", "rank %d: %v", rank, kind)
	// Coverage degrades the instant the machine (and, for hardware, its
	// CPU memory) is gone — not at the next iteration boundary.
	s.observeHealth(s.rootTrack)
	s.scheduleSweep()
}

// rootCheck is the root agent's periodic health poll: every expected
// heartbeat must be present; a missing one starts recovery. The root also
// verifies its own machine is alive — a dead root's ticker dies with it.
//
// The poll expires what is due now and then reads the presence table,
// which the heartbeat watch has brought up to date: rootCheck runs from
// its ticker or a scheduled failover, never inside a watch delivery, so
// no event is left undelivered once the sweep returns.
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
	s.store.Sweep()
	if s.onPoll != nil {
		s.onPoll()
	}
	if s.missing > 0 {
		s.beginRecovery(s.missingRanks())
	} else {
		// Heartbeats are healthy; check for a vanished root key (lease
		// hiccup) and re-campaign.
		if _, ok := s.election.Leader(); !ok {
			s.promoteRoot()
		}
	}
}

// missingRanks lists the ranks whose heartbeat key is absent, in
// ascending order.
func (s *System) missingRanks() []int {
	failed := make([]int, 0, s.missing)
	for rank, ok := range s.present {
		if !ok {
			failed = append(failed, rank)
		}
	}
	return failed
}

// watchRootFailover arms every worker to notice the root key vanishing
// (the root machine died) and promote a new root. In etcd terms this is
// a watch on the election key.
func (s *System) watchRootFailover() {
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
				s.event(trace.CatKVStore, "failover", "root moved %d → %d", prevRoot, s.rootRank)
				// The new root immediately checks cluster health: the old
				// root's machine is typically the failed one.
				s.rootCheck()
			}
		})
	})
}
