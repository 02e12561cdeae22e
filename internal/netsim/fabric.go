// Package netsim simulates the training-cluster network: point-to-point
// flows over per-machine NICs with max-min fair bandwidth sharing, the
// α + s/B transfer-time model GEMINI uses (§5.3), per-machine GPU→CPU copy
// channels, and cost models for the collective operations that make up
// ZeRO-3 training traffic.
//
// The fluid model is what lets the interference experiments (§7.4) emerge
// rather than be assumed: when checkpoint flows overlap training flows on
// the same NIC they share bandwidth and both slow down, exactly the
// contention GEMINI's scheduler is designed to avoid.
//
// The rate engine is incremental and allocation-free in steady state:
// flows live in persistent per-node lists, completions come off an
// indexed min-heap of ETAs ordered by (ETA, flow sequence), and a flow
// start/finish/failure marks only its endpoints dirty — one coalesced
// recompute per simulated instant then re-waterfills just the connected
// component those nodes belong to. See DESIGN.md for the full data
// structures and the determinism guarantees.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"gemini/internal/simclock"
	"gemini/internal/trace"
)

// Config describes the fabric connecting training machines.
type Config struct {
	// EgressBytesPerSec is each machine's NIC send capacity.
	EgressBytesPerSec float64
	// IngressBytesPerSec is each machine's NIC receive capacity.
	// Zero means "same as egress".
	IngressBytesPerSec float64
	// Alpha is the per-transfer startup latency (the α in f(s) = α + s/B).
	Alpha simclock.Duration
}

// The negated comparisons below also reject NaN.
func (c Config) validate() error {
	if !(c.EgressBytesPerSec > 0) {
		return fmt.Errorf("netsim: egress bandwidth must be positive, got %v", c.EgressBytesPerSec)
	}
	if !(c.IngressBytesPerSec >= 0) {
		return fmt.Errorf("netsim: ingress bandwidth must be nonnegative, got %v", c.IngressBytesPerSec)
	}
	if !(c.Alpha >= 0) {
		return fmt.Errorf("netsim: alpha must be nonnegative, got %v", c.Alpha)
	}
	return nil
}

// FlowState is the lifecycle state of a flow.
type FlowState int

const (
	// FlowStarting means the flow is in its α startup window.
	FlowStarting FlowState = iota
	// FlowActive means the flow is transferring bytes.
	FlowActive
	// FlowDone means all bytes were delivered.
	FlowDone
	// FlowFailed means an endpoint went down before completion.
	FlowFailed
	// FlowCanceled means the flow was canceled by its owner.
	FlowCanceled
)

func (s FlowState) String() string {
	switch s {
	case FlowStarting:
		return "starting"
	case FlowActive:
		return "active"
	case FlowDone:
		return "done"
	case FlowFailed:
		return "failed"
	case FlowCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("FlowState(%d)", int(s))
	}
}

// Event-priority layout within one simulated instant: completions fire
// before user events (priority 0), and the coalesced rate recompute fires
// after every mutation of the instant has landed.
const (
	completionPriority = -10
	recomputePriority  = 10
)

// Flow is an in-flight point-to-point transfer.
//
// The handle StartFlow returns stays valid after the flow finishes until
// its owner calls Release, which hands the memory back to the fabric for
// a later StartFlow. Owners that never call Release keep a plain,
// garbage-collected handle.
type Flow struct {
	Src, Dst int
	Label    string

	fabric    *Fabric
	bytes     float64 // total size
	remaining float64 // as of lastUpdate
	rate      float64 // current share, bytes/sec
	state     FlowState
	started   simclock.Time
	finished  simclock.Time
	onDone    func(*Flow)
	released  bool // on the fabric's free list

	// startFn and startEv are the flow's α-window event, bound once per
	// Flow object and rearmed by every StartFlow that reuses it.
	startFn func()
	startEv simclock.EventID

	seq        uint64        // global start order; the deterministic tie-break
	lastUpdate simclock.Time // instant remaining was last settled to
	eta        simclock.Time // projected completion; valid while heapIdx >= 0
	outIdx     int32         // position in nodes[Src].out
	inIdx      int32         // position in nodes[Dst].in
	activeIdx  int32         // position in fabric.active
	heapIdx    int32         // position in fabric.byETA; -1 when parked
	visited    uint64        // component-collection generation mark
	frozen     bool          // waterfill scratch
}

// State returns the flow's lifecycle state.
func (f *Flow) State() FlowState { return f.state }

// Bytes returns the flow's total size in bytes.
func (f *Flow) Bytes() float64 { return f.bytes }

// Remaining returns how many bytes are still to be delivered, as of the
// current instant.
func (f *Flow) Remaining() float64 {
	rem := f.remaining
	if f.state == FlowActive && f.rate > 0 {
		rem -= f.rate * f.fabric.engine.Now().Sub(f.lastUpdate).Seconds()
		if rem < 0 {
			rem = 0
		}
	}
	return rem
}

// Rate returns the flow's current max-min share in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// StartedAt returns when the flow was submitted.
func (f *Flow) StartedAt() simclock.Time { return f.started }

// FinishedAt returns when the flow reached a terminal state; it is zero
// for flows still in flight.
func (f *Flow) FinishedAt() simclock.Time { return f.finished }

// Cancel removes the flow from the fabric without delivering remaining
// bytes. The completion callback fires with state FlowCanceled.
func (f *Flow) Cancel() {
	if f.state == FlowDone || f.state == FlowFailed || f.state == FlowCanceled {
		return
	}
	f.startEv.Cancel()
	fb := f.fabric
	if f.state == FlowActive {
		fb.settleFlow(f, fb.engine.Now())
	}
	fb.finishFlow(f, FlowCanceled)
	fb.armRecompute()
}

// Release returns a finished flow to its fabric, whose next StartFlow may
// hand the same *Flow out again. The caller must drop every reference
// first: a stale Cancel or accessor would reach the reused flow. Release
// is typically the last thing a completion callback does with its flow.
// Releasing a flow that is still starting or active, or releasing it
// twice, panics.
func (f *Flow) Release() {
	if f.released {
		panic(fmt.Sprintf("netsim: flow %q released twice", f.Label))
	}
	if f.state == FlowStarting || f.state == FlowActive {
		panic(fmt.Sprintf("netsim: release of %v flow %q", f.state, f.Label))
	}
	f.released = true
	f.Label = ""
	f.fabric.free = append(f.fabric.free, f)
}

type node struct {
	up         bool
	egressCap  float64
	ingressCap float64

	// Persistent flow lists: every active flow sits in its source's out
	// list and its destination's in list (swap-removed on finish).
	out []*Flow
	in  []*Flow

	// busy accounting for idle-time measurement
	activeFlows int
	busySince   simclock.Time
	busyTotal   simclock.Duration

	// scratch owned by the component collector and the waterfill
	egRem, inRem float64
	egN, inN     int32
	visited      uint64
	dirtySeen    uint64
}

// Fabric simulates the cluster network. It must only be used from within
// the simulation goroutine (callbacks of the same engine).
type Fabric struct {
	engine *simclock.Engine
	cfg    Config
	nodes  []node

	active []*Flow // all FlowActive flows
	byETA  []*Flow // indexed min-heap on (eta, seq); active flows with rate > 0

	// partition assigns each node a partition id; nil means fully
	// connected. Flows may only cross between nodes with equal ids.
	partition []int
	// linkFactor caps a directed link at a fraction of its endpoints'
	// NIC bandwidth; absent links are undegraded.
	linkFactor map[[2]int]float64
	// nodeFactor scales a node's effective NIC bandwidth (straggler
	// injection); nil means every node runs at full speed.
	nodeFactor []float64

	flowSeq uint64
	free    []*Flow // released flows, reused by StartFlow

	// Dirty set and pooled scratch, reused across events so steady-state
	// flow traffic never allocates.
	dirty     []int
	dirtyGen  uint64
	visitGen  uint64
	seeds     []int
	compNodes []int
	compFlows []*Flow
	drained   []*Flow

	inRecompute bool
	recomputeEv simclock.EventID
	recomputeAt simclock.Time
	completion  simclock.EventID
	completeAt  simclock.Time

	stats fabricStats

	// nicTracks[i] is machine i's NIC trace track; nil when tracing is
	// off, which must keep finishFlow allocation-free.
	nicTracks []*trace.Track
}

// NewFabric creates a fabric with n machine endpoints.
func NewFabric(engine *simclock.Engine, n int, cfg Config) (*Fabric, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("netsim: fabric needs at least one node, got %d", n)
	}
	if cfg.IngressBytesPerSec == 0 {
		cfg.IngressBytesPerSec = cfg.EgressBytesPerSec
	}
	f := &Fabric{
		engine:   engine,
		cfg:      cfg,
		nodes:    make([]node, n),
		dirtyGen: 1,
		visitGen: 1,
	}
	for i := range f.nodes {
		f.nodes[i] = node{up: true, egressCap: cfg.EgressBytesPerSec, ingressCap: cfg.IngressBytesPerSec}
	}
	return f, nil
}

// MustNewFabric is NewFabric for statically-known-good configs.
func MustNewFabric(engine *simclock.Engine, n int, cfg Config) *Fabric {
	f, err := NewFabric(engine, n, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Config returns the fabric configuration.
func (fb *Fabric) Config() Config { return fb.cfg }

// ActiveFlows returns the number of flows not yet in a terminal state.
func (fb *Fabric) ActiveFlows() int { return len(fb.active) }

// StartFlow submits a transfer of size bytes from src to dst. After the α
// startup latency the flow competes for bandwidth under max-min fairness.
// onDone fires exactly once when the flow reaches a terminal state.
// A zero-byte flow completes after just the startup latency.
//
// The returned flow may be one an earlier owner released (see
// Flow.Release); it is reset to a fresh flow either way.
func (fb *Fabric) StartFlow(src, dst int, bytes float64, label string, onDone func(*Flow)) *Flow {
	fb.checkNode(src)
	fb.checkNode(dst)
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("netsim: invalid flow size %v", bytes))
	}
	if src == dst {
		panic("netsim: flow source and destination must differ")
	}
	fl := fb.takeFlow()
	*fl = Flow{
		Src: src, Dst: dst, Label: label,
		fabric: fb, bytes: bytes, remaining: bytes,
		state: FlowStarting, started: fb.engine.Now(), onDone: onDone,
		startFn: fl.startFn, startEv: fl.startEv,
		seq: fb.flowSeq, outIdx: -1, inIdx: -1, activeIdx: -1, heapIdx: -1,
	}
	fb.flowSeq++
	fb.stats.flowsStarted++
	if !fb.nodes[src].up || !fb.nodes[dst].up || !fb.Reachable(src, dst) {
		// Fail asynchronously so callers never observe a callback during
		// StartFlow itself. By then the flow may have been canceled,
		// released and reused; its sequence number tells.
		seq := fl.seq
		fb.engine.After(0, func() {
			if fl.seq == seq && fl.state == FlowStarting {
				fb.finishFlow(fl, FlowFailed)
			}
		})
		return fl
	}
	// A terminal flow's start event has fired or been canceled, so a
	// reused flow can move its own event instead of allocating one.
	if fl.startEv == (simclock.EventID{}) {
		fl.startEv = fb.engine.After(fb.cfg.Alpha, fl.startFn)
	} else {
		fb.engine.Rearm(fl.startEv, fb.engine.Now().Add(fb.cfg.Alpha))
	}
	return fl
}

// takeFlow pops a released flow off the free list, or makes a new one
// with its start callback bound once for all the lives it will have.
func (fb *Fabric) takeFlow() *Flow {
	if n := len(fb.free); n > 0 {
		fl := fb.free[n-1]
		fb.free[n-1] = nil
		fb.free = fb.free[:n-1]
		return fl
	}
	fl := &Flow{}
	fl.startFn = fl.start
	return fl
}

// start ends the α startup window: the flow joins the rate engine.
func (fl *Flow) start() {
	if fl.state != FlowStarting {
		return
	}
	fb := fl.fabric
	// An endpoint may have failed or been partitioned away during the
	// startup window; such flows never carried a byte and fail here.
	if !fb.nodes[fl.Src].up || !fb.nodes[fl.Dst].up || !fb.Reachable(fl.Src, fl.Dst) {
		fb.finishFlow(fl, FlowFailed)
		return
	}
	fl.state = FlowActive
	fl.lastUpdate = fb.engine.Now()
	fb.attachFlow(fl)
	fb.armRecompute()
}

func (fb *Fabric) checkNode(i int) {
	if i < 0 || i >= len(fb.nodes) {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", i, len(fb.nodes)))
	}
}

// SetNodeUp marks an endpoint healthy or failed. Taking a node down fails
// every flow that touches it, in flow-start order.
func (fb *Fabric) SetNodeUp(i int, up bool) {
	fb.checkNode(i)
	n := &fb.nodes[i]
	if n.up == up {
		return
	}
	n.up = up
	if !up {
		// Snapshot into a fresh slice: callbacks may fail further nodes.
		doomed := make([]*Flow, 0, len(n.out)+len(n.in))
		doomed = append(doomed, n.out...)
		doomed = append(doomed, n.in...)
		fb.failFlows(doomed)
	}
	fb.armRecompute()
}

// NodeUp reports whether endpoint i is healthy.
func (fb *Fabric) NodeUp(i int) bool {
	fb.checkNode(i)
	return fb.nodes[i].up
}

// SetPartition splits the fabric: each listed group can only talk within
// itself, and all unlisted nodes form one residual component. Active
// flows crossing a partition boundary fail immediately, in flow-start
// order; flows in their startup window fail when the window elapses. A
// later call replaces the previous partition wholesale.
func (fb *Fabric) SetPartition(groups ...[]int) {
	part := make([]int, len(fb.nodes))
	for gi, group := range groups {
		for _, i := range group {
			fb.checkNode(i)
			if part[i] != 0 {
				panic(fmt.Sprintf("netsim: node %d listed in two partition groups", i))
			}
			part[i] = gi + 1
		}
	}
	fb.partition = part
	var doomed []*Flow
	for _, fl := range fb.active {
		if !fb.Reachable(fl.Src, fl.Dst) {
			doomed = append(doomed, fl)
		}
	}
	fb.failFlows(doomed)
	fb.armRecompute()
}

// failFlows settles and fails the given flows in flow-start order.
// Callbacks run synchronously and may mutate the fabric further; flows a
// callback already finished are skipped.
func (fb *Fabric) failFlows(doomed []*Flow) {
	slices.SortFunc(doomed, func(a, b *Flow) int {
		switch {
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		default:
			return 0
		}
	})
	now := fb.engine.Now()
	for _, fl := range doomed {
		if fl.state != FlowActive {
			continue
		}
		fb.settleFlow(fl, now)
		fb.finishFlow(fl, FlowFailed)
	}
}

// ClearPartition heals all partitions.
func (fb *Fabric) ClearPartition() {
	fb.partition = nil
}

// Reachable reports whether two endpoints can currently exchange bytes,
// considering only partitions (not node health).
func (fb *Fabric) Reachable(i, j int) bool {
	fb.checkNode(i)
	fb.checkNode(j)
	if fb.partition == nil {
		return true
	}
	return fb.partition[i] == fb.partition[j]
}

// SetLinkFactor degrades the directed link src→dst to the given fraction
// of its endpoints' NIC bandwidth. factor must be in (0, 1]; 1 removes
// the degradation.
func (fb *Fabric) SetLinkFactor(src, dst int, factor float64) {
	fb.checkNode(src)
	fb.checkNode(dst)
	if factor <= 0 || factor > 1 || math.IsNaN(factor) {
		panic(fmt.Sprintf("netsim: link factor must be in (0,1], got %v", factor))
	}
	if factor == 1 {
		delete(fb.linkFactor, [2]int{src, dst})
	} else {
		if fb.linkFactor == nil {
			fb.linkFactor = make(map[[2]int]float64)
		}
		fb.linkFactor[[2]int{src, dst}] = factor
	}
	fb.markDirty(src)
	fb.markDirty(dst)
	fb.armRecompute()
}

// SetNodeFactor scales endpoint i's effective NIC bandwidth — straggler
// injection. factor must be in [0, 1]; 1 restores full speed, and 0
// parks the node's flows at rate zero until bandwidth returns.
func (fb *Fabric) SetNodeFactor(i int, factor float64) {
	fb.checkNode(i)
	if factor < 0 || factor > 1 || math.IsNaN(factor) {
		panic(fmt.Sprintf("netsim: node factor must be in [0,1], got %v", factor))
	}
	if fb.nodeFactor == nil {
		if factor == 1 {
			return
		}
		fb.nodeFactor = make([]float64, len(fb.nodes))
		for j := range fb.nodeFactor {
			fb.nodeFactor[j] = 1
		}
	}
	fb.nodeFactor[i] = factor
	fb.markDirty(i)
	fb.armRecompute()
}

// NodeFactor returns endpoint i's current bandwidth scale.
func (fb *Fabric) NodeFactor(i int) float64 {
	fb.checkNode(i)
	if fb.nodeFactor == nil {
		return 1
	}
	return fb.nodeFactor[i]
}

// nodeScale is NodeFactor without the bounds re-check, for hot paths.
func (fb *Fabric) nodeScale(i int) float64 {
	if fb.nodeFactor == nil {
		return 1
	}
	return fb.nodeFactor[i]
}

// flowCap returns the per-flow rate ceiling imposed by link degradation,
// or +Inf when the flow's link is undegraded.
func (fb *Fabric) flowCap(fl *Flow) float64 {
	f, ok := fb.linkFactor[[2]int{fl.Src, fl.Dst}]
	if !ok {
		return math.Inf(1)
	}
	eff := math.Min(
		fb.nodes[fl.Src].egressCap*fb.nodeScale(fl.Src),
		fb.nodes[fl.Dst].ingressCap*fb.nodeScale(fl.Dst),
	)
	return f * eff
}

// BusyTime returns how long endpoint i has had at least one active flow
// (sending or receiving), up to the current instant. The network-idle
// measurements of Figures 8 and 13b subtract this from elapsed time.
func (fb *Fabric) BusyTime(i int) simclock.Duration {
	fb.checkNode(i)
	n := &fb.nodes[i]
	total := n.busyTotal
	if n.activeFlows > 0 {
		total += fb.engine.Now().Sub(n.busySince)
	}
	return total
}

// ResetBusyTime zeroes the busy-time accumulator for all endpoints,
// typically at an iteration boundary.
func (fb *Fabric) ResetBusyTime() {
	now := fb.engine.Now()
	for i := range fb.nodes {
		n := &fb.nodes[i]
		n.busyTotal = 0
		if n.activeFlows > 0 {
			n.busySince = now
		}
	}
}

func (fb *Fabric) nodeActivate(i int) {
	n := &fb.nodes[i]
	if n.activeFlows == 0 {
		n.busySince = fb.engine.Now()
	}
	n.activeFlows++
}

func (fb *Fabric) nodeDeactivate(i int) {
	n := &fb.nodes[i]
	n.activeFlows--
	if n.activeFlows == 0 {
		n.busyTotal += fb.engine.Now().Sub(n.busySince)
	}
	if n.activeFlows < 0 {
		panic("netsim: node active-flow count went negative")
	}
}

// settleFlow advances one flow's remaining bytes to now at its current
// rate. Rates only change at recompute instants, so per-flow settling is
// exact; flows at rate zero only refresh their settle point.
func (fb *Fabric) settleFlow(fl *Flow, now simclock.Time) {
	if fl.rate == 0 || fl.lastUpdate == now {
		fl.lastUpdate = now
		return
	}
	fb.stats.settleOps++
	fl.remaining -= fl.rate * now.Sub(fl.lastUpdate).Seconds()
	// Sub-byte residue is float error, not payload.
	if fl.remaining < 1e-3 {
		fl.remaining = 0
	}
	fl.lastUpdate = now
}

// attachFlow inserts a newly active flow into the persistent per-node
// lists, the active list, and busy accounting. It enters the ETA heap at
// the next recompute.
func (fb *Fabric) attachFlow(fl *Flow) {
	src := &fb.nodes[fl.Src]
	fl.outIdx = int32(len(src.out))
	src.out = append(src.out, fl)
	dst := &fb.nodes[fl.Dst]
	fl.inIdx = int32(len(dst.in))
	dst.in = append(dst.in, fl)
	fl.activeIdx = int32(len(fb.active))
	fb.active = append(fb.active, fl)
	if len(fb.active) > fb.stats.peakFlows {
		fb.stats.peakFlows = len(fb.active)
	}
	fb.nodeActivate(fl.Src)
	fb.nodeActivate(fl.Dst)
	fb.markDirty(fl.Src)
	fb.markDirty(fl.Dst)
}

// detachFlow swap-removes an active flow from every engine structure and
// marks its endpoints dirty.
func (fb *Fabric) detachFlow(fl *Flow) {
	src := &fb.nodes[fl.Src]
	last := len(src.out) - 1
	moved := src.out[last]
	src.out[fl.outIdx] = moved
	moved.outIdx = fl.outIdx
	src.out[last] = nil
	src.out = src.out[:last]
	fl.outIdx = -1

	dst := &fb.nodes[fl.Dst]
	last = len(dst.in) - 1
	moved = dst.in[last]
	dst.in[fl.inIdx] = moved
	moved.inIdx = fl.inIdx
	dst.in[last] = nil
	dst.in = dst.in[:last]
	fl.inIdx = -1

	last = len(fb.active) - 1
	moved = fb.active[last]
	fb.active[fl.activeIdx] = moved
	moved.activeIdx = fl.activeIdx
	fb.active[last] = nil
	fb.active = fb.active[:last]
	fl.activeIdx = -1

	fb.heapRemove(fl)
	fb.nodeDeactivate(fl.Src)
	fb.nodeDeactivate(fl.Dst)
	fb.markDirty(fl.Src)
	fb.markDirty(fl.Dst)
}

func (fb *Fabric) finishFlow(fl *Flow, state FlowState) {
	if fl.state == FlowActive {
		fb.detachFlow(fl)
	}
	fl.state = state
	fl.rate = 0
	fl.finished = fb.engine.Now()
	fb.stats.flowsFinished++
	if fb.nicTracks != nil {
		// Constant arg strings: the traced path may allocate (appends),
		// but never formats.
		switch state {
		case FlowDone:
			fb.nicTracks[fl.Src].Span(trace.CatNetsim, fl.Label, fl.started, fl.finished)
		case FlowFailed:
			fb.nicTracks[fl.Src].SpanArgs(trace.CatNetsim, fl.Label, fl.started, fl.finished, "state=failed")
		case FlowCanceled:
			fb.nicTracks[fl.Src].SpanArgs(trace.CatNetsim, fl.Label, fl.started, fl.finished, "state=canceled")
		}
	}
	if fl.onDone != nil {
		cb := fl.onDone
		fl.onDone = nil
		cb(fl)
	}
}

// markDirty records that node i's capacity allocation may have changed;
// the next recompute re-waterfills i's connected component.
func (fb *Fabric) markDirty(i int) {
	if fb.nodes[i].dirtySeen == fb.dirtyGen {
		return
	}
	fb.nodes[i].dirtySeen = fb.dirtyGen
	fb.dirty = append(fb.dirty, i)
}

// armRecompute schedules the coalesced rate recompute for the current
// instant. Mutations within one instant share a single recompute, which
// is what makes a ring round O(N) instead of O(N²).
func (fb *Fabric) armRecompute() {
	if fb.inRecompute || len(fb.dirty) == 0 {
		return
	}
	now := fb.engine.Now()
	if fb.recomputeEv.Pending() && fb.recomputeAt == now {
		return
	}
	fb.recomputeAt = now
	if fb.recomputeEv == (simclock.EventID{}) {
		fb.recomputeEv = fb.engine.AtPriority(now, recomputePriority, fb.recompute)
	} else {
		fb.engine.Rearm(fb.recomputeEv, now)
	}
}

// recompute is the once-per-instant rate pass: settle and re-waterfill
// the connected components of all dirty nodes, complete flows that
// drained, and re-aim the completion event at the new earliest ETA.
func (fb *Fabric) recompute() {
	fb.inRecompute = true
	fb.stats.recomputes++
	now := fb.engine.Now()
	for len(fb.dirty) > 0 {
		fb.collectComponent(now)
		if len(fb.drained) > 0 {
			// Completion callbacks fire in (ETA, flow-sequence) order and
			// may mutate the fabric, so collect again afterwards.
			slices.SortFunc(fb.drained, flowETACmp)
			for _, fl := range fb.drained {
				if fl.state == FlowActive {
					fb.finishFlow(fl, FlowDone)
				}
			}
			continue
		}
		fb.waterfill()
		if fb.updateETAs(now) {
			continue
		}
	}
	fb.inRecompute = false
	fb.armCompletion()
}

// collectComponent snapshots the dirty set and walks the union of its
// nodes' connected components over the persistent flow lists, settling
// every flow it reaches. Flows that drained end up in fb.drained.
func (fb *Fabric) collectComponent(now simclock.Time) {
	fb.seeds = append(fb.seeds[:0], fb.dirty...)
	fb.dirty = fb.dirty[:0]
	fb.dirtyGen++
	fb.visitGen++
	gen := fb.visitGen
	fb.compNodes = fb.compNodes[:0]
	fb.compFlows = fb.compFlows[:0]
	fb.drained = fb.drained[:0]
	for _, s := range fb.seeds {
		if fb.nodes[s].visited == gen {
			continue
		}
		fb.nodes[s].visited = gen
		fb.compNodes = append(fb.compNodes, s)
	}
	for qi := 0; qi < len(fb.compNodes); qi++ {
		n := &fb.nodes[fb.compNodes[qi]]
		for _, fl := range n.out {
			fb.visitFlow(fl, gen, now)
		}
		for _, fl := range n.in {
			fb.visitFlow(fl, gen, now)
		}
	}
	fb.stats.flowsRecomputed += uint64(len(fb.compFlows))
	fb.stats.activeAtRecompute += uint64(len(fb.active))
}

func (fb *Fabric) visitFlow(fl *Flow, gen uint64, now simclock.Time) {
	if fl.visited == gen {
		return
	}
	fl.visited = gen
	fb.settleFlow(fl, now)
	fb.compFlows = append(fb.compFlows, fl)
	if fl.remaining == 0 {
		fb.drained = append(fb.drained, fl)
	}
	if n := &fb.nodes[fl.Src]; n.visited != gen {
		n.visited = gen
		fb.compNodes = append(fb.compNodes, fl.Src)
	}
	if n := &fb.nodes[fl.Dst]; n.visited != gen {
		n.visited = gen
		fb.compNodes = append(fb.compNodes, fl.Dst)
	}
}

// waterfill runs max-min water-filling over the collected component,
// using the scratch fields embedded in the nodes themselves.
func (fb *Fabric) waterfill() {
	flows := fb.compFlows
	if len(flows) == 0 {
		return
	}
	fb.stats.waterfills++
	for _, fl := range flows {
		fl.rate = 0
		fl.frozen = false
	}
	for _, ni := range fb.compNodes {
		n := &fb.nodes[ni]
		sc := fb.nodeScale(ni)
		n.egRem = n.egressCap * sc
		n.inRem = n.ingressCap * sc
		n.egN = int32(len(n.out))
		n.inN = int32(len(n.in))
	}
	unfrozen := len(flows)
	linked := len(fb.linkFactor) > 0
	eps := 1e-6 * fb.cfg.EgressBytesPerSec
	freeze := func(fl *Flow) {
		fl.frozen = true
		fb.nodes[fl.Src].egN--
		fb.nodes[fl.Dst].inN--
		unfrozen--
	}
	for unfrozen > 0 {
		fb.stats.waterfillRounds++
		// Find the tightest constraint: min over node caps of
		// remaining/unfrozen, and min over unfrozen flows of headroom to
		// their link cap.
		limit := math.Inf(1)
		for _, ni := range fb.compNodes {
			n := &fb.nodes[ni]
			if n.egN > 0 {
				if share := n.egRem / float64(n.egN); share < limit {
					limit = share
				}
			}
			if n.inN > 0 {
				if share := n.inRem / float64(n.inN); share < limit {
					limit = share
				}
			}
		}
		if linked {
			for _, fl := range flows {
				if !fl.frozen {
					if head := fb.flowCap(fl) - fl.rate; head < limit {
						limit = head
					}
				}
			}
		}
		if math.IsInf(limit, 1) {
			break
		}
		if limit < 0 {
			limit = 0
		}
		// Raise every unfrozen flow by limit, then freeze flows on any
		// capacity that is now exhausted and flows that hit their link cap.
		for _, fl := range flows {
			if !fl.frozen {
				fl.rate += limit
			}
		}
		for _, ni := range fb.compNodes {
			n := &fb.nodes[ni]
			n.egRem -= limit * float64(n.egN)
			n.inRem -= limit * float64(n.inN)
		}
		froze := false
		for _, ni := range fb.compNodes {
			n := &fb.nodes[ni]
			if n.egRem <= eps {
				for _, fl := range n.out {
					if !fl.frozen {
						freeze(fl)
						froze = true
					}
				}
			}
			if n.inRem <= eps {
				for _, fl := range n.in {
					if !fl.frozen {
						freeze(fl)
						froze = true
					}
				}
			}
		}
		if linked {
			for _, fl := range flows {
				if !fl.frozen && fl.rate >= fb.flowCap(fl)-eps {
					freeze(fl)
					froze = true
				}
			}
		}
		if !froze {
			break
		}
	}
}

// updateETAs refreshes the completion heap for the component's flows. A
// flow whose residual transfer time is below the clock's resolution at
// this timestamp finishes immediately — exactly one per pass, lowest
// (ETA, sequence) first, so callbacks stay deterministic; it reports
// whether it finished one (the recompute loop then runs again).
func (fb *Fabric) updateETAs(now simclock.Time) bool {
	var forced *Flow
	for _, fl := range fb.compFlows {
		if fl.state != FlowActive {
			continue
		}
		if fl.rate <= 0 {
			// Parked (zero-bandwidth endpoint): no ETA, no event-loop spin.
			fb.heapRemove(fl)
			continue
		}
		fl.eta = now.Add(simclock.Duration(fl.remaining / fl.rate))
		fb.heapFix(fl)
		if fl.eta <= now && (forced == nil || flowETACmp(fl, forced) < 0) {
			forced = fl
		}
	}
	if forced != nil {
		forced.remaining = 0
		fb.finishFlow(forced, FlowDone)
		return true
	}
	return false
}

// armCompletion re-aims the persistent completion event at the heap's
// earliest ETA, or parks it when no flow is progressing.
func (fb *Fabric) armCompletion() {
	if len(fb.byETA) == 0 {
		fb.completion.Cancel()
		return
	}
	eta := fb.byETA[0].eta
	if fb.completion.Pending() && fb.completeAt == eta {
		return
	}
	fb.completeAt = eta
	if fb.completion == (simclock.EventID{}) {
		fb.completion = fb.engine.AtPriority(eta, completionPriority, fb.onCompletion)
	} else {
		fb.engine.Rearm(fb.completion, eta)
	}
}

// onCompletion fires at the earliest ETA: every due flow completes, in
// heap order — (ETA, flow sequence) — with callbacks running inside this
// event, before same-instant user events, as the priority layout demands.
func (fb *Fabric) onCompletion() {
	now := fb.engine.Now()
	for len(fb.byETA) > 0 && fb.byETA[0].eta <= now {
		fl := fb.byETA[0]
		fb.settleFlow(fl, now)
		fl.remaining = 0
		fb.finishFlow(fl, FlowDone)
	}
	if len(fb.dirty) > 0 {
		fb.armRecompute()
	} else {
		fb.armCompletion()
	}
}

// flowETACmp orders flows by (ETA, start sequence) — the engine's
// deterministic completion order.
func flowETACmp(a, b *Flow) int {
	switch {
	case a.eta < b.eta:
		return -1
	case a.eta > b.eta:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	default:
		return 0
	}
}

func flowLess(a, b *Flow) bool {
	return a.eta < b.eta || (a.eta == b.eta && a.seq < b.seq)
}

// heapFix inserts fl into the ETA heap or restores heap order after its
// ETA changed.
func (fb *Fabric) heapFix(fl *Flow) {
	if fl.heapIdx < 0 {
		fl.heapIdx = int32(len(fb.byETA))
		fb.byETA = append(fb.byETA, fl)
		fb.heapUp(int(fl.heapIdx))
		return
	}
	i := int(fl.heapIdx)
	fb.heapUp(i)
	if int(fl.heapIdx) == i {
		fb.heapDown(i)
	}
}

func (fb *Fabric) heapRemove(fl *Flow) {
	i := int(fl.heapIdx)
	if i < 0 {
		return
	}
	h := fb.byETA
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	fb.byETA = h[:n]
	fl.heapIdx = -1
	if i == n {
		return
	}
	h[i] = last
	last.heapIdx = int32(i)
	fb.heapUp(i)
	if int(last.heapIdx) == i {
		fb.heapDown(i)
	}
}

func (fb *Fabric) heapUp(i int) {
	h := fb.byETA
	fl := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !flowLess(fl, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].heapIdx = int32(i)
		i = p
	}
	h[i] = fl
	fl.heapIdx = int32(i)
}

func (fb *Fabric) heapDown(i int) {
	h := fb.byETA
	n := len(h)
	fl := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c := l
		if r := l + 1; r < n && flowLess(h[r], h[l]) {
			c = r
		}
		if !flowLess(h[c], fl) {
			break
		}
		h[i] = h[c]
		h[i].heapIdx = int32(i)
		i = c
	}
	h[i] = fl
	fl.heapIdx = int32(i)
}

// TransferTime returns the α + s/B point-to-point time for a transfer of
// size bytes on an otherwise idle network — the f(s) of Algorithm 2.
func (fb *Fabric) TransferTime(bytes float64) simclock.Duration {
	return TransferTime(bytes, fb.cfg.EgressBytesPerSec, fb.cfg.Alpha)
}

// TransferTime is the α + s/B model as a pure function.
func TransferTime(bytes, bandwidthBytesPerSec float64, alpha simclock.Duration) simclock.Duration {
	return alpha + simclock.Duration(bytes/bandwidthBytesPerSec)
}
