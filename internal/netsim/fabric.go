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
// start or finish marks only its endpoints dirty — one coalesced
// recompute per simulated instant then re-waterfills just the connected
// component those nodes belong to. Flows that start at one instant with
// nothing else sequenced on the engine between them share one α-window
// event, which fires exactly where their per-flow events would have. See
// DESIGN.md for the full data structures and the determinism guarantees.
//
// The fabric carries no faults: every flow runs starting (α window) →
// active → done. Fault injection lives in the agent control plane.
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
	// EgressBytesPerSec is each machine's NIC send capacity, and its
	// receive capacity too.
	EgressBytesPerSec float64
	// Alpha is the per-transfer startup latency (the α in f(s) = α + s/B).
	Alpha simclock.Duration
}

// The negated comparisons below also reject NaN.
func (c Config) validate() error {
	if !(c.EgressBytesPerSec > 0) {
		return fmt.Errorf("netsim: egress bandwidth must be positive, got %v", c.EgressBytesPerSec)
	}
	if !(c.Alpha >= 0) {
		return fmt.Errorf("netsim: alpha must be nonnegative, got %v", c.Alpha)
	}
	return nil
}

// FlowState is the lifecycle state of a flow: starting, then active, then
// done.
type FlowState int

const (
	// FlowStarting means the flow is in its α startup window.
	FlowStarting FlowState = iota
	// FlowActive means the flow is transferring bytes.
	FlowActive
	// FlowDone means all bytes were delivered.
	FlowDone
)

func (s FlowState) String() string {
	switch s {
	case FlowStarting:
		return "starting"
	case FlowActive:
		return "active"
	case FlowDone:
		return "done"
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

	seq        uint64        // global start order; the deterministic tie-break
	lastUpdate simclock.Time // instant remaining was last settled to
	eta        simclock.Time // projected completion; valid while heapIdx >= 0
	outIdx     int32         // position in nodes[Src].out
	inIdx      int32         // position in nodes[Dst].in
	activeIdx  int32         // position in fabric.active
	heapIdx    int32         // position in fabric.byETA; -1 when not in it
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
	if f.state == FlowActive {
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

// FinishedAt returns when the flow was done; it is zero for flows still
// in flight.
func (f *Flow) FinishedAt() simclock.Time { return f.finished }

// Release returns a finished flow to its fabric, whose next StartFlow may
// hand the same *Flow out again. The caller must drop every reference
// first: a stale accessor would reach the reused flow. Release
// is typically the last thing a completion callback does with its flow.
// Releasing a flow that is still starting or active, or releasing it
// twice, panics.
func (f *Flow) Release() {
	if f.released {
		panic(fmt.Sprintf("netsim: flow %q released twice", f.Label))
	}
	if f.state != FlowDone {
		panic(fmt.Sprintf("netsim: release of %v flow %q", f.state, f.Label))
	}
	f.released = true
	f.Label = ""
	f.fabric.free = append(f.fabric.free, f)
}

type node struct {
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
	byETA  []*Flow // indexed min-heap on (eta, seq) of rated active flows

	flowSeq uint64
	free    []*Flow // released flows, reused by StartFlow

	// Flows in their α window, in start order, and the batches that
	// start them: each batch is the next n flows of starting and owns one
	// engine event. Fired batch events wait in batchEvs for reuse.
	starting fifo[*Flow]
	batches  fifo[flowBatch]
	batchEvs []simclock.EventID
	batchFn  func() // startBatch, bound once so a new batch event allocates no closure

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
	f := &Fabric{
		engine:   engine,
		cfg:      cfg,
		nodes:    make([]node, n),
		dirtyGen: 1,
		visitGen: 1,
	}
	f.batchFn = f.startBatch
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

// ActiveFlows returns the number of flows past their α window and not yet
// done.
func (fb *Fabric) ActiveFlows() int { return len(fb.active) }

// StartFlow submits a transfer of size bytes from src to dst. After the α
// startup latency the flow competes for bandwidth under max-min fairness.
// onDone fires exactly once, when the last byte is delivered; it never
// runs during StartFlow itself. A zero-byte flow completes after just the
// startup latency.
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
	now := fb.engine.Now()
	fl := fb.takeFlow()
	fl.Src, fl.Dst, fl.Label = src, dst, label
	fl.bytes, fl.remaining, fl.rate = bytes, bytes, 0
	fl.state, fl.started, fl.finished = FlowStarting, now, 0
	fl.onDone, fl.released = onDone, false
	fl.seq = fb.flowSeq
	fb.flowSeq++
	fb.stats.flowsStarted++
	fb.starting.push(fl)
	fb.joinBatch(now)
	return fl
}

// takeFlow pops a released flow off the free list, or makes a new one.
// A released flow is done, so it has already left every engine index;
// its other engine fields are rewritten before they are next read.
func (fb *Fabric) takeFlow() *Flow {
	if n := len(fb.free); n > 0 {
		fl := fb.free[n-1]
		fb.free[n-1] = nil
		fb.free = fb.free[:n-1]
		return fl
	}
	return &Flow{fabric: fb, outIdx: -1, inIdx: -1, activeIdx: -1, heapIdx: -1}
}

// flowBatch is the run of starting flows one engine event turns active.
type flowBatch struct {
	n   int              // flows, taken from the head of Fabric.starting
	ev  simclock.EventID // the batch's α-window event
	at  simclock.Time    // the instant its flows started
	seq uint64           // the engine's NextSeq just after ev was armed
}

// joinBatch adds the flow StartFlow just queued to the newest pending
// batch, or arms a new batch for it. Per-flow α-window events would all
// share time, priority 0 and consecutive sequence numbers as long as the
// flows start at one instant and the engine sequences nothing between
// them, so one event firing the whole batch keeps the engine's order.
// Any other event sequenced in between might fire between two per-flow
// events, so it closes the batch.
func (fb *Fabric) joinBatch(now simclock.Time) {
	if b := fb.batches.last(); b != nil && b.at == now && b.seq == fb.engine.NextSeq() {
		b.n++
		return
	}
	at := now.Add(fb.cfg.Alpha)
	var ev simclock.EventID
	if n := len(fb.batchEvs); n > 0 {
		ev = fb.batchEvs[n-1]
		fb.batchEvs = fb.batchEvs[:n-1]
		fb.engine.Rearm(ev, at)
	} else {
		ev = fb.engine.At(at, fb.batchFn)
	}
	fb.batches.push(flowBatch{n: 1, ev: ev, at: now, seq: fb.engine.NextSeq()})
}

// startBatch ends the α window of the oldest pending batch: its flows
// join the rate engine in start order. α is fixed and time never runs
// backwards, so batch events fire in the order they were armed.
func (fb *Fabric) startBatch() {
	b := fb.batches.pop()
	now := fb.engine.Now()
	for range b.n {
		fl := fb.starting.pop()
		fl.state = FlowActive
		fl.lastUpdate = now
		fb.attachFlow(fl)
	}
	fb.batchEvs = append(fb.batchEvs, b.ev)
	fb.armRecompute()
}

func (fb *Fabric) checkNode(i int) {
	if i < 0 || i >= len(fb.nodes) {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", i, len(fb.nodes)))
	}
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
// exact. A flow gets its first rate in the instant it turns active, so a
// flow at rate zero is always settled to now already.
func (fb *Fabric) settleFlow(fl *Flow, now simclock.Time) {
	if fl.lastUpdate == now {
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

// finishFlow completes an active flow: it leaves the rate engine, is
// traced, and its callback runs.
func (fb *Fabric) finishFlow(fl *Flow) {
	fb.detachFlow(fl)
	fl.state = FlowDone
	fl.rate = 0
	fl.finished = fb.engine.Now()
	fb.stats.flowsFinished++
	if fb.nicTracks != nil {
		// The traced path may allocate (appends), but never formats.
		fb.nicTracks[fl.Src].Span(trace.CatNetsim, fl.Label, fl.started, fl.finished)
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
			// may start flows, so collect again afterwards. No callback can
			// end another flow, so every drained flow is still active.
			slices.SortFunc(fb.drained, flowETACmp)
			for _, fl := range fb.drained {
				fb.finishFlow(fl)
			}
			continue
		}
		fb.waterfill()
		fb.updateETAs(now)
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
	// Each NIC sends and receives at its egress speed.
	nic := fb.cfg.EgressBytesPerSec
	for _, ni := range fb.compNodes {
		n := &fb.nodes[ni]
		n.egRem, n.inRem = nic, nic
		n.egN = int32(len(n.out))
		n.inN = int32(len(n.in))
	}
	unfrozen := len(flows)
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
		// remaining/unfrozen. Every unfrozen flow counts at both of its
		// endpoints, and a node with unfrozen flows has capacity left
		// (its configured capacity in the first round, more than eps
		// after), so limit is finite and positive.
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
		// Raise every unfrozen flow by limit, then freeze flows on any
		// capacity that is now exhausted.
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
		if !froze {
			break
		}
	}
}

// updateETAs refreshes the completion heap for the component's flows,
// which the waterfill just gave positive rates. A flow whose residual
// transfer time is below the clock's resolution at this timestamp
// finishes immediately — exactly one per pass, lowest (ETA, sequence)
// first, so callbacks stay deterministic. Finishing it dirties its
// endpoints, so the recompute loop runs again.
func (fb *Fabric) updateETAs(now simclock.Time) {
	var forced *Flow
	for _, fl := range fb.compFlows {
		fl.eta = now.Add(simclock.Duration(fl.remaining / fl.rate))
		fb.heapFix(fl)
		if fl.eta <= now && (forced == nil || flowETACmp(fl, forced) < 0) {
			forced = fl
		}
	}
	if forced != nil {
		forced.remaining = 0
		fb.finishFlow(forced)
	}
}

// armCompletion re-aims the persistent completion event at the heap's
// earliest ETA, or cancels it when no flow is active.
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
		fb.finishFlow(fl)
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

// fifo is a first-in, first-out queue that keeps its backing array: it
// rewinds when it drains, and a push into a full array first slides the
// live items to the front, so it grows only past its deepest backlog.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest item; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// last returns the newest item, or nil when the queue is empty.
func (q *fifo[T]) last() *T {
	if q.head == len(q.items) {
		return nil
	}
	return &q.items[len(q.items)-1]
}

// TransferTime is the α + s/B point-to-point time for a transfer of size
// bytes on an otherwise idle network — the f(s) of Algorithm 2.
func TransferTime(bytes, bandwidthBytesPerSec float64, alpha simclock.Duration) simclock.Duration {
	return alpha + simclock.Duration(bytes/bandwidthBytesPerSec)
}
