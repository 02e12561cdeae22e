// Package ckpt is GEMINI's checkpoint engine: it tracks which machine's
// CPU memory holds which checkpoint shards at which training iteration,
// keeps the double buffer of §7.1 (two resident generations per shard,
// so the recoverable version survives while the next one lands), and
// answers the recovery queries — what is the newest globally consistent
// version, and from where should each machine fetch its shard (§3.1's
// hierarchy: local CPU memory, then remote CPU memory, then remote
// persistent storage).
//
// Commits are atomic: Commit, CommitDelta and Refresh each move a slot
// straight from one committed state to the next, so the engine keeps no
// in-progress state. No crash point falls inside a commit in this model:
// the control plane runs on a discrete-event engine and makes every
// commit inside a single event (the one ending an iteration, or a
// recovery step), and a failure is an event of its own, so it lands
// before or after a commit, never within one. The transfer time a real
// in-progress buffer covers is charged by the training executor, not
// here.
package ckpt

import (
	"fmt"
	"math"

	"gemini/internal/placement"
)

// Shard is one generation of an owner's checkpoint shard in a slot: the
// iteration it captures, its size and its checksum.
type Shard struct {
	Iteration int64 // training iteration the shard captures
	Bytes     float64
	// Fingerprint is the content checksum (tensor.State.Fingerprint) when
	// payloads are simulated with real bytes; zero in pure-timing runs.
	Fingerprint uint32
}

// slot is the double buffer holding one owner's shards on one machine:
// gens[0] is the newest committed generation and gens[1] the previous
// one, and the first n are resident. After the commit of v+1, both v and
// v+1 are resident until the commit of v+2 reclaims v's buffer — that
// overlap is what guarantees a globally consistent version always exists
// while machines commit at slightly different instants within an
// iteration.
type slot struct {
	gens [2]Shard
	n    int
}

// newest returns the slot's newest committed generation.
func (sl *slot) newest() (Shard, bool) { return sl.gens[0], sl.n > 0 }

// has reports whether a resident generation captures iteration v.
func (sl *slot) has(v int64) bool {
	for _, sh := range sl.gens[:sl.n] {
		if sh.Iteration == v {
			return true
		}
	}
	return false
}

// push commits sh as the newest generation; the old newest becomes the
// previous one.
func (sl *slot) push(sh Shard) {
	sl.gens[1] = sl.gens[0]
	sl.gens[0] = sh
	sl.n = min(sl.n+1, 2)
}

// Source says where a shard can be retrieved from during recovery.
type Source int

const (
	// SourceLocal means the machine's own CPU memory has the shard
	// (software failures recover this way, Fig. 6b).
	SourceLocal Source = iota
	// SourceRemoteCPU means a peer machine's CPU memory has the shard
	// (hardware failure case 1, Fig. 6c).
	SourceRemoteCPU
	// SourcePersistent means only the remote persistent store can supply
	// the shard (hardware failure case 2, Fig. 6a).
	SourcePersistent
)

func (s Source) String() string {
	switch s {
	case SourceLocal:
		return "local-cpu"
	case SourceRemoteCPU:
		return "remote-cpu"
	case SourcePersistent:
		return "persistent"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Retrieval is one machine's recovery instruction.
type Retrieval struct {
	Rank   int
	Source Source
	// Peer is the machine to fetch from when Source == SourceRemoteCPU.
	Peer int
	// Bytes to move (zero when the shard is already local).
	Bytes float64
}

// Engine tracks checkpoint shard placement and versions for a cluster.
//
// Every (owner, holder) pair the placement allows has one slot, in one
// flat table laid out like the placement's replica sets: slots[owner*m+j]
// is the double buffer of owner's shard on Replicas(owner)[j]. The table
// is allocated once, so a commit indexes it without hashing or
// allocating, and the recovery queries read resident generations in
// place.
type Engine struct {
	n, m      int
	placement *placement.Placement
	slots     []slot
	shardSize float64
	traffic   float64 // cumulative bytes committed
}

// NewEngine creates an engine for the given placement; shardBytes is the
// per-machine checkpoint shard size.
func NewEngine(p *placement.Placement, shardBytes float64) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(shardBytes >= 0 && shardBytes <= math.MaxFloat64) {
		return nil, fmt.Errorf("ckpt: shard size %v must be finite and non-negative", shardBytes)
	}
	return &Engine{n: p.N, m: p.M, placement: p, slots: make([]slot, p.N*p.M), shardSize: shardBytes}, nil
}

// MustNewEngine is NewEngine for known-good arguments.
func MustNewEngine(p *placement.Placement, shardBytes float64) *Engine {
	e, err := NewEngine(p, shardBytes)
	if err != nil {
		panic(err)
	}
	return e
}

// Placement returns the placement the engine operates under.
func (e *Engine) Placement() *placement.Placement { return e.placement }

// ShardBytes returns the per-machine shard size.
func (e *Engine) ShardBytes() float64 { return e.shardSize }

func (e *Engine) checkRank(rank int) {
	if rank < 0 || rank >= e.n {
		panic(fmt.Sprintf("ckpt: rank %d out of range [0,%d)", rank, e.n))
	}
}

// owned returns owner's slots, one per member of its replica set.
func (e *Engine) owned(owner int) []slot { return e.slots[owner*e.m : (owner+1)*e.m] }

// find returns holder's slot for owner's shard, or nil when holder is
// not in owner's replica set or owner is out of range.
func (e *Engine) find(holder, owner int) *slot {
	e.checkRank(holder)
	if owner < 0 || owner >= e.n {
		return nil
	}
	for j, r := range e.placement.Replicas(owner) {
		if r == holder {
			return &e.slots[owner*e.m+j]
		}
	}
	return nil
}

// slotFor returns holder's slot for owner's shard. It panics unless
// holder is in owner's replica set — misrouted shards indicate an agent
// bug, not a runtime condition.
func (e *Engine) slotFor(holder, owner int) *slot {
	if sl := e.find(holder, owner); sl != nil {
		return sl
	}
	e.placement.Replicas(owner) // an out-of-range owner panics here
	panic(fmt.Sprintf("ckpt: machine %d is not a replica holder for rank %d", holder, owner))
}

// Commit lands owner's full shard at iteration on holder in one step:
// the whole shard's bytes count as received, the shard becomes the
// newest committed generation, the old newest stays resident as the
// previous one, and the generation before that is reclaimed.
// Iterations must increase per slot. fingerprint may be zero in
// timing-only simulations.
func (e *Engine) Commit(holder, owner int, iteration int64, fingerprint uint32) {
	sl := e.slotFor(holder, owner)
	if sh, ok := sl.newest(); ok && iteration <= sh.Iteration {
		panic(fmt.Sprintf("ckpt: machine %d committing iteration %d but already completed %d for rank %d",
			holder, iteration, sh.Iteration, owner))
	}
	e.traffic += e.shardSize
	sl.push(Shard{Iteration: iteration, Bytes: e.shardSize, Fingerprint: fingerprint})
}

// CommitDelta is Commit for a delta: only deltaBytes arrive, applied on
// top of the holder's newest committed copy of the immediately previous
// iteration, and the result is a full logical shard at the new
// iteration. The base requirement is what makes delta chains
// recoverable — a delta on a stale base would commit a shard that never
// existed.
func (e *Engine) CommitDelta(holder, owner int, iteration int64, deltaBytes float64) {
	sl := e.slotFor(holder, owner)
	if sh, ok := sl.newest(); !ok || sh.Iteration != iteration-1 {
		base := int64(-1)
		if ok {
			base = sh.Iteration
		}
		panic(fmt.Sprintf("ckpt: machine %d delta to iteration %d for rank %d needs base %d, has %d",
			holder, iteration, owner, iteration-1, base))
	}
	if !(deltaBytes >= 0 && deltaBytes <= e.shardSize*(1+1e-9)) {
		panic(fmt.Sprintf("ckpt: delta size %v outside [0, shard %v]", deltaBytes, e.shardSize))
	}
	e.traffic += deltaBytes
	sl.push(Shard{Iteration: iteration, Bytes: e.shardSize})
}

// Refresh re-stamps the holder's newest committed copy at a new, later
// iteration without moving any bytes — the shard did not change, so the
// resident buffer IS the new version. The old stamp survives in the
// previous-generation role, preserving the double-buffer overlap.
func (e *Engine) Refresh(holder, owner int, iteration int64) {
	sl := e.slotFor(holder, owner)
	sh, ok := sl.newest()
	if !ok {
		panic(fmt.Sprintf("ckpt: machine %d refreshing rank %d with no committed shard", holder, owner))
	}
	if iteration <= sh.Iteration {
		panic(fmt.Sprintf("ckpt: machine %d refreshing rank %d to iteration %d but already at %d",
			holder, owner, iteration, sh.Iteration))
	}
	sh.Iteration = iteration
	sl.push(sh)
}

// BytesReceived returns the cumulative replication traffic of every
// Commit and CommitDelta — the bytes-moved side of a strategy's cost,
// read by the experiments harness.
func (e *Engine) BytesReceived() float64 { return e.traffic }

// Completed returns the newest committed shard of owner held by holder.
func (e *Engine) Completed(holder, owner int) (Shard, bool) {
	if sl := e.find(holder, owner); sl != nil {
		return sl.newest()
	}
	return Shard{}, false
}

// CompletedVersions returns a copy of every committed generation of
// owner's shard resident on holder (at most two: newest and previous),
// newest first, or nil when there is none.
func (e *Engine) CompletedVersions(holder, owner int) []Shard {
	sl := e.find(holder, owner)
	if sl == nil || sl.n == 0 {
		return nil
	}
	return append([]Shard(nil), sl.gens[:sl.n]...)
}

// RollbackTo drops every shard generation newer than the given iteration
// on all machines. Recovery calls this after choosing the rollback
// version so the whole cluster's checkpoint state is consistent with the
// resumed training position.
func (e *Engine) RollbackTo(iteration int64) {
	for i := range e.slots {
		sl := &e.slots[i]
		kept := 0
		for _, sh := range sl.gens[:sl.n] {
			if sh.Iteration <= iteration {
				sl.gens[kept] = sh
				kept++
			}
		}
		sl.n = kept
	}
}

// Wipe erases everything a machine held — both buffers of every slot.
// Called when the machine hardware-fails or is replaced.
func (e *Engine) Wipe(rank int) {
	e.checkRank(rank)
	for owner := 0; owner < e.n; owner++ {
		for j, holder := range e.placement.Replicas(owner) {
			if holder == rank {
				e.slots[owner*e.m+j] = slot{}
			}
		}
	}
}

// reachable reports whether owner's shard at exactly iteration v is
// resident on an alive holder.
func (e *Engine) reachable(owner int, v int64, alive func(int) bool) bool {
	slots := e.owned(owner)
	for j, holder := range e.placement.Replicas(owner) {
		if (alive == nil || alive(holder)) && slots[j].has(v) {
			return true
		}
	}
	return false
}

// ConsistentVersion returns the newest iteration v such that every rank's
// shard at exactly v is committed on at least one alive machine. ok is
// false when no common version exists — recovery must fall back to the
// remote persistent store (§6.2 case 2: partial survivors at mixed
// iterations are useless because all ranks must roll back together).
//
// A consistent version is in particular one of rank 0's reachable
// generations, and rank 0 has at most two resident per holder, so there
// are at most 2m candidates. They are tried newest first, each against
// every other rank, and the first that every rank reaches is the
// answer.
func (e *Engine) ConsistentVersion(alive func(int) bool) (int64, bool) {
	var below int64 // candidates tried so far are all ≥ below
	for tried := false; ; tried = true {
		// The newest of rank 0's reachable generations not yet tried.
		v, found := int64(0), false
		slots := e.owned(0)
		for j, holder := range e.placement.Replicas(0) {
			if alive != nil && !alive(holder) {
				continue
			}
			for _, sh := range slots[j].gens[:slots[j].n] {
				if (!tried || sh.Iteration < below) && (!found || sh.Iteration > v) {
					v, found = sh.Iteration, true
				}
			}
		}
		if !found {
			return -1, false
		}
		consistent := true
		for owner := 1; owner < e.n && consistent; owner++ {
			consistent = e.reachable(owner, v, alive)
		}
		if consistent {
			return v, true
		}
		below = v
	}
}

// NewestCommitted returns the newest committed generation of owner's
// shard resident on any alive holder — the basis of the health monitor's
// per-machine staleness gauge. ok is false when no alive holder has any
// committed generation (the shard is only recoverable from the remote
// persistent tier).
func (e *Engine) NewestCommitted(owner int, alive func(int) bool) (int64, bool) {
	best := int64(0)
	found := false
	slots := e.owned(owner)
	for j, holder := range e.placement.Replicas(owner) {
		if alive != nil && !alive(holder) {
			continue
		}
		if sh, ok := slots[j].newest(); ok && (!found || sh.Iteration > best) {
			best, found = sh.Iteration, true
		}
	}
	return best, found
}

// Coverage summarizes in-memory replica survival for the health monitor
// (the quantity Theorem 1 reasons about): covered counts owners with at
// least one committed shard generation on an alive holder, and
// minReplicas is the smallest number of alive holders any single owner
// has left — the cluster's distance from losing a shard entirely.
// Before any checkpoint commits, covered is 0 and minReplicas counts
// alive holders regardless (placement survival, not data survival, is
// what degrades first).
func (e *Engine) Coverage(alive func(int) bool) (covered, minReplicas int) {
	minReplicas = -1
	for owner := 0; owner < e.n; owner++ {
		holders := 0
		hasData := false
		slots := e.owned(owner)
		for j, holder := range e.placement.Replicas(owner) {
			if alive != nil && !alive(holder) {
				continue
			}
			holders++
			hasData = hasData || slots[j].n > 0
		}
		if hasData {
			covered++
		}
		if minReplicas < 0 || holders < minReplicas {
			minReplicas = holders
		}
	}
	if minReplicas < 0 {
		minReplicas = 0
	}
	return covered, minReplicas
}

// PlanRecovery produces each rank's retrieval instruction for recovering
// at version v (as returned by ConsistentVersion), in rank order.
// Machines whose local slot has the shard read locally; others fetch
// from the lowest-ranked alive peer holding it. An error means v is not
// actually consistent: it names the lowest rank with no alive holder.
func (e *Engine) PlanRecovery(v int64, alive func(int) bool) ([]Retrieval, error) {
	plan := make([]Retrieval, e.n)
	for rank := range plan {
		r, err := e.planRank(rank, v, alive)
		if err != nil {
			return nil, err
		}
		plan[rank] = r
	}
	return plan, nil
}

// planRank resolves one rank's retrieval source for version v.
func (e *Engine) planRank(rank int, v int64, alive func(int) bool) (Retrieval, error) {
	if (alive == nil || alive(rank)) && e.slotFor(rank, rank).has(v) {
		return Retrieval{Rank: rank, Source: SourceLocal}, nil
	}
	slots := e.owned(rank)
	for j, holder := range e.placement.Replicas(rank) {
		if holder == rank || (alive != nil && !alive(holder)) {
			continue
		}
		if slots[j].has(v) {
			return Retrieval{Rank: rank, Source: SourceRemoteCPU, Peer: holder, Bytes: e.shardSize}, nil
		}
	}
	return Retrieval{}, fmt.Errorf("ckpt: version %d not consistent: rank %d has no alive holder", v, rank)
}

// PersistentPlan returns the all-from-persistent-storage recovery plan
// (what existing solutions always do, Fig. 6a).
func (e *Engine) PersistentPlan() []Retrieval {
	plan := make([]Retrieval, 0, e.n)
	for rank := 0; rank < e.n; rank++ {
		plan = append(plan, Retrieval{Rank: rank, Source: SourcePersistent, Bytes: e.shardSize})
	}
	return plan
}
