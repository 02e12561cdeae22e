package ckpt

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gemini/internal/placement"
)

// refEngine is the engine as it was before the flat slot table: one
// owner-keyed map of slots per machine, a slot created on first commit,
// and recovery queries that copy, sort and hash every resident
// generation. It is the reference the differential test compares
// Engine against.
type refEngine struct {
	n         int
	placement *placement.Placement
	machines  []map[int]*slot
	shardSize float64
	traffic   float64
}

func newRefEngine(p *placement.Placement, shardBytes float64) *refEngine {
	e := &refEngine{n: p.N, placement: p, machines: make([]map[int]*slot, p.N), shardSize: shardBytes}
	for i := range e.machines {
		e.machines[i] = make(map[int]*slot)
	}
	return e
}

func (e *refEngine) store(rank int) map[int]*slot {
	if rank < 0 || rank >= e.n {
		panic(fmt.Sprintf("ckpt: rank %d out of range [0,%d)", rank, e.n))
	}
	return e.machines[rank]
}

func (e *refEngine) slotFor(holder, owner int) *slot {
	ms := e.store(holder)
	if sl := ms[owner]; sl != nil {
		return sl
	}
	for _, r := range e.placement.Replicas(owner) {
		if r == holder {
			sl := &slot{}
			ms[owner] = sl
			return sl
		}
	}
	panic(fmt.Sprintf("ckpt: machine %d is not a replica holder for rank %d", holder, owner))
}

func (e *refEngine) Commit(holder, owner int, iteration int64, fingerprint uint32) {
	sl := e.slotFor(holder, owner)
	if sh, ok := sl.newest(); ok && iteration <= sh.Iteration {
		panic(fmt.Sprintf("ckpt: machine %d committing iteration %d but already completed %d for rank %d",
			holder, iteration, sh.Iteration, owner))
	}
	e.traffic += e.shardSize
	sl.push(Shard{Iteration: iteration, Bytes: e.shardSize, Fingerprint: fingerprint})
}

func (e *refEngine) CommitDelta(holder, owner int, iteration int64, deltaBytes float64) {
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

func (e *refEngine) Refresh(holder, owner int, iteration int64) {
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

func (e *refEngine) Completed(holder, owner int) (Shard, bool) {
	if sl := e.store(holder)[owner]; sl != nil {
		return sl.newest()
	}
	return Shard{}, false
}

func (e *refEngine) CompletedVersions(holder, owner int) []Shard {
	sl := e.store(holder)[owner]
	if sl == nil {
		return nil
	}
	return append([]Shard(nil), sl.gens[:sl.n]...)
}

func (e *refEngine) hasVersion(holder, owner int, v int64) bool {
	for _, sh := range e.CompletedVersions(holder, owner) {
		if sh.Iteration == v {
			return true
		}
	}
	return false
}

func (e *refEngine) RollbackTo(iteration int64) {
	for _, ms := range e.machines {
		for _, sl := range ms {
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
}

func (e *refEngine) Wipe(rank int) {
	e.store(rank)
	e.machines[rank] = make(map[int]*slot)
}

func (e *refEngine) holderIterations(owner int, alive func(int) bool) []Shard {
	var out []Shard
	for _, holder := range e.placement.Replicas(owner) {
		if alive != nil && !alive(holder) {
			continue
		}
		out = append(out, e.CompletedVersions(holder, owner)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iteration > out[j].Iteration })
	return out
}

func (e *refEngine) ConsistentVersion(alive func(int) bool) (int64, bool) {
	versions := make(map[int64]int) // iteration → ranks covered
	for owner := 0; owner < e.n; owner++ {
		seen := make(map[int64]bool)
		for _, sh := range e.holderIterations(owner, alive) {
			if !seen[sh.Iteration] {
				seen[sh.Iteration] = true
				versions[sh.Iteration]++
			}
		}
	}
	best := int64(-1)
	found := false
	for v, covered := range versions {
		if covered == e.n && (!found || v > best) {
			best, found = v, true
		}
	}
	return best, found
}

func (e *refEngine) NewestCommitted(owner int, alive func(int) bool) (int64, bool) {
	best := int64(0)
	found := false
	for _, holder := range e.placement.Replicas(owner) {
		if alive != nil && !alive(holder) {
			continue
		}
		for _, sh := range e.CompletedVersions(holder, owner) {
			if !found || sh.Iteration > best {
				best, found = sh.Iteration, true
			}
		}
	}
	return best, found
}

func (e *refEngine) Coverage(alive func(int) bool) (covered, minReplicas int) {
	minReplicas = -1
	for owner := 0; owner < e.n; owner++ {
		holders := 0
		hasData := false
		for _, holder := range e.placement.Replicas(owner) {
			if alive != nil && !alive(holder) {
				continue
			}
			holders++
			if !hasData {
				sl := e.store(holder)[owner]
				hasData = sl != nil && sl.n > 0
			}
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

func (e *refEngine) PlanRecovery(v int64, alive func(int) bool) ([]Retrieval, error) {
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

func (e *refEngine) planRank(rank int, v int64, alive func(int) bool) (Retrieval, error) {
	if (alive == nil || alive(rank)) && e.hasVersion(rank, rank, v) {
		return Retrieval{Rank: rank, Source: SourceLocal}, nil
	}
	for _, holder := range e.placement.Replicas(rank) {
		if holder == rank || (alive != nil && !alive(holder)) {
			continue
		}
		if e.hasVersion(holder, rank, v) {
			return Retrieval{Rank: rank, Source: SourceRemoteCPU, Peer: holder, Bytes: e.shardSize}, nil
		}
	}
	return Retrieval{}, fmt.Errorf("ckpt: version %d not consistent: rank %d has no alive holder", v, rank)
}

// panicText runs fn and returns what it panicked with, or "" if it
// returned.
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// diffRun drives one engine and its reference through the same seeded
// sequence of commits, deltas, refreshes, wipes and rollbacks, some of
// them invalid, and compares every query after every step.
type diffRun struct {
	t    *testing.T
	name string
	rng  *rand.Rand
	p    *placement.Placement
	e    *Engine
	ref  *refEngine
	iter int64 // the newest iteration any step has used
}

// apply runs op on both engines and requires the same panic, or none.
func (d *diffRun) apply(step int, what string, op func(ckptOps)) {
	got := panicText(func() { op(d.e) })
	want := panicText(func() { op(d.ref) })
	if got != want {
		d.t.Fatalf("%s step %d %s: panic %q, reference %q", d.name, step, what, got, want)
	}
}

// ckptOps is the mutating surface Engine and refEngine share.
type ckptOps interface {
	Commit(holder, owner int, iteration int64, fingerprint uint32)
	CommitDelta(holder, owner int, iteration int64, deltaBytes float64)
	Refresh(holder, owner int, iteration int64)
	RollbackTo(iteration int64)
	Wipe(rank int)
}

// target draws a (holder, owner) pair: almost always a real replica
// holder, sometimes any rank, which misroutes, and rarely an owner out
// of range.
func (d *diffRun) target() (holder, owner int) {
	owner = d.rng.Intn(d.p.N)
	switch d.rng.Intn(40) {
	case 0, 1:
		return d.rng.Intn(d.p.N), owner
	case 2:
		return d.rng.Intn(d.p.N), d.p.N
	}
	set := d.p.Replicas(owner)
	return set[d.rng.Intn(len(set))], owner
}

// nextIter draws an iteration for a commit on (holder, owner): usually
// just past its newest generation, sometimes at or below it.
func (d *diffRun) nextIter(holder, owner int) int64 {
	base := int64(0)
	if sh, ok := d.ref.Completed(holder, owner); ok {
		base = sh.Iteration
	}
	if d.rng.Intn(10) == 0 {
		return base - int64(d.rng.Intn(2))
	}
	return base + 1 + int64(d.rng.Intn(2))
}

// step applies one random operation.
func (d *diffRun) step(i int) {
	switch k := d.rng.Intn(100); {
	case k < 30: // a checkpoint round over most slots at a new iteration
		d.iter++
		it := d.iter
		kind := d.rng.Intn(3)
		d.apply(i, "round", func(e ckptOps) {
			for owner := 0; owner < d.p.N; owner++ {
				for _, holder := range d.p.Replicas(owner) {
					if d.skip(owner, holder) {
						continue
					}
					d.roundCommit(e, kind, holder, owner, it)
				}
			}
		})
	case k < 55:
		holder, owner := d.target()
		it := d.nextIter(holder, owner)
		d.iter = max(d.iter, it)
		d.apply(i, "Commit", func(e ckptOps) { e.Commit(holder, owner, it, uint32(it)) })
	case k < 70:
		holder, owner := d.target()
		it := d.nextIter(holder, owner)
		delta := shardSize * d.rng.Float64()
		if d.rng.Intn(20) == 0 {
			delta = 2 * shardSize
		}
		d.iter = max(d.iter, it)
		d.apply(i, "CommitDelta", func(e ckptOps) { e.CommitDelta(holder, owner, it, delta) })
	case k < 82:
		holder, owner := d.target()
		it := d.nextIter(holder, owner)
		d.iter = max(d.iter, it)
		d.apply(i, "Refresh", func(e ckptOps) { e.Refresh(holder, owner, it) })
	case k < 92:
		rank := d.rng.Intn(d.p.N)
		d.apply(i, "Wipe", func(e ckptOps) { e.Wipe(rank) })
	default:
		v := d.iter - int64(d.rng.Intn(4))
		d.apply(i, "RollbackTo", func(e ckptOps) { e.RollbackTo(v) })
	}
}

// skip leaves a few slots out of a round, so rounds stagger.
func (d *diffRun) skip(owner, holder int) bool {
	return (owner*31+holder*17+int(d.iter))%11 == 0
}

// roundCommit lands one slot of a round: a full commit, or a delta or
// refresh where the slot's newest generation allows one.
func (d *diffRun) roundCommit(e ckptOps, kind, holder, owner int, it int64) {
	sh, ok := d.ref.Completed(holder, owner)
	switch {
	case ok && sh.Iteration >= it:
	case kind == 1 && ok && sh.Iteration == it-1:
		e.CommitDelta(holder, owner, it, shardSize/4)
	case kind == 2 && ok:
		e.Refresh(holder, owner, it)
	default:
		e.Commit(holder, owner, it, uint32(it))
	}
}

// predicate draws an alive predicate: nil, everyone, or a random set.
func (d *diffRun) predicate() (string, func(int) bool) {
	switch d.rng.Intn(4) {
	case 0:
		return "nil", nil
	case 1:
		return "all", allAlive
	}
	frac := []float64{0.1, 0.5, 0.9}[d.rng.Intn(3)]
	up := make([]bool, d.p.N)
	for r := range up {
		up[r] = d.rng.Float64() < frac
	}
	return fmt.Sprintf("%.0f%% up", 100*frac), func(r int) bool { return up[r] }
}

// compare checks every query of the engine against the reference.
func (d *diffRun) compare(step int) {
	fail := func(format string, args ...any) {
		d.t.Helper()
		d.t.Fatalf("%s step %d: %s", d.name, step, fmt.Sprintf(format, args...))
	}
	for owner := -1; owner <= d.p.N; owner++ {
		// Every replica holder, and one machine that may not be one.
		holders := []int{d.rng.Intn(d.p.N)}
		if owner >= 0 && owner < d.p.N {
			holders = append(holders, d.p.Replicas(owner)...)
		}
		for _, holder := range holders {
			got, gotOK := d.e.Completed(holder, owner)
			want, wantOK := d.ref.Completed(holder, owner)
			if got != want || gotOK != wantOK {
				fail("Completed(%d, %d) = %+v/%v, reference %+v/%v", holder, owner, got, gotOK, want, wantOK)
			}
			if g, w := d.e.CompletedVersions(holder, owner), d.ref.CompletedVersions(holder, owner); !reflect.DeepEqual(g, w) {
				fail("CompletedVersions(%d, %d) = %+v, reference %+v", holder, owner, g, w)
			}
		}
	}
	if g, w := d.e.BytesReceived(), d.ref.traffic; g != w {
		fail("BytesReceived = %v, reference %v", g, w)
	}
	for range 3 {
		name, alive := d.predicate()
		v, ok := d.e.ConsistentVersion(alive)
		wv, wok := d.ref.ConsistentVersion(alive)
		if v != wv || ok != wok {
			fail("alive %s: ConsistentVersion = %d/%v, reference %d/%v", name, v, ok, wv, wok)
		}
		for owner := 0; owner < d.p.N; owner++ {
			v, ok := d.e.NewestCommitted(owner, alive)
			wv, wok := d.ref.NewestCommitted(owner, alive)
			if v != wv || ok != wok {
				fail("alive %s: NewestCommitted(%d) = %d/%v, reference %d/%v", name, owner, v, ok, wv, wok)
			}
		}
		c, m := d.e.Coverage(alive)
		wc, wm := d.ref.Coverage(alive)
		if c != wc || m != wm {
			fail("alive %s: Coverage = %d/%d, reference %d/%d", name, c, m, wc, wm)
		}
		for _, v := range []int64{wv, d.iter, d.iter - 1, d.iter - int64(1+d.rng.Intn(5))} {
			plan, err := d.e.PlanRecovery(v, alive)
			wplan, werr := d.ref.PlanRecovery(v, alive)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(plan, wplan) {
				fail("alive %s: PlanRecovery(%d) = %+v/%v, reference %+v/%v", name, v, plan, err, wplan, werr)
			}
		}
	}
}

// The engine answers every query exactly as the map-and-sort reference
// does, and panics with the same message on the same invalid steps,
// under seeded random commits, deltas, refreshes, wipes and rollbacks,
// on every placement kind the placement package builds at 16 and 64
// machines.
func TestEngineMatchesReference(t *testing.T) {
	steps := 250
	if testing.Short() {
		steps = 60
	}
	type build struct {
		kind string
		make func(n, m int) (*placement.Placement, error)
	}
	builds := []build{{"mixed", placement.Mixed}, {"ring", placement.Ring}, {"group", placement.Group}}
	for _, n := range []int{16, 64} {
		for _, m := range []int{1, 2, 3, 4} {
			for _, b := range builds {
				p, err := b.make(n, m)
				if err != nil {
					continue // group needs m | N
				}
				name := fmt.Sprintf("%s N=%d m=%d", b.kind, n, m)
				d := &diffRun{
					t: t, name: name, rng: rand.New(rand.NewSource(int64(1000*n + 10*m + len(b.kind)))),
					p: p, e: MustNewEngine(p, shardSize), ref: newRefEngine(p, shardSize),
				}
				d.compare(-1)
				for i := range steps {
					d.step(i)
					d.compare(i)
				}
			}
		}
	}
}
