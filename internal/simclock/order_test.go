package simclock

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refEvent is the reference model's view of one scheduled event.
type refEvent struct {
	at       Time
	priority int
	seq      uint64
	canceled bool
	queued   bool // in the queue, canceled or not, until discarded or fired
	fires    int
}

// refEngine models the engine's documented semantics with a linear scan
// for the (at, priority, seq) minimum instead of a heap.
type refEngine struct {
	now    Time
	seq    uint64
	events []*refEvent
	fired  []string
	// onFire runs after an event fires, as its callback would.
	onFire func(i int)
}

func (r *refEngine) schedule(at Time, priority int) int {
	r.events = append(r.events, &refEvent{at: at, priority: priority, seq: r.seq, queued: true})
	r.seq++
	return len(r.events) - 1
}

func (r *refEngine) rearm(i int, at Time) {
	ev := r.events[i]
	ev.at, ev.canceled, ev.queued, ev.seq = at, false, true, r.seq
	r.seq++
}

func (r *refEngine) min() int {
	best := -1
	for i, ev := range r.events {
		if !ev.queued {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := r.events[best]
		if ev.at < b.at || ev.at == b.at && (ev.priority < b.priority || ev.priority == b.priority && ev.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (r *refEngine) fire(i int) {
	ev := r.events[i]
	ev.queued = false
	r.now = ev.at
	ev.fires++
	r.fired = append(r.fired, fmt.Sprintf("%d@%v", i, ev.at))
	r.onFire(i)
}

func (r *refEngine) run(until Time) int {
	n := 0
	for i := r.min(); i >= 0; i = r.min() {
		ev := r.events[i]
		if ev.canceled {
			ev.queued = false
			continue
		}
		if ev.at > until {
			break
		}
		r.fire(i)
		n++
	}
	if r.now < until && until != Forever {
		r.now = until
	}
	return n
}

func (r *refEngine) step() bool {
	for i := r.min(); i >= 0; i = r.min() {
		r.events[i].queued = false
		if !r.events[i].canceled {
			r.fire(i)
			return true
		}
	}
	return false
}

func (r *refEngine) peekTime() Time {
	for i := r.min(); i >= 0; i = r.min() {
		if !r.events[i].canceled {
			return r.events[i].at
		}
		r.events[i].queued = false
	}
	return Forever
}

func (r *refEngine) length() int {
	n := 0
	for _, ev := range r.events {
		if ev.queued {
			n++
		}
	}
	return n
}

// TestEngineMatchesSortedReference drives the engine and the reference
// through seeded interleavings of At, AtPriority, After, Cancel, Rearm
// (of pending, canceled and fired events), Step, Run(until) and
// PeekTime. Offsets and priorities come from small sets, so most events
// tie on time and the priority and sequence tie-breaks decide. Some
// callbacks rearm their own event, as a ticker does. After every
// operation the firing log, Now, Len and every event's Pending must
// agree.
func TestEngineMatchesSortedReference(t *testing.T) {
	offsets := []Duration{0, 0, 0.5, 1, 2, 3}
	priorities := []int{-1, 0, 0, 1, 5}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []string
		var ids []EventID
		// Every third event rearms itself one to three seconds on, twice.
		periodic := func(i int) bool { return i%3 == 0 }
		period := func(i int) Duration { return Duration(1 + i%3) }
		ref := &refEngine{}
		ref.onFire = func(i int) {
			if periodic(i) && ref.events[i].fires <= 2 {
				ref.rearm(i, ref.now.Add(period(i)))
			}
		}
		fires := map[int]int{}
		add := func(schedule func(fn func()) EventID) {
			i := len(ids)
			ids = append(ids, schedule(func() {
				fires[i]++
				fired = append(fired, fmt.Sprintf("%d@%v", i, e.Now()))
				if periodic(i) && fires[i] <= 2 {
					e.Rearm(ids[i], e.Now().Add(period(i)))
				}
			}))
		}
		for step := 0; step < 300; step++ {
			var op string
			d := offsets[rng.Intn(len(offsets))]
			switch k := rng.Intn(9); {
			case k == 0:
				op = fmt.Sprintf("At(+%v)", d)
				add(func(fn func()) EventID { return e.At(e.Now().Add(d), fn) })
				ref.schedule(ref.now.Add(d), 0)
			case k == 1:
				p := priorities[rng.Intn(len(priorities))]
				op = fmt.Sprintf("AtPriority(+%v, %d)", d, p)
				add(func(fn func()) EventID { return e.AtPriority(e.Now().Add(d), p, fn) })
				ref.schedule(ref.now.Add(d), p)
			case k == 2:
				op = fmt.Sprintf("After(%v)", d)
				add(func(fn func()) EventID { return e.After(d, fn) })
				ref.schedule(ref.now.Add(d), 0)
			case k == 3 && len(ids) > 0:
				i := rng.Intn(len(ids))
				op = fmt.Sprintf("Cancel(%d)", i)
				ev := ref.events[i]
				want := ev.queued && !ev.canceled
				if ev.queued {
					ev.canceled = true
				}
				if got := ids[i].Cancel(); got != want {
					t.Fatalf("seed %d step %d %s = %v, want %v", seed, step, op, got, want)
				}
			case k == 4 && len(ids) > 0:
				i := rng.Intn(len(ids))
				op = fmt.Sprintf("Rearm(%d, +%v)", i, d)
				e.Rearm(ids[i], e.Now().Add(d))
				ref.rearm(i, ref.now.Add(d))
			case k == 5:
				op = "Step"
				if got, want := e.Step(), ref.step(); got != want {
					t.Fatalf("seed %d step %d %s = %v, want %v", seed, step, op, got, want)
				}
			case k == 6 || k == 7:
				until := e.Now().Add(d)
				if rng.Intn(10) == 0 {
					until = Forever
				}
				op = fmt.Sprintf("Run(%v)", until)
				if got, want := e.Run(until), ref.run(until); got != want {
					t.Fatalf("seed %d step %d %s fired %d, want %d", seed, step, op, got, want)
				}
			default:
				op = "PeekTime"
				if got, want := e.PeekTime(), ref.peekTime(); got != want {
					t.Fatalf("seed %d step %d %s = %v, want %v", seed, step, op, got, want)
				}
			}
			if !reflect.DeepEqual(fired, ref.fired) {
				t.Fatalf("seed %d step %d after %s: fired\n%v\nwant\n%v", seed, step, op, fired, ref.fired)
			}
			if e.Now() != ref.now || e.Len() != ref.length() {
				t.Fatalf("seed %d step %d after %s: now %v len %d, want %v and %d",
					seed, step, op, e.Now(), e.Len(), ref.now, ref.length())
			}
			for i, id := range ids {
				ev := ref.events[i]
				if id.Pending() != (ev.queued && !ev.canceled) {
					t.Fatalf("seed %d step %d after %s: event %d Pending %v, model queued=%v canceled=%v",
						seed, step, op, i, id.Pending(), ev.queued, ev.canceled)
				}
			}
		}
	}
}

// TestTickersMatchRearmedEvents: a ticker's ticks, silent or not, take
// the place in the order that an event rearmed after each firing takes.
// Seeded runs mix tickers on shared and offset grids with events at
// their instants, at priorities on both sides of 0, some scheduled from
// inside ticks; the reference engine runs the same program with each
// ticker as a rearmed event. The firing logs must be equal, and Run
// must count exactly the silent ticks fewer than the reference.
func TestTickersMatchRearmedEvents(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		var logs [2][]string
		var fired [2]int
		silentTicks := 0
		for side := 0; side < 2; side++ {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			log := func(s string) { logs[side] = append(logs[side], fmt.Sprintf("%s@%v", s, e.Now())) }
			// A tick is silent on every third count; a loud one may
			// schedule an event at the next tick's instant.
			tick := func(name string, period Duration, count *int) bool {
				*count++
				if *count%3 == 0 {
					return false
				}
				log(name)
				if *count%2 == 0 {
					e.After(period, func() { log(name + "-echo") })
				}
				return true
			}
			for k := 0; k < 4; k++ {
				name := fmt.Sprintf("t%d", k)
				start := Time(rng.Intn(3))
				period := Duration(1 + rng.Intn(3))
				count := new(int)
				e.At(start, func() {
					if side == 0 {
						tk := NewTicker(e, period, func(Time) { tick(name, period, count) })
						tk.SetSilent(func(Time) bool {
							if (*count+1)%3 == 0 {
								*count++
								silentTicks++
								return true
							}
							return false
						})
						return
					}
					var id EventID
					id = e.After(period, func() {
						tick(name, period, count)
						e.Rearm(id, e.Now().Add(period))
					})
				})
			}
			for k := 0; k < 30; k++ {
				name := fmt.Sprintf("e%d", k)
				at := Time(rng.Intn(20))
				p := []int{-1, 0, 0, 0, 5}[rng.Intn(5)]
				e.AtPriority(at, p, func() { log(name) })
			}
			fired[side] = e.Run(24)
		}
		if !reflect.DeepEqual(logs[0], logs[1]) {
			t.Fatalf("seed %d: tickers fired\n%v\nrearmed events fired\n%v", seed, logs[0], logs[1])
		}
		if fired[1]-fired[0] != silentTicks {
			t.Fatalf("seed %d: %d firings, reference %d, %d silent ticks", seed, fired[0], fired[1], silentTicks)
		}
	}
}
