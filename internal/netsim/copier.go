package netsim

import (
	"fmt"
	"math"

	"gemini/internal/simclock"
	"gemini/internal/trace"
)

// Copier models a machine's GPU→CPU (device-to-host) copy channel. GEMINI's
// pipeline overlaps these copies with inter-machine flows (§5.2, Fig. 5d);
// the copy bandwidth on p4d instances is comparable to the network
// bandwidth (~400 Gbps), which is why unpipelined copies create bubbles
// nearly as long as the transfers themselves.
//
// Copies are served FIFO at the configured bandwidth, one at a time: a
// single DMA engine dedicated to checkpoint movement. Because only one
// copy is ever in flight, the channel keeps a single completion event and
// rearms it for each copy.
type Copier struct {
	engine    *simclock.Engine
	bandwidth float64 // bytes/sec
	queue     []*Copy // pending copies are queue[head:]; backing array reused
	head      int
	cur       *Copy            // the copy in flight; nil when idle
	done      simclock.EventID // cur's completion, rearmed per copy
	free      []*Copy          // released copies, reused by Submit
	busyTotal simclock.Duration
	busySince simclock.Time
	track     *trace.Track // nil = untraced
}

// Copy is one queued or in-flight GPU→CPU copy. Like a Flow, a finished
// copy may be handed back with Release for a later Submit to reuse.
type Copy struct {
	Bytes    float64
	Label    string
	copier   *Copier
	onDone   func(*Copy)
	state    FlowState
	released bool
}

// State returns the copy's lifecycle state (FlowStarting while queued,
// FlowActive while copying, FlowDone when complete).
func (c *Copy) State() FlowState { return c.state }

// Release returns a completed copy to its copier, whose next Submit may
// hand the same *Copy out again; the caller must drop every reference
// first. Releasing a queued or in-flight copy, or releasing it twice,
// panics.
func (c *Copy) Release() {
	if c.released {
		panic(fmt.Sprintf("netsim: copy %q released twice", c.Label))
	}
	if c.state != FlowDone {
		panic(fmt.Sprintf("netsim: release of %v copy %q", c.state, c.Label))
	}
	c.released = true
	c.Label = ""
	c.copier.free = append(c.copier.free, c)
}

// NewCopier creates a copy channel with the given bandwidth in bytes/sec.
func NewCopier(engine *simclock.Engine, bandwidthBytesPerSec float64) (*Copier, error) {
	if !(bandwidthBytesPerSec > 0) { // also rejects NaN
		return nil, fmt.Errorf("netsim: copier bandwidth must be positive, got %v", bandwidthBytesPerSec)
	}
	return &Copier{engine: engine, bandwidth: bandwidthBytesPerSec}, nil
}

// MustNewCopier is NewCopier for statically-known-good bandwidths.
func MustNewCopier(engine *simclock.Engine, bw float64) *Copier {
	c, err := NewCopier(engine, bw)
	if err != nil {
		panic(err)
	}
	return c
}

// Bandwidth returns the channel bandwidth in bytes/sec.
func (c *Copier) Bandwidth() float64 { return c.bandwidth }

// QueueLen returns the number of copies waiting or in flight.
func (c *Copier) QueueLen() int {
	n := len(c.queue) - c.head
	if c.cur != nil {
		n++
	}
	return n
}

// Submit enqueues a copy of size bytes; onDone fires when it completes.
// The returned copy may be one an earlier owner released.
func (c *Copier) Submit(bytes float64, label string, onDone func(*Copy)) *Copy {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("netsim: invalid copy size %v", bytes))
	}
	var cp *Copy
	if n := len(c.free); n > 0 {
		cp = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		cp = new(Copy)
	}
	*cp = Copy{Bytes: bytes, Label: label, copier: c, onDone: onDone, state: FlowStarting}
	c.queue = append(c.queue, cp)
	c.kick()
	return cp
}

// CopyTime returns how long a copy of the given size takes in isolation.
func (c *Copier) CopyTime(bytes float64) simclock.Duration {
	return simclock.Duration(bytes / c.bandwidth)
}

// BusyTime returns the cumulative time the channel has spent copying.
func (c *Copier) BusyTime() simclock.Duration {
	total := c.busyTotal
	if c.cur != nil {
		total += c.engine.Now().Sub(c.busySince)
	}
	return total
}

func (c *Copier) kick() {
	if c.cur != nil {
		return
	}
	if c.head == len(c.queue) {
		if c.head > 0 {
			c.queue = c.queue[:0]
			c.head = 0
		}
		return
	}
	cp := c.queue[c.head]
	c.queue[c.head] = nil
	c.head++
	c.cur = cp
	c.busySince = c.engine.Now()
	cp.state = FlowActive
	at := c.engine.Now().Add(c.CopyTime(cp.Bytes))
	if c.done == (simclock.EventID{}) {
		c.done = c.engine.At(at, c.complete)
	} else {
		c.engine.Rearm(c.done, at)
	}
}

// complete finishes the copy in flight and starts the next queued one.
func (c *Copier) complete() {
	cp := c.cur
	c.cur = nil
	cp.state = FlowDone
	c.busyTotal += c.engine.Now().Sub(c.busySince)
	c.track.Span(trace.CatNetsim, cp.Label, c.busySince, c.engine.Now())
	if cp.onDone != nil {
		cb := cp.onDone
		cp.onDone = nil
		cb(cp)
	}
	c.kick()
}
