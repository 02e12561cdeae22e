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
//
// The queue holds runs, not copies: Submit queues a run of consecutive
// pieces, and each piece takes its *Copy only when it starts, so a
// machine's whole local shard costs one queue entry however finely the
// buffer cuts it.
type Copier struct {
	engine    *simclock.Engine
	bandwidth float64   // bytes/sec
	queue     []copyRun // pending runs are queue[head:]; backing array reused
	head      int
	cur       *Copy            // the copy in flight; nil when idle
	curDone   func(*Copy)      // cur's callback
	done      simclock.EventID // cur's completion, rearmed per copy
	free      []*Copy          // released copies, reused when a piece starts
	busyTotal simclock.Duration
	busySince simclock.Time
	track     *trace.Track // nil = untraced
}

// copyRun is a queued run: remain bytes still to copy in pieces of at
// most piece bytes. A queued run always has at least one piece left; a
// zero-byte run is one zero-byte piece.
type copyRun struct {
	remain, piece float64
	label         string
	onDone        func(*Copy)
}

// take cuts the run's next piece, the remainder once less than a piece
// is left.
func (r *copyRun) take() float64 {
	sz := r.piece
	if sz > r.remain {
		sz = r.remain
	}
	r.remain -= sz
	return sz
}

// Pieces returns how many copies Submit(bytes, piece, …) makes: the
// consecutive pieces of at most piece bytes that cover bytes, and one
// for a zero-byte run.
func Pieces(bytes, piece float64) int {
	r := copyRun{remain: bytes, piece: piece}
	r.take()
	n := 1
	for r.remain > 0 {
		r.take()
		n++
	}
	return n
}

// maxRunPieces bounds the pieces of one run. It also keeps every piece
// far above the rounding step of the bytes it is cut from, so each cut
// makes progress.
const maxRunPieces = 1 << 24

// Copy is one in-flight or finished GPU→CPU copy: one piece of a run.
// Like a Flow, a finished copy may be handed back with Release for a
// later piece to reuse.
type Copy struct {
	Bytes    float64
	Label    string
	copier   *Copier
	state    FlowState
	released bool
}

// State returns the copy's lifecycle state (FlowActive while copying,
// FlowDone when complete).
func (c *Copy) State() FlowState { return c.state }

// Release returns a completed copy to its copier, whose next piece to
// start may take the same *Copy; the caller must drop every reference
// first. Releasing an in-flight copy, or releasing a copy
// twice, panics.
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

// QueueLen returns the number of copies waiting or in flight, counting
// every piece a queued run has left.
func (c *Copier) QueueLen() int {
	n := 0
	for _, r := range c.queue[c.head:] {
		n += Pieces(r.remain, r.piece)
	}
	if c.cur != nil {
		n++
	}
	return n
}

// Submit queues bytes as a run of consecutive copies of at most piece
// bytes each, the last one the remainder; a zero-byte run is one
// zero-byte copy. onDone fires as each copy completes, with a *Copy that
// may be one an earlier owner released.
func (c *Copier) Submit(bytes, piece float64, label string, onDone func(*Copy)) {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("netsim: invalid copy size %v", bytes))
	}
	if !(piece > 0 || piece == 0 && bytes == 0) || bytes/piece > maxRunPieces {
		panic(fmt.Sprintf("netsim: invalid piece size %v for a copy of %v bytes", piece, bytes))
	}
	c.queue = append(c.queue, copyRun{remain: bytes, piece: piece, label: label, onDone: onDone})
	c.kick()
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

// kick starts the next queued piece when the channel is idle.
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
	r := &c.queue[c.head]
	bytes, label, onDone := r.take(), r.label, r.onDone
	if r.remain == 0 {
		*r = copyRun{}
		c.head++
	}
	var cp *Copy
	if n := len(c.free); n > 0 {
		cp = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		cp = new(Copy)
	}
	*cp = Copy{Bytes: bytes, Label: label, copier: c, state: FlowActive}
	c.cur = cp
	c.curDone = onDone
	c.busySince = c.engine.Now()
	at := c.engine.Now().Add(c.CopyTime(bytes))
	if c.done == (simclock.EventID{}) {
		c.done = c.engine.At(at, c.complete)
	} else {
		c.engine.Rearm(c.done, at)
	}
}

// complete finishes the copy in flight and starts the next queued piece.
func (c *Copier) complete() {
	cp, cb := c.cur, c.curDone
	c.cur, c.curDone = nil, nil
	cp.state = FlowDone
	c.busyTotal += c.engine.Now().Sub(c.busySince)
	c.track.Span(trace.CatNetsim, cp.Label, c.busySince, c.engine.Now())
	if cb != nil {
		cb(cp)
	}
	c.kick()
}
