// Package schedule implements GEMINI's checkpoint traffic scheduling
// (§5): Algorithm 2, which partitions the m−1 remote checkpoint replicas
// into chunks sized to the profiled network idle timespans and to the
// reserved GPU buffer, and names the interleaving schemes the paper
// ablates in §7.4. What each scheme sends, when, and how much GPU buffer
// it needs is stated once, in the training executor's chunk schedule.
package schedule

import (
	"fmt"
	"math"

	"gemini/internal/profile"
	"gemini/internal/simclock"
)

// The paper's implementation parameters (§5, §7.1), declared once for
// the derivation, the baseline specs, the executor and the ablations.
const (
	// DefaultBufferBytes is R: 128 MB of reserved GPU memory per GPU,
	// eight GPUs per machine.
	DefaultBufferBytes = 8 * 128e6
	// DefaultBufferParts is p, the pipeline sub-buffer count.
	DefaultBufferParts = 4
	// DefaultGamma is γ, the idle-span safety coefficient.
	DefaultGamma = 0.9
	// DefaultProfileWindow is the §5.4 online-profiling window in
	// iterations.
	DefaultProfileWindow = 20
	// DefaultGPUBudgetBytes is the GPU memory available for checkpoint
	// buffers: 256 MB per GPU, eight GPUs per machine.
	DefaultGPUBudgetBytes = 8 * 256e6
)

// Params configures Algorithm 2.
type Params struct {
	// Spans are the profiled network idle timespans of one iteration,
	// in time order (the T = {t₁…t_d} of Algorithm 2).
	Spans []profile.Span
	// CheckpointBytes is C: the size of one checkpoint replica (this
	// machine's shard).
	CheckpointBytes float64
	// Replicas is m; m−1 replicas travel over the network.
	Replicas int
	// BufferBytes is R, the total reserved GPU memory for checkpoint
	// communication (128 MB in the paper's implementation).
	BufferBytes float64
	// BufferParts is p, the number of pipeline sub-buffers (4 in GEMINI;
	// 1 disables pipelining).
	BufferParts int
	// BandwidthBytesPerSec is B, the inter-machine network bandwidth.
	BandwidthBytesPerSec float64
	// Alpha is the transfer startup latency α in f(s) = α + s/B.
	Alpha simclock.Duration
	// Gamma is the γ ∈ (0,1] safety coefficient discounting each idle
	// span for cross-iteration variance.
	Gamma float64
}

// Validate reports the first parameter Algorithm 2 cannot run with.
// Partition calls it; so does every scheme that does not build a plan.
func (p Params) Validate() error {
	// Every check is negated so that NaN, which compares false against
	// everything, fails it too; the MaxFloat64 bounds reject ±Inf.
	switch {
	case !(p.CheckpointBytes >= 0 && p.CheckpointBytes <= math.MaxFloat64):
		return fmt.Errorf("schedule: checkpoint size must be finite and non-negative, got %v", p.CheckpointBytes)
	case p.Replicas < 1:
		return fmt.Errorf("schedule: replicas must be ≥ 1, got %d", p.Replicas)
	case !(p.BufferBytes > 0 && p.BufferBytes <= math.MaxFloat64):
		return fmt.Errorf("schedule: buffer size must be positive and finite, got %v", p.BufferBytes)
	case p.BufferParts < 1:
		return fmt.Errorf("schedule: buffer parts must be ≥ 1, got %d", p.BufferParts)
	case !(p.BandwidthBytesPerSec > 0 && p.BandwidthBytesPerSec <= math.MaxFloat64):
		return fmt.Errorf("schedule: bandwidth must be positive and finite, got %v", p.BandwidthBytesPerSec)
	case !(p.Alpha >= 0 && p.Alpha <= math.MaxFloat64):
		return fmt.Errorf("schedule: alpha must be finite and non-negative, got %v", p.Alpha)
	case !(p.Gamma > 0 && p.Gamma <= 1):
		return fmt.Errorf("schedule: gamma must be in (0,1], got %v", p.Gamma)
	}
	for i, s := range p.Spans {
		if !(s.Length >= 0 && s.Length <= math.MaxFloat64) {
			return fmt.Errorf("schedule: span %d length must be finite and non-negative, got %v", i, s.Length)
		}
	}
	return nil
}

// AutoGamma derives Algorithm 2's safety coefficient from the profiled
// cross-iteration variance: idle spans are discounted by twice the
// normalized standard deviation (two sigmas of shrinkage), clamped to
// [0.5, 1]. With the paper's observed <10% deviation this yields
// γ ∈ [0.8, 1].
func AutoGamma(normalizedStdDev float64) float64 {
	if normalizedStdDev < 0 {
		panic(fmt.Sprintf("schedule: negative stddev %v", normalizedStdDev))
	}
	gamma := 1 - 2*normalizedStdDev
	if gamma < 0.5 {
		return 0.5
	}
	return gamma
}

// transferTime is f(s) = α + s/B.
func (p Params) transferTime(bytes float64) simclock.Duration {
	return p.Alpha + simclock.Duration(bytes/p.BandwidthBytesPerSec)
}

// Chunk is one scheduled checkpoint partition: bytes of replica Replica
// transmitted inside idle span Span (Span == len(Spans) means the
// overflow region appended past the last profiled span).
type Chunk struct {
	Span    int
	Replica int
	Bytes   float64
}

// Plan is Algorithm 2's output.
type Plan struct {
	Chunks []Chunk
	// Fits reports whether all replica traffic fit inside the profiled
	// idle spans (no overflow into the update phase).
	Fits bool
	// OverflowBytes is the traffic that had to be placed in the virtual
	// last span (Line 2's t[d] = +∞); it prolongs the iteration.
	OverflowBytes float64
	// OverflowTime is how long the overflow traffic extends the
	// iteration: the f(·) cost of the overflow chunks.
	OverflowTime simclock.Duration
}

// TotalBytes returns the bytes scheduled across all chunks.
func (pl *Plan) TotalBytes() float64 {
	var total float64
	for _, c := range pl.Chunks {
		total += c.Bytes
	}
	return total
}

// IdleUtilization returns the fraction of scheduled checkpoint bytes
// that fit inside profiled idle spans rather than overflowing into the
// update phase — the quantity Algorithm 2 maximizes, reported by the
// health monitor as health.idle_utilization. An empty plan wastes no
// training time, so it counts as fully utilized (1).
func (pl *Plan) IdleUtilization() float64 {
	total := pl.TotalBytes()
	if total == 0 {
		return 1
	}
	return (total - pl.OverflowBytes) / total
}

// Partition is Algorithm 2: it packs the m−1 remote checkpoint replicas
// into the idle spans, chunk by chunk, never exceeding the sub-buffer
// size R/p, and spills whatever remains into a virtual unbounded span
// after the last profiled one.
func Partition(p Params) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	plan := &Plan{Fits: true}
	remoteReplicas := p.Replicas - 1
	if remoteReplicas == 0 || p.CheckpointBytes == 0 {
		return plan, nil
	}
	maxChunk := p.BufferBytes / float64(p.BufferParts)
	// Each replica's bytes are cut into segments by span ends, and a
	// segment into full chunks and one partial: at most ⌊(m−1)·C/(R/p)⌋
	// full chunks plus one partial per replica and per span.
	if n := math.Floor(float64(remoteReplicas)*p.CheckpointBytes/maxChunk) + float64(remoteReplicas+len(p.Spans)); n <= maxPlanHint {
		plan.Chunks = make([]Chunk, 0, int(n))
	}
	replica := 0
	remainSize := p.CheckpointBytes

	// place consumes one idle span (or the infinite overflow span when
	// spanLen is +Inf) and returns true when all replicas are scheduled.
	place := func(spanIdx int, spanLen simclock.Duration) bool {
		remainSpan := simclock.Duration(p.Gamma) * spanLen
		infinite := math.IsInf(float64(spanLen), 1)
		for remainSpan > 0 {
			var size float64
			if infinite || remainSpan >= p.transferTime(maxChunk) {
				size = maxChunk
			} else {
				size = math.Max(0, (remainSpan-p.Alpha).Seconds()*p.BandwidthBytesPerSec)
			}
			size = math.Min(remainSize, size)
			if size <= 0 {
				return false
			}
			remainSize -= size
			if !infinite {
				remainSpan -= p.transferTime(size)
			}
			plan.Chunks = append(plan.Chunks, Chunk{Span: spanIdx, Replica: replica, Bytes: size})
			if infinite {
				plan.Fits = false
				plan.OverflowBytes += size
				plan.OverflowTime += p.transferTime(size)
			}
			if remainSize == 0 {
				if replica < remoteReplicas-1 {
					replica++
					remainSize = p.CheckpointBytes
				} else {
					return true
				}
			}
		}
		return false
	}

	for i, span := range p.Spans {
		if place(i, span.Length) {
			return plan, nil
		}
	}
	// Line 2 of Algorithm 2: the last span is +∞ — whatever remains goes
	// there and blocks the update phase.
	if !place(len(p.Spans), simclock.Duration(math.Inf(1))) {
		panic("schedule: infinite span failed to absorb remaining checkpoint traffic")
	}
	return plan, nil
}

// maxPlanHint bounds the chunk capacity Partition reserves up front; a
// larger plan grows as it is built.
const maxPlanHint = 1 << 20

// MustPartition is Partition for known-good parameters.
func MustPartition(p Params) *Plan {
	plan, err := Partition(p)
	if err != nil {
		panic(err)
	}
	return plan
}

// Scheme is one of the §7.4 interleaving schemes.
type Scheme int

const (
	// SchemeBaseline performs no checkpointing.
	SchemeBaseline Scheme = iota
	// SchemeBlocking sends the whole checkpoint at the start of the next
	// iteration, blocking training traffic (Fig. 4b).
	SchemeBlocking
	// SchemeNaive puts exactly one partition in each idle timespan,
	// requiring a GPU buffer as large as the span can carry (Fig. 5c
	// precursor; OOMs for large models).
	SchemeNaive
	// SchemeNoPipeline partitions into buffer-sized chunks but uses a
	// single buffer, so every chunk's GPU→CPU copy blocks the next
	// network transfer (Fig. 5c).
	SchemeNoPipeline
	// SchemeGemini pipelines chunks across p sub-buffers so copies
	// overlap transfers (Fig. 5d).
	SchemeGemini
)

func (s Scheme) String() string {
	switch s {
	case SchemeBaseline:
		return "Baseline"
	case SchemeBlocking:
		return "Blocking"
	case SchemeNaive:
		return "Naive interleave"
	case SchemeNoPipeline:
		return "Interleave w/o pipeline"
	case SchemeGemini:
		return "GEMINI"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}
