package netsim

import (
	"fmt"
	"math"

	"gemini/internal/simclock"
)

// Collective cost models. ZeRO-3 training traffic consists of all-gathers
// (parameter fetch before each layer's forward and backward compute),
// reduce-scatters (gradient synchronization), and the broadcasts GEMINI's
// group placement uses to replicate checkpoints. These are the standard
// ring-algorithm α–β costs (Thakur et al., cited as [72] in the paper).

// CollectiveKind names a collective communication operation.
type CollectiveKind int

const (
	AllGather CollectiveKind = iota
	ReduceScatter
	AllReduce
	Broadcast
)

func (k CollectiveKind) String() string {
	switch k {
	case AllGather:
		return "all-gather"
	case ReduceScatter:
		return "reduce-scatter"
	case AllReduce:
		return "all-reduce"
	case Broadcast:
		return "broadcast"
	default:
		return fmt.Sprintf("CollectiveKind(%d)", int(k))
	}
}

// CollectiveTime returns the completion time of a ring collective over n
// participants where totalBytes is the full (unsharded) payload, each link
// runs at bandwidthBytesPerSec, and each of the ring steps pays the α
// startup latency.
//
//   - AllGather / ReduceScatter: (n−1) steps moving totalBytes·(n−1)/n
//     per participant.
//   - AllReduce: reduce-scatter followed by all-gather, 2(n−1) steps.
//   - Broadcast: pipelined ring broadcast, totalBytes over (n−1) hop
//     latencies plus the bandwidth term.
func CollectiveTime(kind CollectiveKind, n int, totalBytes, bandwidthBytesPerSec float64, alpha simclock.Duration) simclock.Duration {
	if n <= 0 {
		panic(fmt.Sprintf("netsim: collective over %d participants", n))
	}
	// The negated comparisons also reject NaN. An infinite bandwidth
	// would drop the payload term and leave only the α steps.
	if !(totalBytes >= 0) {
		panic(fmt.Sprintf("netsim: collective payload must be nonnegative, got %v", totalBytes))
	}
	if !(bandwidthBytesPerSec > 0) || math.IsInf(bandwidthBytesPerSec, 1) {
		panic(fmt.Sprintf("netsim: collective bandwidth must be positive and finite, got %v", bandwidthBytesPerSec))
	}
	if !(alpha >= 0) {
		panic(fmt.Sprintf("netsim: collective alpha must be nonnegative, got %v", float64(alpha)))
	}
	if n == 1 {
		return 0
	}
	steps := float64(n - 1)
	perStepBytes := totalBytes / float64(n)
	switch kind {
	case AllGather, ReduceScatter:
		return simclock.Duration(steps)*alpha + simclock.Duration(steps*perStepBytes/bandwidthBytesPerSec)
	case AllReduce:
		return simclock.Duration(2*steps)*alpha + simclock.Duration(2*steps*perStepBytes/bandwidthBytesPerSec)
	case Broadcast:
		return simclock.Duration(steps)*alpha + simclock.Duration(totalBytes/bandwidthBytesPerSec)
	default:
		panic(fmt.Sprintf("netsim: unknown collective kind %d", int(kind)))
	}
}
