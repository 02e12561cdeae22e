package netsim

// Tracer attachment for the fabric and copy channels. Tracing observes
// completed transfers only — a flow's span is emitted at finish time,
// when its extent is finally known — so it cannot perturb the event
// schedule, and the nil-track fast path keeps the untraced engine
// allocation-free (pinned by alloc_test.go).

import (
	"fmt"

	"gemini/internal/trace"
)

// SetTracer attaches per-machine NIC tracks: every flow that finishes
// becomes a span labeled with the flow label on its source machine's
// "machine-<i>/nic" track. Nil disables.
func (fb *Fabric) SetTracer(tr *trace.Tracer) {
	if tr == nil {
		fb.nicTracks = nil
		return
	}
	tr.SetNow(fb.engine.Now)
	fb.nicTracks = make([]*trace.Track, len(fb.nodes))
	for i := range fb.nodes {
		fb.nicTracks[i] = tr.Track(fmt.Sprintf("machine-%d", i), "nic")
	}
}

// SetTrack attaches a trace track to the copy channel: each completed
// copy becomes a span over its active (not queued) time. Nil disables.
func (c *Copier) SetTrack(tk *trace.Track) { c.track = tk }
