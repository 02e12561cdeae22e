package obs

import (
	"io"
	"sync"

	"gemini/internal/metrics"
)

// SyncRegistry wraps a metrics.Registry with a mutex so many goroutines
// can merge finished runs while a reader snapshots or serves /metrics.
// metrics.Registry itself stays lock-free by design (it is a per-run
// sink on the hot path); SyncRegistry is the shared aggregation point
// the campaign server hangs off. A nil *SyncRegistry is disabled.
//
// Note the determinism split: the campaign's *reported* aggregates are
// merged in variation order (see scenario.RunCampaign) and are
// byte-identical at any worker count; a SyncRegistry merged live from
// workers reflects arrival order and is for serving, not for golden
// files.
type SyncRegistry struct {
	mu sync.Mutex
	r  *metrics.Registry
}

// NewSyncRegistry returns an enabled, empty registry.
func NewSyncRegistry() *SyncRegistry {
	return &SyncRegistry{r: metrics.NewRegistry()}
}

// Merge folds a finished run's registry in (counters add, histograms
// merge, gauges last-merged-wins — metrics.Registry.Merge semantics).
func (s *SyncRegistry) Merge(src *metrics.Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.r.Merge(src)
	s.mu.Unlock()
}

// Snapshot flattens the current state into a CounterSet (instruments in
// first-registration order). Nil yields nil.
func (s *SyncRegistry) Snapshot() metrics.CounterSet {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Snapshot()
}

// WriteProm renders the current state in Prometheus text exposition
// format, holding the lock for the duration of the write. Nil writes
// nothing.
func (s *SyncRegistry) WriteProm(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return metrics.WriteProm(w, s.r)
}
