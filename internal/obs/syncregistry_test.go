package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"gemini/internal/metrics"
)

// The -race satellite: workers merge runs concurrently while a reader
// snapshots and serves /metrics-style expositions.
func TestSyncRegistryConcurrentObserveSnapshotMerge(t *testing.T) {
	s := NewSyncRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				run := metrics.NewRegistry()
				run.Counter("runs").Inc()
				run.Gauge("coverage").Set(float64(w))
				run.Histogram("wasted").Observe(float64(i))
				run.Histogram("wasted").Observe(float64(i + 50))
				s.Merge(run)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = s.Snapshot()
			var buf bytes.Buffer
			if err := s.WriteProm(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	cs := s.Snapshot()
	if v, ok := cs.Get("runs"); !ok || v != 200 {
		t.Fatalf("runs = %v/%v, want 200", v, ok)
	}
	if v, ok := cs.Get("wasted.count"); !ok || v != 400 {
		t.Fatalf("wasted.count = %v/%v, want 400 (two per merged run)", v, ok)
	}
	if v, ok := cs.Get("coverage"); !ok || v < 0 || v > 3 {
		t.Fatalf("coverage = %v/%v, want some worker's last value", v, ok)
	}
}

func TestSyncRegistryWriteProm(t *testing.T) {
	s := NewSyncRegistry()
	run := metrics.NewRegistry()
	run.Counter("campaign.runs").Add(3)
	run.Histogram("campaign.wasted").Observe(100)
	s.Merge(run)
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE campaign_runs counter\ncampaign_runs 3\n",
		"# TYPE campaign_wasted histogram\n",
		`campaign_wasted_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNilSyncRegistryIsDisabled(t *testing.T) {
	var s *SyncRegistry
	s.Merge(metrics.NewRegistry())
	if s.Snapshot() != nil {
		t.Fatal("nil SyncRegistry snapshot not nil")
	}
	var buf bytes.Buffer
	if err := s.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WriteProm: err=%v bytes=%d", err, buf.Len())
	}
}
