package agent

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gemini/internal/cloud"
	"gemini/internal/cluster"
	"gemini/internal/simclock"
	"gemini/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// Pins the lastRemoteCommitted bugfix: the remote-fallback version must
// be the iteration actually committed to the remote tier, not one derived
// from the cadence in force at recovery time. Before the fix, shrinking
// the cadence mid-run made recovery claim a remote checkpoint (here 21)
// that was never written; the newest real commit is 20.
func TestSetRemoteEveryMidRunUsesCommittedVersion(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.SetRemoteEvery(10) // commits at iterations 10, 20, …
	f.sys.Start()
	// After iteration 22 the newest remote commit is 20. Tighten the
	// cadence to 7: the next commit would land at 28, but the whole
	// group {2,3} dies at iteration 25 — before any commit under the
	// new cadence exists.
	f.engine.At(simclock.Time(22*iterTime+1), func() {
		f.sys.SetRemoteEvery(7)
	})
	f.engine.At(simclock.Time(25*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
		f.sys.InjectFailure(3, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(60 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	ret, _ := f.log().Last("retrieved")
	if !strings.Contains(ret.Args, "from remote") {
		t.Fatalf("retrieval detail %q, want remote fallback", ret.Args)
	}
	rec, _ := f.log().Last("recovery-complete")
	if strings.Contains(rec.Args, "iteration 21") {
		t.Fatalf("recovery claims the phantom cadence-derived version: %q", rec.Args)
	}
	if !strings.Contains(rec.Args, "iteration 20") {
		t.Fatalf("recovery detail %q, want the committed remote iteration 20", rec.Args)
	}
}

// spanNames collects the names recorded on a track.
func spanNames(tk *trace.Track) map[string]int {
	out := make(map[string]int)
	for _, sp := range tk.Spans() {
		out[sp.Name]++
	}
	return out
}

func TestRecoveryPhasesTraced(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.SetRemoteEvery(10)
	tr := trace.NewTracer(nil)
	f.sys.SetTracer(tr)
	f.sys.Start()
	f.engine.At(simclock.Time(5*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.HardwareFailed)
	})
	f.engine.Run(simclock.Time(20 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}

	root := tr.Track("control-plane", "root-agent")
	names := spanNames(root)
	for _, want := range []string{"recovery", "serialize", "replace", "retrieve", "warmup", "iteration"} {
		if names[want] == 0 {
			t.Errorf("no %q span on root-agent track (got %v)", want, names)
		}
	}
	if root.OpenSpans() != 0 {
		t.Fatalf("%d spans left open after recovery completed", root.OpenSpans())
	}
	// The §6.2 phases nest inside the recovery span and are ordered.
	var rec, ser, rtv, wu trace.Span
	for _, sp := range root.Spans() {
		switch sp.Name {
		case "recovery":
			rec = sp
		case "serialize":
			ser = sp
		case "retrieve":
			rtv = sp
		case "warmup":
			wu = sp
		}
	}
	if !(rec.Start <= ser.Start && ser.End <= rtv.Start && rtv.End <= wu.Start && wu.End <= rec.End) {
		t.Fatalf("phase spans out of order: recovery=%+v serialize=%+v retrieve=%+v warmup=%+v",
			rec, ser, rtv, wu)
	}
	if !strings.Contains(rtv.Args, "source=") {
		t.Fatalf("retrieve span args %q missing source", rtv.Args)
	}

	// The event log lives on the tracer, each event with its subsystem.
	events := tr.Track("control-plane", "events")
	if events != f.sys.Log() {
		t.Fatal("the event log is not the tracer's control-plane/events track")
	}
	for name, cat := range map[string]string{"failure": trace.CatChaos, "elected": trace.CatKVStore, "retrieved": trace.CatAgent} {
		if in, ok := events.Last(name); !ok || in.Cat != cat {
			t.Errorf("no %s %q instant on the events track (got %+v)", cat, name, events.Instants())
		}
	}
}

// Pins the exported trace JSON for a small deterministic run, byte for
// byte: a seeded failure, the full recovery, and the export layout
// (pids, tids, lanes, args) must all stay reproducible. Regenerate with
// `go test ./internal/agent -run GoldenTrace -update` after an
// intentional format or instrumentation change.
func TestGoldenTraceJSON(t *testing.T) {
	f := newFixture(t, 4, 2, cloud.DefaultConfig())
	f.sys.SetRemoteEvery(10)
	tr := trace.NewTracer(nil)
	f.sys.SetTracer(tr)
	f.sys.Start()
	f.engine.At(simclock.Time(3*iterTime+10), func() {
		f.sys.InjectFailure(2, cluster.SoftwareFailed)
	})
	f.engine.Run(simclock.Time(12 * iterTime))
	if f.sys.Recoveries() != 1 {
		t.Fatalf("%d recoveries, want 1", f.sys.Recoveries())
	}
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exported trace differs from %s (run with -update if intentional)\ngot:  %.400s\nwant: %.400s",
			golden, buf.String(), want)
	}
	// Sanity beyond byte equality: the document is valid and covers the
	// control-plane subsystems.
	st, err := trace.StatsFromJSON(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{trace.CatAgent, trace.CatChaos, trace.CatKVStore} {
		if st.Categories[cat] == 0 {
			t.Errorf("no %s events in golden trace (categories: %v)", cat, st.Categories)
		}
	}
}

// A traced run must replay bit-identically to an untraced one: tracing
// only observes, never schedules. Its event log is the untraced run's,
// event for event, and each event is recorded once: no other track of
// the tracer holds an instant named after one.
func TestTracingDoesNotPerturbDeterminism(t *testing.T) {
	run := func(tr *trace.Tracer) []trace.Instant {
		f := newFixture(t, 4, 2, cloud.DefaultConfig())
		f.sys.SetRemoteEvery(10)
		f.sys.SetTracer(tr)
		f.sys.Start()
		f.engine.At(simclock.Time(5*iterTime+10), func() {
			f.sys.InjectFailure(1, cluster.SoftwareFailed)
			f.sys.InjectFailure(2, cluster.HardwareFailed)
		})
		f.engine.Run(simclock.Time(30 * iterTime))
		return f.log().Instants()
	}
	tr := trace.NewTracer(nil)
	plain, traced := run(nil), run(tr)
	if len(plain) != len(traced) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(traced))
	}
	logged := make(map[string]bool)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("event %d differs:\n  plain:  %+v\n  traced: %+v", i, plain[i], traced[i])
		}
		logged[plain[i].Name] = true
	}
	events := tr.Track("control-plane", "events")
	for _, tk := range tr.Tracks() {
		if tk == events {
			continue
		}
		for _, in := range tk.Instants() {
			if logged[in.Name] {
				t.Errorf("track %s/%s records event %q again: %+v", tk.Process, tk.Thread, in.Name, in)
			}
		}
	}
}
