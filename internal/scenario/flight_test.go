package scenario

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gemini/internal/obs"
	"gemini/internal/trace"
)

func compiledSmall(t *testing.T) *Compiled {
	t.Helper()
	s, err := Parse([]byte(smallYAML))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The headline acceptance criterion: with aggregation and records on,
// the JSON/HTML reports and the aggregated Prometheus exposition are
// byte-identical at workers=1 and workers=8.
func TestCampaignAggregationDeterministicAcrossWorkers(t *testing.T) {
	c := compiledSmall(t)
	runWith := func(workers int) *Report {
		rep, err := RunCampaign(context.Background(), c, CampaignOptions{
			Workers: workers, Aggregate: true, RecordRuns: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r8 := runWith(1), runWith(8)
	j1, _ := r1.JSON()
	j8, _ := r8.JSON()
	if !bytes.Equal(j1, j8) {
		t.Fatalf("worker count changed the aggregated report:\n%s\nvs\n%s", j1, j8)
	}
	var p1, p8 bytes.Buffer
	if err := r1.WriteAggregatedProm(&p1); err != nil {
		t.Fatal(err)
	}
	if err := r8.WriteAggregatedProm(&p8); err != nil {
		t.Fatal(err)
	}
	if p1.Len() == 0 || !bytes.Equal(p1.Bytes(), p8.Bytes()) {
		t.Fatalf("worker count changed the aggregated prom exposition:\n%s\nvs\n%s", p1.String(), p8.String())
	}
	var h1, h8 bytes.Buffer
	if err := WriteHTML(&h1, r1); err != nil {
		t.Fatal(err)
	}
	if err := WriteHTML(&h8, r8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h1.Bytes(), h8.Bytes()) {
		t.Error("worker count changed the aggregated HTML report")
	}
	if !strings.Contains(h1.String(), "Aggregated run metrics") {
		t.Error("HTML report missing the aggregates section")
	}

	// Shape checks on the rollup.
	if r1.Aggregates == nil || len(r1.Aggregates.Specs) != 3 {
		t.Fatalf("aggregates = %+v", r1.Aggregates)
	}
	var wastedCount, ratioCount uint64
	for _, row := range r1.Aggregates.Campaign {
		switch row.Name {
		case "run.wasted_seconds":
			wastedCount = row.Count
		case "run.effective_ratio":
			ratioCount = row.Count
		}
	}
	if ratioCount != uint64(r1.Variations*3) {
		t.Errorf("campaign-wide ratio count %d, want %d (one per run)", ratioCount, r1.Variations*3)
	}
	if wastedCount == 0 {
		t.Error("campaign-wide wasted histogram is empty")
	}
	if len(r1.Runs) != r1.Variations*3 {
		t.Fatalf("%d run records, want %d", len(r1.Runs), r1.Variations*3)
	}
	// The per-spec registries partition the campaign-wide one.
	var specTotal uint64
	for si := range r1.Aggregates.Specs {
		for _, row := range r1.Aggregates.Specs[si].Rows {
			if row.Name == "run.wasted_seconds" {
				specTotal += row.Count
			}
		}
	}
	if specTotal != wastedCount {
		t.Errorf("per-spec wasted counts sum to %d, campaign-wide has %d", specTotal, wastedCount)
	}
}

// Default options must keep the report exactly as before: no aggregate
// or runs keys in the JSON (the ci.sh pinned hash depends on it).
func TestCampaignDefaultReportUnchangedByNewFields(t *testing.T) {
	c := compiledSmall(t)
	rep, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := rep.JSON()
	for _, forbidden := range []string{`"aggregates"`, `"runs"`} {
		if bytes.Contains(j, []byte(forbidden)) {
			t.Errorf("default report contains %s:\n%s", forbidden, j)
		}
	}
	if err := rep.WriteAggregatedProm(&bytes.Buffer{}); err == nil {
		t.Error("WriteAggregatedProm without Aggregate did not error")
	}
}

func TestCampaignProgressSink(t *testing.T) {
	c := compiledSmall(t)
	prog := obs.NewProgress()
	live := obs.NewSyncRegistry()
	rep, err := RunCampaign(context.Background(), c, CampaignOptions{
		Workers: 4, Progress: prog, Live: live,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := prog.Snapshot()
	if snap.TotalRuns != int64(rep.Variations) || snap.DoneRuns != int64(rep.Variations) {
		t.Fatalf("progress %+v, want %d runs done", snap, rep.Variations)
	}
	var wantFails int64
	for _, sp := range rep.Specs {
		wantFails += int64(sp.Failures)
	}
	if snap.Failures != wantFails {
		t.Errorf("progress failures %d, want %d", snap.Failures, wantFails)
	}
	if snap.SimSecondsDone != snap.SimSecondsTotal || snap.SimSecondsDone == 0 {
		t.Errorf("sim seconds %v/%v, want all done", snap.SimSecondsDone, snap.SimSecondsTotal)
	}
	// The live registry (Live alone, no Aggregate) saw every run,
	// whatever the arrival order: its run.* counters and histogram
	// counts equal the Aggregate rollup's campaign rows.
	agg, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 1, Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	liveSnap := live.Snapshot()
	rows := agg.Aggregates.Campaign
	if len(rows) != 10 {
		t.Fatalf("aggregate has %d campaign rows, want the 10 run.* instruments", len(rows))
	}
	for _, row := range rows {
		name, want := row.Name, row.Value
		if row.Kind == "histogram" {
			name, want = row.Name+".count", float64(row.Count)
		}
		if got, ok := liveSnap.Get(name); !ok || got != want {
			t.Errorf("live %s = %v (present %v), aggregate has %v", name, got, ok, want)
		}
	}
	if v, _ := liveSnap.Get("run.effective_ratio.count"); v != float64(rep.Variations*3) {
		t.Errorf("live ratio count %v, want %d", v, rep.Variations*3)
	}
}

// A variation that fails is counted as started but never as done, at
// any worker count.
func TestCampaignProgressSkipsDoneOnError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := compiledSmall(t)
		c.Scenario.Failures.Kind = "fixed"
		c.Scenario.Failures.PerDay = -1 // every variation's schedule fails
		prog := obs.NewProgress()
		rep, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: workers, Progress: prog})
		if err == nil || rep != nil {
			t.Fatalf("workers=%d: campaign with failing variations returned %v, %v", workers, rep != nil, err)
		}
		snap := prog.Snapshot()
		if snap.StartedRuns == 0 || snap.DoneRuns != 0 || snap.SimSecondsDone != 0 {
			t.Fatalf("workers=%d: progress %+v, want runs started and none done", workers, snap)
		}
	}
}

func TestOutliersRanking(t *testing.T) {
	rep := &Report{Runs: []RunRecord{
		{Variation: 0, Spec: "A", WastedSeconds: 100, EffectiveRatio: 0.99},
		{Variation: 1, Spec: "A", WastedSeconds: 300, EffectiveRatio: 0.97},
		{Variation: 0, Spec: "B", WastedSeconds: 900, EffectiveRatio: 0.91},
		{Variation: 1, Spec: "B", WastedSeconds: 950, EffectiveRatio: 0.90},
	}}
	worst, err := Outliers(rep, "wasted", 2)
	if err != nil {
		t.Fatal(err)
	}
	if worst[0].WastedSeconds != 950 || worst[1].WastedSeconds != 900 {
		t.Fatalf("wasted ranking %+v", worst)
	}
	worst, err = Outliers(rep, "ratio", 1)
	if err != nil {
		t.Fatal(err)
	}
	if worst[0].EffectiveRatio != 0.90 {
		t.Fatalf("ratio ranking %+v", worst)
	}
	// wasted-vs-spec: A's worst is +100 over its mean of 200; B's is +25
	// over 925 — so the A run is the bigger outlier for its spec.
	worst, err = Outliers(rep, "wasted-vs-spec", 1)
	if err != nil {
		t.Fatal(err)
	}
	if worst[0].Spec != "A" || worst[0].Variation != 1 {
		t.Fatalf("wasted-vs-spec ranking %+v", worst)
	}
	if _, err := Outliers(rep, "bogus", 1); err == nil {
		t.Fatal("unknown key did not error")
	}
	if _, err := Outliers(&Report{}, "wasted", 1); err == nil {
		t.Fatal("record-less report did not error")
	}
	// k beyond the record count returns everything.
	all, err := Outliers(rep, "wasted", 99)
	if err != nil || len(all) != 4 {
		t.Fatalf("k=99: %d records, err=%v", len(all), err)
	}
}

// Outliers selects the k worst records in one pass; the result must
// equal a full stable sort's prefix for every k and key, including on
// badness ties and on duplicate records.
func TestOutliersSelectionMatchesSort(t *testing.T) {
	var runs []RunRecord
	for i := 0; i < 40; i++ {
		spec := []string{"A", "B", "C"}[i%3]
		runs = append(runs, RunRecord{
			Variation:      (i * 7) % 13,
			Spec:           spec,
			WastedSeconds:  float64((i * 5) % 4 * 100),
			EffectiveRatio: 0.9 + float64(i%3)/100,
			Failures:       i, // tells duplicates apart
		})
	}
	runs = append(runs, runs[3], runs[3])
	rep := &Report{Runs: runs}
	for _, key := range FlightKeys {
		full, err := Outliers(rep, key, len(runs))
		if err != nil {
			t.Fatal(err)
		}
		want := sortedRuns(runs, key)
		if !reflect.DeepEqual(full, want) {
			t.Fatalf("%s: selection of all %d records differs from the stable sort", key, len(runs))
		}
		for k := 0; k <= len(runs)+1; k++ {
			got, err := Outliers(rep, key, k)
			if err != nil {
				t.Fatal(err)
			}
			if n := min(k, len(runs)); !reflect.DeepEqual(got, want[:n]) {
				t.Fatalf("%s k=%d: got %+v, want %+v", key, k, got, want[:n])
			}
		}
	}
	if _, err := Outliers(rep, "wasted", -1); err == nil || !strings.Contains(err.Error(), "k=-1") {
		t.Fatalf("negative k: err = %v, want an error naming k", err)
	}
}

// sortedRuns is the reference ranking: a copy of runs stable-sorted by
// key's badness (descending), then variation, then spec.
func sortedRuns(runs []RunRecord, key string) []RunRecord {
	means := map[string][2]float64{}
	for _, r := range runs {
		m := means[r.Spec]
		means[r.Spec] = [2]float64{m[0] + r.WastedSeconds, m[1] + 1}
	}
	badness := func(r RunRecord) float64 {
		switch key {
		case "ratio":
			return -r.EffectiveRatio
		case "wasted-vs-spec":
			return r.WastedSeconds - means[r.Spec][0]/means[r.Spec][1]
		}
		return r.WastedSeconds
	}
	ranked := append([]RunRecord(nil), runs...)
	sort.SliceStable(ranked, func(i, j int) bool {
		bi, bj := badness(ranked[i]), badness(ranked[j])
		if bi != bj {
			return bi > bj
		}
		if ranked[i].Variation != ranked[j].Variation {
			return ranked[i].Variation < ranked[j].Variation
		}
		return ranked[i].Spec < ranked[j].Spec
	})
	return ranked
}

// The flight-recorder replay contract: re-execution reproduces the
// campaign-recorded result exactly and emits a lint-clean trace plus a
// time-ordered timeline.
func TestFlightReplayMatchesRecord(t *testing.T) {
	c := compiledSmall(t)
	rep, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 8, RecordRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	worst, err := Outliers(rep, "wasted", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range worst {
		fr, err := c.Replay(rec)
		if err != nil {
			t.Fatalf("replay of %+v: %v", rec, err)
		}
		var traceBuf bytes.Buffer
		if err := fr.WriteTrace(&traceBuf); err != nil {
			t.Fatal(err)
		}
		issues, err := trace.Lint(traceBuf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(issues) != 0 {
			t.Fatalf("flight trace has lint issues: %v", issues)
		}
		st, err := trace.StatsFromJSON(traceBuf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failures > 0 && st.Events == 0 {
			t.Fatal("flight trace has no events despite recorded failures")
		}
		var csv bytes.Buffer
		if err := fr.WriteTimeline(&csv); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
		if lines[0] != "time,wasted_seconds,effective_ratio" {
			t.Fatalf("timeline header %q", lines[0])
		}
		recoveries := rec.FromLocal + rec.FromPeer + rec.FromRemote
		if len(lines)-1 != recoveries {
			t.Fatalf("%d timeline rows, want %d recoveries", len(lines)-1, recoveries)
		}
		var prom bytes.Buffer
		if err := fr.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(prom.String(), "run_failures") {
			t.Fatalf("flight prom missing run_failures:\n%s", prom.String())
		}
	}
}

func TestFlightReplayDetectsDivergence(t *testing.T) {
	c := compiledSmall(t)
	rep, err := RunCampaign(context.Background(), c, CampaignOptions{Workers: 2, RecordRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := rep.Runs[0]
	rec.WastedSeconds += 1 // corrupt the record
	if _, err := c.Replay(rec); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("corrupted record replay err = %v, want divergence", err)
	}
	rec = rep.Runs[0]
	rec.Spec = "nope"
	if _, err := c.Replay(rec); err == nil {
		t.Fatal("unknown spec replay did not error")
	}
}
