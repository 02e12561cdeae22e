package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gemini/internal/parallel"
)

// checkEncode holds Report.encode to encoding/json, compact and
// indented, at parallel.Workers() workers: the same bytes, appended
// after dst, and an error exactly when json.Marshal errors, with the
// same text.
func checkEncode(t *testing.T, name string, r *Report) {
	t.Helper()
	for _, indent := range []bool{false, true} {
		var want []byte
		var werr error
		if indent {
			want, werr = json.MarshalIndent(r, "", "  ")
		} else {
			want, werr = json.Marshal(r)
		}
		enc, gerr := r.encode(parallel.Workers(), indent, r.Hash)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("%s indent=%v: encode error %v, encoding/json error %v", name, indent, gerr, werr)
		}
		if werr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("%s indent=%v: encode error %q, encoding/json error %q", name, indent, gerr, werr)
			}
			continue
		}
		got := enc.appendTo([]byte("prefix"))
		if size := enc.size(); size != len(got)-len("prefix") {
			t.Fatalf("%s indent=%v: size %d, encoded %d bytes", name, indent, size, len(got)-len("prefix"))
		}
		enc.release()
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("%s indent=%v: encode overwrote dst", name, indent)
		}
		if got = got[len("prefix"):]; !bytes.Equal(got, want) {
			t.Fatalf("%s indent=%v: encode differs from encoding/json\n got: %s\nwant: %s", name, indent, got, want)
		}
	}
}

// fill sets every exported field reachable from v to a distinct
// nonzero value, giving each slice two elements, so a report field the
// encoder does not write — or writes under the wrong tag or format —
// shows up as a difference from encoding/json.
func fill(v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n)
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(v.Index(i), n)
		}
	case reflect.String:
		v.SetString("field-" + strings.Repeat("x", *n%5) + string(rune('a'+*n%26)))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 7919)
	case reflect.Uint64:
		v.SetUint(uint64(*n) * 104729)
	case reflect.Float64:
		v.SetFloat(float64(*n) * 1.0379e-3)
	default:
		panic("fill: unhandled kind " + v.Kind().String() + " — teach the encoder and this test the new field")
	}
}

func TestEncodeEveryField(t *testing.T) {
	var r Report
	n := 0
	fill(reflect.ValueOf(&r).Elem(), &n)
	checkEncode(t, "filled", &r)
	if r.Aggregates == nil || len(r.Runs) != 2 || r.Aggregates.Specs[1].Rows[1].Count == 0 {
		t.Fatalf("fill missed a field: %+v", r)
	}
}

func TestEncodeZeroNilAndEmpty(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for name, r := range map[string]*Report{
		"zero":             {},
		"empty slices":     {Specs: []SpecReport{}, Runs: []RunRecord{}},
		"empty aggregates": {Aggregates: &AggregateReport{}},
		"empty rows": {Aggregates: &AggregateReport{
			Campaign: []AggregateRow{},
			Specs:    []SpecAggregate{{}, {Name: "A", Rows: []AggregateRow{}}, {Rows: []AggregateRow{{}}}},
		}},
		"zero values": {
			Specs: []SpecReport{{}},
			Runs:  []RunRecord{{}},
		},
		"negative zero": {
			HorizonDays: negZero,
			Specs:       []SpecReport{{EffectiveRatio: Stats{Mean: negZero}, InMemoryFraction: negZero}},
			Aggregates: &AggregateReport{Campaign: []AggregateRow{{
				Name: "a", Kind: "histogram", Value: negZero, Mean: negZero, P50: negZero,
				P99: negZero, Max: negZero, Sum: negZero,
			}}},
			Runs: []RunRecord{{WastedSeconds: negZero}},
		},
	} {
		checkEncode(t, name, r)
	}
}

func TestEncodeFloatsAndStrings(t *testing.T) {
	for _, f := range []float64{
		1e-7, -1e-7, 1e-6, 9.99999e-7, 1e21, -1e21, 1e20, 999999999999999999999,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Copysign(0, -1),
		0.1, 1.0 / 3, 123456789.125, 1.5e-300, 2.5e300,
	} {
		checkEncode(t, "float", &Report{
			HorizonDays: f,
			Specs:       []SpecReport{{WastedHours: Stats{P99: f}}},
			Aggregates:  &AggregateReport{Campaign: []AggregateRow{{Value: f, Sum: f}}},
			Runs:        []RunRecord{{StallSeconds: f}},
		})
	}
	for _, s := range []string{
		"", "plain", "<script>", "1<2", "2>1", "a&b", `say "hi"`, `back\slash`, "tab\there", "nul\x00",
		"\x1f\x7f", "line\u2028sep\u2029", "bad\xffutf8", "héllo", "日本", "~ !#$%'()*+,-./:;=?@[]^_`{|}",
	} {
		checkEncode(t, "string", &Report{
			Scenario:    s,
			Description: s,
			Specs:       []SpecReport{{Name: s}},
			Aggregates:  &AggregateReport{Specs: []SpecAggregate{{Name: s, Rows: []AggregateRow{{Name: s, Kind: s}}}}},
			Runs:        []RunRecord{{Spec: s}},
			Hash:        s,
		})
	}
}

// runRecords returns n distinct run records.
func runRecords(n int) []RunRecord {
	runs := make([]RunRecord, n)
	for i := range runs {
		f := float64(i)
		runs[i] = RunRecord{
			Variation: i / 3, Spec: []string{"gemini", "highfreq", "strawman"}[i%3],
			EffectiveRatio: 1 / (f + 1.5), WastedSeconds: f * 371.25, LostSeconds: f * 1e-7,
			DowntimeSeconds: f * 1e20, StallSeconds: -f / 7,
			Failures: i % 11, FromLocal: i % 5, FromPeer: i % 3, FromRemote: i % 2,
		}
	}
	return runs
}

// The run records are encoded in chunks of runChunk: at every count
// around a chunk boundary, and at one and four workers, the joined
// chunks are encoding/json's bytes.
func TestEncodeChunkBoundaries(t *testing.T) {
	const c = runChunk
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, c - 1, c, c + 1, 3*c + 7} {
			checkEncode(t, fmt.Sprintf("GOMAXPROCS=%d runs=%d", procs, n), &Report{
				Scenario: "chunks",
				Specs:    []SpecReport{{Name: "gemini"}},
				Runs:     runRecords(n),
				Hash:     "h",
			})
		}
		runtime.GOMAXPROCS(prev)
	}
}

// The first non-finite float in document order sets the error, as in
// encoding/json: a spec's stats come before every run record, an
// earlier chunk's error before a later one's, and chunk 2 reports its
// own error when it is the only one.
func TestEncodeChunkErrorOrder(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	headAndLater := &Report{
		Specs: []SpecReport{{Name: "gemini", WastedHours: Stats{P90: math.NaN()}}},
		Runs:  runRecords(3*runChunk + 7),
	}
	headAndLater.Runs[2*runChunk+5].LostSeconds = math.Inf(1)
	twoChunks := &Report{Runs: runRecords(3*runChunk + 7)}
	twoChunks.Runs[runChunk+3].WastedSeconds = math.Inf(1)
	twoChunks.Runs[2*runChunk+1].EffectiveRatio = math.NaN()
	chunk2 := &Report{Runs: runRecords(3*runChunk + 7)}
	chunk2.Runs[2*runChunk].StallSeconds = math.Inf(1)
	for name, r := range map[string]*Report{
		"NaN in a spec, +Inf in chunk 2":  headAndLater,
		"+Inf in chunk 1, NaN in chunk 2": twoChunks,
		"+Inf in chunk 2":                 chunk2,
	} {
		_, werr := json.Marshal(r)
		if werr == nil {
			t.Fatalf("%s: json.Marshal accepted the report", name)
		}
		checkEncode(t, name, r)
		if _, err := r.JSON(); err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s: JSON error %v, want %q", name, err, werr)
		}
	}
}

// FuzzReportJSON holds the encoder to encoding/json on arbitrary names
// and floats; NaN and ±Inf must make both fail. runs (clamped to
// [0, 3·runChunk+7]) sets the number of run records, so the fuzzer
// crosses chunk boundaries; x and y land in the last one. The seed
// corpus runs under plain `go test`.
func FuzzReportJSON(f *testing.F) {
	f.Add("smoke-1k", "", "GEMINI", 0.97, 12.5, 1)
	f.Add("<&>", "desc ", "\xff", 1e-7, 1e21, runChunk)
	f.Add("q\"", "\x00", "", math.Copysign(0, -1), 5e-324, runChunk+1)
	f.Add("nan", "d", "s", math.NaN(), 1.0, 3*runChunk+7)
	f.Add("inf", "d", "s", 1.0, math.Inf(1), 2*runChunk)
	f.Add("-inf", "d", "s", math.Inf(-1), 0.0, 0)
	f.Fuzz(func(t *testing.T, scenario, description, spec string, x, y float64, runs int) {
		runs = min(max(runs, 0), 3*runChunk+7)
		r := &Report{
			Scenario:       scenario,
			Description:    description,
			HorizonDays:    x,
			FailuresPerDay: y,
			Specs:          []SpecReport{{Name: spec, EffectiveRatio: Stats{Mean: x, StdDev: y}}},
			Aggregates: &AggregateReport{
				Campaign: []AggregateRow{{Name: spec, Kind: "gauge", Value: x}},
				Specs:    []SpecAggregate{{Name: spec, Rows: []AggregateRow{{Name: scenario, Kind: "histogram", Mean: y, Max: x}}}},
			},
			Runs: runRecords(runs),
		}
		if runs > 0 {
			last := &r.Runs[runs-1]
			last.Spec, last.EffectiveRatio, last.WastedSeconds = spec, x, y
		}
		checkEncode(t, "fuzz", r)
		_, err := r.JSON()
		if nonFinite := math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0); nonFinite != (err != nil) {
			t.Fatalf("x=%v y=%v: encode error %v", x, y, err)
		}
	})
}
