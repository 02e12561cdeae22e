package schedule

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gemini/internal/profile"
	"gemini/internal/simclock"
)

func baseParams() Params {
	return Params{
		Spans: []profile.Span{
			{Offset: 0, Length: 1.0},
			{Offset: 5, Length: 2.0},
			{Offset: 10, Length: 0.5},
		},
		CheckpointBytes:      200,
		Replicas:             2,
		BufferBytes:          128,
		BufferParts:          4,
		BandwidthBytesPerSec: 100,
		Alpha:                0,
		Gamma:                1,
	}
}

func TestPartitionSchedulesAllReplicaBytes(t *testing.T) {
	p := baseParams()
	plan := MustPartition(p)
	want := float64(p.Replicas-1) * p.CheckpointBytes
	if got := plan.TotalBytes(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("scheduled %v bytes, want %v", got, want)
	}
	if !plan.Fits {
		t.Fatal("200 bytes should fit in 3.5s of idle at 100 B/s")
	}
	if plan.OverflowBytes != 0 || plan.OverflowTime != 0 {
		t.Fatalf("unexpected overflow %v / %v", plan.OverflowBytes, plan.OverflowTime)
	}
}

func TestPartitionRespectsSubBufferSize(t *testing.T) {
	p := baseParams()
	plan := MustPartition(p)
	maxChunk := p.BufferBytes / float64(p.BufferParts) // 32
	for i, c := range plan.Chunks {
		if c.Bytes > maxChunk+1e-9 {
			t.Fatalf("chunk %d has %v bytes, exceeds sub-buffer %v", i, c.Bytes, maxChunk)
		}
		if c.Bytes <= 0 {
			t.Fatalf("chunk %d has nonpositive size", i)
		}
	}
}

func TestPartitionChunksFitTheirSpans(t *testing.T) {
	p := baseParams()
	p.Alpha = 0.01
	plan := MustPartition(p)
	for i, span := range p.Spans {
		var used simclock.Duration
		for _, c := range plan.Chunks {
			if c.Span == i {
				used += p.transferTime(c.Bytes)
			}
		}
		if used > simclock.Duration(p.Gamma)*span.Length+1e-9 {
			t.Fatalf("span %d holds %v of traffic, capacity %v", i, used, span.Length)
		}
	}
}

func TestPartitionOverflowsIntoVirtualSpan(t *testing.T) {
	p := baseParams()
	p.CheckpointBytes = 10_000 // far more than 3.5s × 100 B/s can carry
	plan := MustPartition(p)
	if plan.Fits {
		t.Fatal("oversized checkpoint reported as fitting")
	}
	if plan.OverflowBytes <= 0 {
		t.Fatal("no overflow recorded")
	}
	if got := plan.TotalBytes(); math.Abs(got-10_000) > 1e-9 {
		t.Fatalf("scheduled %v bytes, want all 10000", got)
	}
	// Overflow chunks live in the virtual span past the last profiled one.
	var ofBytes float64
	for _, c := range plan.Chunks {
		if c.Span != len(p.Spans) {
			continue
		}
		ofBytes += c.Bytes
	}
	if math.Abs(ofBytes-plan.OverflowBytes) > 1e-9 {
		t.Fatalf("overflow accounting mismatch: %v vs %v", ofBytes, plan.OverflowBytes)
	}
}

func TestPartitionMultipleReplicas(t *testing.T) {
	p := baseParams()
	p.Replicas = 3 // two remote replicas
	p.Spans = []profile.Span{{Offset: 0, Length: 100}}
	plan := MustPartition(p)
	seen := map[int]float64{}
	for _, c := range plan.Chunks {
		seen[c.Replica] += c.Bytes
	}
	if len(seen) != 2 {
		t.Fatalf("chunks cover replicas %v, want 2 replicas", seen)
	}
	for r, bytes := range seen {
		if math.Abs(bytes-p.CheckpointBytes) > 1e-9 {
			t.Fatalf("replica %d scheduled %v bytes, want %v", r, bytes, p.CheckpointBytes)
		}
	}
}

func TestPartitionSingleReplicaNeedsNoTraffic(t *testing.T) {
	p := baseParams()
	p.Replicas = 1
	plan := MustPartition(p)
	if len(plan.Chunks) != 0 || !plan.Fits {
		t.Fatalf("m=1 scheduled traffic: %+v", plan)
	}
}

func TestPartitionGammaShrinksCapacity(t *testing.T) {
	full := baseParams()
	full.CheckpointBytes = 340 // just under 3.5s × 100 B/s
	planFull := MustPartition(full)
	if !planFull.Fits {
		t.Fatal("γ=1 should fit 340 bytes")
	}
	half := full
	half.Gamma = 0.5
	planHalf := MustPartition(half)
	if planHalf.Fits {
		t.Fatal("γ=0.5 should not fit 340 bytes in 1.75s of usable idle")
	}
}

func TestPartitionAlphaConsumesSpans(t *testing.T) {
	p := baseParams()
	p.Alpha = 10 // every transfer costs 10s of startup; spans are ≤ 2s
	plan := MustPartition(p)
	// Nothing fits in the real spans: all traffic overflows.
	if plan.Fits || math.Abs(plan.OverflowBytes-p.CheckpointBytes) > 1e-9 {
		t.Fatalf("with huge alpha plan = %+v, want full overflow", plan)
	}
}

func TestPartitionZeroCheckpoint(t *testing.T) {
	p := baseParams()
	p.CheckpointBytes = 0
	plan := MustPartition(p)
	if len(plan.Chunks) != 0 || !plan.Fits {
		t.Fatalf("zero checkpoint produced chunks: %+v", plan)
	}
}

func TestPartitionValidation(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.CheckpointBytes = -1 },
		func(p *Params) { p.Replicas = 0 },
		func(p *Params) { p.BufferBytes = 0 },
		func(p *Params) { p.BufferParts = 0 },
		func(p *Params) { p.BandwidthBytesPerSec = 0 },
		func(p *Params) { p.Alpha = -1 },
		func(p *Params) { p.Gamma = 0 },
		func(p *Params) { p.Gamma = 1.5 },
		func(p *Params) { p.Spans = []profile.Span{{Length: -1}} },
	}
	for i, mutate := range bad {
		p := baseParams()
		mutate(&p)
		if _, err := Partition(p); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPartition on bad params did not panic")
		}
	}()
	p := baseParams()
	p.Replicas = -1
	MustPartition(p)
}

// Every float parameter is checked with a negated comparison, so NaN
// and ±Inf fail Partition with an error naming the parameter.
func TestPartitionRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		set  func(p *Params, v float64)
	}{
		{"checkpoint size", func(p *Params, v float64) { p.CheckpointBytes = v }},
		{"buffer size", func(p *Params, v float64) { p.BufferBytes = v }},
		{"bandwidth", func(p *Params, v float64) { p.BandwidthBytesPerSec = v }},
		{"alpha", func(p *Params, v float64) { p.Alpha = simclock.Duration(v) }},
		{"gamma", func(p *Params, v float64) { p.Gamma = v }},
		{"span 1 length", func(p *Params, v float64) { p.Spans[1].Length = simclock.Duration(v) }},
	}
	for _, c := range cases {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := baseParams()
			c.set(&p, v)
			_, err := Partition(p)
			if err == nil || !strings.Contains(err.Error(), c.name) {
				t.Errorf("%s = %v: error %v, want one naming %s", c.name, v, err, c.name)
			}
		}
	}
}

func TestSchemeString(t *testing.T) {
	names := map[Scheme]string{
		SchemeBaseline:   "Baseline",
		SchemeBlocking:   "Blocking",
		SchemeNaive:      "Naive interleave",
		SchemeNoPipeline: "Interleave w/o pipeline",
		SchemeGemini:     "GEMINI",
		Scheme(9):        "Scheme(9)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: Partition always schedules exactly (m−1)·C bytes, chunks
// never exceed R/p, and overflow is zero iff Fits.
func TestPropertyPartitionInvariants(t *testing.T) {
	f := func(ckptRaw, bufRaw uint16, partsRaw, replicasRaw, spansRaw uint8, gammaRaw uint8) bool {
		p := Params{
			CheckpointBytes:      float64(ckptRaw),
			Replicas:             int(replicasRaw%4) + 1,
			BufferBytes:          float64(bufRaw%2000) + 1,
			BufferParts:          int(partsRaw%8) + 1,
			BandwidthBytesPerSec: 100,
			Alpha:                0.001,
			Gamma:                float64(gammaRaw%9+1) / 10,
		}
		for i := 0; i < int(spansRaw%6); i++ {
			p.Spans = append(p.Spans, profile.Span{
				Offset: simclock.Duration(i * 10),
				Length: simclock.Duration(i%3) + 0.5,
			})
		}
		plan, err := Partition(p)
		if err != nil {
			return false
		}
		// Relative tolerance: TotalBytes sums thousands of chunks when the
		// buffer is tiny, so absolute error scales with the byte count.
		want := float64(p.Replicas-1) * p.CheckpointBytes
		if math.Abs(plan.TotalBytes()-want) > 1e-9*math.Max(1, want) {
			return false
		}
		maxChunk := p.BufferBytes/float64(p.BufferParts) + 1e-9
		for _, c := range plan.Chunks {
			if c.Bytes > maxChunk || c.Bytes <= 0 {
				return false
			}
			if c.Span < 0 || c.Span > len(p.Spans) {
				return false
			}
		}
		return plan.Fits == (plan.OverflowBytes == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: more idle time never increases overflow.
func TestPropertyMoreIdleNeverWorse(t *testing.T) {
	f := func(extraRaw uint8) bool {
		base := baseParams()
		base.CheckpointBytes = 2000
		planA := MustPartition(base)
		grown := base
		grown.Spans = append([]profile.Span(nil), base.Spans...)
		grown.Spans = append(grown.Spans, profile.Span{Offset: 20, Length: simclock.Duration(extraRaw % 50)})
		planB := MustPartition(grown)
		return planB.OverflowBytes <= planA.OverflowBytes+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// IdleUtilization is the health monitor's Algorithm 2 gauge: the
// fraction of checkpoint traffic hidden inside profiled idle spans.
func TestPlanIdleUtilization(t *testing.T) {
	// A fitting plan is fully utilized.
	p := baseParams()
	if u := MustPartition(p).IdleUtilization(); math.Abs(u-1) > 1e-12 {
		t.Fatalf("fitting plan utilization %v, want 1", u)
	}
	// An overflowing plan reports exactly the in-span fraction.
	p.CheckpointBytes = 10_000
	plan := MustPartition(p)
	want := (plan.TotalBytes() - plan.OverflowBytes) / plan.TotalBytes()
	if u := plan.IdleUtilization(); math.Abs(u-want) > 1e-12 {
		t.Fatalf("overflowing plan utilization %v, want %v", u, want)
	}
	if u := plan.IdleUtilization(); u <= 0 || u >= 1 {
		t.Fatalf("overflowing plan utilization %v, want strictly inside (0, 1)", u)
	}
	// An empty plan wastes nothing: utilization 1 by convention.
	empty := &Plan{}
	if u := empty.IdleUtilization(); u != 1 {
		t.Fatalf("empty plan utilization %v, want 1", u)
	}
	// Fully-overflowing synthetic plan: utilization 0.
	allOver := &Plan{Chunks: []Chunk{{Span: 1, Bytes: 50}}, OverflowBytes: 50}
	if u := allOver.IdleUtilization(); u != 0 {
		t.Fatalf("all-overflow plan utilization %v, want 0", u)
	}
}
